"""Two-view datasets: synthetic generation, splits, batching, and file IO.

A dataset is immutable after construction. Rows carry a split tag; unlabeled
rows may retain their true label privately (the training path never reads it,
only pseudo-label quality metrics do). The binary containers are bit-exact:

  embeddings: magic "TRCO", version u16 LE = 1, n u32 LE, d u32 LE,
              then n*d IEEE-754 float32 LE, row-major
  labels:     magic "TRCL", version u16 LE = 1, n u32 LE, then n int32 LE,
              -1 meaning unlabeled

CSV alternatives: header "f0,...,f{d-1}" with one row per sample, and a
single-column "label" file. Feature values are quantized to float32 on
generation so every encoding round-trips exactly.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BoundError, FormatError, InvalidInputError
from .numerics import stream

EMBEDDING_MAGIC = b"TRCO"
LABEL_MAGIC = b"TRCL"
FORMAT_VERSION = 1

LABELED = 0
UNLABELED = 1
VALIDATION = 2
TEST = 3

SPLIT_NAMES = {LABELED: "labeled", UNLABELED: "unlabeled", VALIDATION: "validation", TEST: "test"}


@dataclass(frozen=True)
class TwoViewDataset:
    """Paired view embeddings with labels and per-row split tags."""

    view1: np.ndarray  # (n, d1) float64
    view2: np.ndarray  # (n, d2) float64
    labels: np.ndarray  # (n,) int64, -1 = unknown
    split: np.ndarray  # (n,) int8

    def __post_init__(self):
        n = self.view1.shape[0]
        if self.view2.shape[0] != n or self.labels.shape[0] != n or self.split.shape[0] != n:
            raise InvalidInputError("views, labels and split tags must have equal row counts")
        if not (np.isfinite(self.view1).all() and np.isfinite(self.view2).all()):
            raise InvalidInputError("embeddings must be finite")
        val = self.split == VALIDATION
        if np.any(self.labels[val] < 0):
            raise InvalidInputError("validation rows must be labeled")

    def __len__(self) -> int:
        return self.view1.shape[0]

    @property
    def n_classes(self) -> int:
        known = self.labels[self.labels >= 0]
        return int(known.max()) + 1 if known.size else 0

    def indices(self, split: int) -> np.ndarray:
        return np.flatnonzero(self.split == split)

    def views(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.view1[rows], self.view2[rows]


def _quantize(x: np.ndarray) -> np.ndarray:
    # float32 grid so binary/CSV serialization is lossless.
    return x.astype(np.float32).astype(np.float64)


def gen_synthetic_two_view(
    n: int,
    classes: int,
    d1: int,
    d2: int,
    view_noise: float,
    label_noise: float = 0.0,
    seed: int = 0,
) -> TwoViewDataset:
    """Conditionally independent views built from per-view class means.

    Class means are drawn independently per view on the unit sphere; each
    sample adds isotropic Gaussian noise that is independent across views, so
    the views are conditionally independent given the label by construction.
    ``label_noise`` flips that fraction of recorded labels to a different
    uniformly drawn class (features still come from the clean label).
    """
    if classes < 2:
        raise InvalidInputError("need at least 2 classes")
    if n < classes:
        raise InvalidInputError("need at least one sample per class")
    if view_noise < 0 or label_noise < 0:
        raise InvalidInputError("noise levels must be nonnegative")
    rng = np.random.default_rng(seed)

    def sphere_means(d: int) -> np.ndarray:
        m = rng.standard_normal((classes, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    means1 = sphere_means(d1)
    means2 = sphere_means(d2)
    labels = rng.integers(0, classes, size=n)
    view1 = means1[labels] + view_noise * rng.standard_normal((n, d1))
    view2 = means2[labels] + view_noise * rng.standard_normal((n, d2))
    recorded = labels.copy()
    if label_noise > 0:
        flip = rng.random(n) < label_noise
        shift = rng.integers(1, classes, size=n)
        recorded[flip] = (recorded[flip] + shift[flip]) % classes
    return TwoViewDataset(
        view1=_quantize(view1),
        view2=_quantize(view2),
        labels=recorded.astype(np.int64),
        split=np.full(n, LABELED, dtype=np.int8),
    )


def _stratified_take(
    rng: np.random.Generator,
    labels: np.ndarray,
    pool: np.ndarray,
    total: int,
    min_per_class: int = 0,
) -> np.ndarray:
    """Pick ``total`` indices from ``pool`` proportionally per class.

    Largest-remainder rounding keeps per-class counts within 1 of
    proportional. Selection within a class is a seeded shuffle.
    """
    classes = np.unique(labels[pool])
    per_class = {c: pool[labels[pool] == c] for c in classes}
    quotas = {}
    fractions = []
    used = 0
    for c in classes:
        exact = total * len(per_class[c]) / len(pool)
        q = max(int(exact), min_per_class)
        q = min(q, len(per_class[c]))
        quotas[c] = q
        used += q
        fractions.append((exact - int(exact), c))
    fractions.sort(key=lambda t: (-t[0], t[1]))
    i = 0
    while used < total and i < len(fractions):
        c = fractions[i][1]
        if quotas[c] < len(per_class[c]):
            quotas[c] += 1
            used += 1
        i += 1
        if i == len(fractions) and used < total:
            i = 0
    chosen = []
    for c in classes:
        members = per_class[c].copy()
        rng.shuffle(members)
        chosen.append(members[: quotas[c]])
    return np.sort(np.concatenate(chosen)) if chosen else np.array([], dtype=np.int64)


def split_by_counts(
    ds: TwoViewDataset,
    n_labeled: int,
    n_validation: int,
    n_test: int,
    seed: int = 0,
) -> TwoViewDataset:
    """Stratified split with absolute counts. Validation comes out of the
    labeled budget (so ``n_labeled`` includes the validation rows); everything
    else with a known label becomes unlabeled but keeps its label privately.
    """
    labeled_pool = np.flatnonzero(ds.labels >= 0)
    classes = np.unique(ds.labels[labeled_pool])
    # The budgets the data must hold, named by argument so that a caller can
    # report its own keys. A dataset with no labeled rows fails one of them.
    if n_validation < classes.size:
        rule = f"{{0}} must be >= {classes.size}, the classes among the labeled rows"
        raise BoundError(rule, "n_validation")
    if n_labeled + n_test > labeled_pool.size:
        rule = f"{{1}} + {{0}} must be <= {labeled_pool.size}, the labeled rows"
        raise BoundError(rule, "n_test", "n_labeled")
    if n_validation >= n_labeled:
        raise InvalidInputError("validation budget must be smaller than the labeled budget")
    rng = np.random.default_rng(seed)
    split = np.full(len(ds), UNLABELED, dtype=np.int8)
    test_rows = _stratified_take(rng, ds.labels, labeled_pool, n_test)
    split[test_rows] = TEST
    remaining = np.setdiff1d(labeled_pool, test_rows)
    labeled_rows = _stratified_take(rng, ds.labels, remaining, n_labeled)
    split[labeled_rows] = LABELED
    val_rows = _stratified_take(rng, ds.labels, labeled_rows, n_validation, min_per_class=1)
    split[val_rows] = VALIDATION
    return replace(ds, split=split)


class BatchIterator:
    """Cursor over one dataset: an epoch is one pass over the unlabeled rows.

    The dataset must hold labeled, unlabeled and validation rows. The
    unlabeled permutation reshuffles per epoch from (seed, epoch); labeled
    rows are drawn uniformly with replacement, so small labeled pools still
    fill the configured batch. The final unlabeled batch of an epoch may be
    short so that every unlabeled row is visited exactly once.
    """

    def __init__(self, ds: TwoViewDataset, labeled_batch: int, unlabeled_batch: int, seed: int = 0):
        if labeled_batch < 1 or unlabeled_batch < 1:
            raise InvalidInputError("batch sizes must be positive")
        for split in (LABELED, UNLABELED, VALIDATION):
            if not ds.indices(split).size:
                raise InvalidInputError(f"dataset has no {SPLIT_NAMES[split]} rows")
        self.labeled_batch = labeled_batch
        self.unlabeled_batch = unlabeled_batch
        self.seed = seed
        self.labeled_rows = ds.indices(LABELED)
        self.unlabeled_rows = ds.indices(UNLABELED)
        self.validation_rows = ds.indices(VALIDATION)
        self.epoch = -1
        self._cursor = 0
        self._perm = np.array([], dtype=np.int64)
        self._start_epoch()

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.unlabeled_rows.size // self.unlabeled_batch)

    def _start_epoch(self):
        self.epoch += 1
        self._cursor = 0
        self._perm = stream(self.seed, self.epoch, 0).permutation(self.unlabeled_rows)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labeled rows, unlabeled rows, validation rows) for one step."""
        if self._cursor >= self._perm.size:
            self._start_epoch()
        step_in_epoch = self._cursor // self.unlabeled_batch
        unlabeled = self._perm[self._cursor : self._cursor + self.unlabeled_batch]
        self._cursor += self.unlabeled_batch
        rng = stream(self.seed, self.epoch, 1, step_in_epoch)
        labeled = rng.choice(self.labeled_rows, size=self.labeled_batch, replace=True)
        return labeled, unlabeled, self.validation_rows


# ---------------------------------------------------------------------------
# Binary containers


def _read_exact(fh, count: int, path, offset: int) -> bytes:
    # A header can claim far more bytes than a regular file holds; reading
    # only what is left turns that into a truncation, not a huge allocation.
    info = os.fstat(fh.fileno())
    left = info.st_size - fh.tell() if stat.S_ISREG(info.st_mode) else count
    buf = fh.read(min(count, max(left, 0)))
    if len(buf) != count:
        raise FormatError(path, f"truncated: wanted {count} bytes", offset=offset + len(buf))
    return buf


def write_embeddings(path, x: np.ndarray) -> None:
    x = np.asarray(x)
    if x.ndim != 2:
        raise InvalidInputError("embedding matrix must be 2-d")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, x.shape[0], x.shape[1]))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def _read_container(path, magic: bytes, header: str) -> tuple[list[int], bytes]:
    """The shape fields after the version in ``header``, and the payload of
    4 bytes per element, of one binary container."""
    with open(path, "rb") as fh:
        found = _read_exact(fh, 4, path, 0)
        if found != magic:
            raise FormatError(path, f"bad magic {found!r}, expected {magic!r}", offset=0)
        size = struct.calcsize(header)
        version, *shape = struct.unpack(header, _read_exact(fh, size, path, 4))
        if version != FORMAT_VERSION:
            raise FormatError(path, f"unsupported version {version}", offset=4)
        start, count = 4 + size, 4 * math.prod(shape)
        payload = _read_exact(fh, count, path, start)
        if fh.read(1):
            raise FormatError(path, "trailing bytes after payload", offset=start + count)
    return shape, payload


def read_embeddings(path) -> np.ndarray:
    (n, d), payload = _read_container(path, EMBEDDING_MAGIC, "<HII")
    return np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)


def write_labels(path, labels: np.ndarray) -> None:
    y = np.asarray(labels)
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<HI", FORMAT_VERSION, y.shape[0]))
        fh.write(np.ascontiguousarray(y, dtype="<i4").tobytes())


def read_labels(path) -> np.ndarray:
    _, payload = _read_container(path, LABEL_MAGIC, "<HI")
    return np.frombuffer(payload, dtype="<i4").astype(np.int64)


# ---------------------------------------------------------------------------
# CSV encodings


def write_matrix_csv(path, x: np.ndarray) -> None:
    x32 = np.asarray(x, dtype=np.float32)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(x32.shape[1])) + "\n")
        for row in x32:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols != [f"f{j}" for j in range(len(cols))]:
            raise FormatError(path, f"bad header {header!r}", line=1)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(cols):
                raise FormatError(
                    path, f"expected {len(cols)} fields, got {len(parts)}", line=lineno)
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise FormatError(path, str(exc), line=lineno) from exc
    # Route through float32 so CSV and binary encodings agree bit-exactly.
    return np.asarray(rows, dtype=np.float32).astype(np.float64)


def write_labels_csv(path, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label\n")
        for v in np.asarray(labels):
            fh.write(f"{int(v)}\n")


def read_labels_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "label":
            raise FormatError(path, f"bad header {header!r}", line=1)
        labels = []
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    labels.append(int(line.strip()))
                except ValueError as exc:
                    raise FormatError(path, str(exc), line=lineno) from exc
    return np.array(labels, dtype=np.int64)


def _sniff(path, magic: bytes, read_binary, read_csv) -> np.ndarray:
    """Read ``path`` as a binary container if it starts with ``magic``, else as CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return read_binary(path) if head == magic else read_csv(path)


def load_embedding_file(path_view1, path_view2, path_labels) -> TwoViewDataset:
    """Assemble a dataset from two embedding files and a label file.

    Formats are detected from the magic bytes (binary) or fall back to CSV.
    Rows labeled -1 are tagged unlabeled; all others start as labeled-train,
    ready for ``split_by_counts``.
    """
    v1 = _sniff(path_view1, EMBEDDING_MAGIC, read_embeddings, read_matrix_csv)
    v2 = _sniff(path_view2, EMBEDDING_MAGIC, read_embeddings, read_matrix_csv)
    y = _sniff(path_labels, LABEL_MAGIC, read_labels, read_labels_csv)
    if not (v1.shape[0] == v2.shape[0] == y.shape[0]):
        raise FormatError(
            Path(path_labels),
            f"row-count mismatch: {Path(path_view1).name}={v1.shape[0]}, "
            f"{Path(path_view2).name}={v2.shape[0]}, labels={y.shape[0]}",
        )
    split = np.where(y < 0, UNLABELED, LABELED).astype(np.int8)
    return TwoViewDataset(view1=v1, view2=v2, labels=y, split=split)
