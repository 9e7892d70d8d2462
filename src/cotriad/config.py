"""Run configuration: a flat ``section.key = value`` file plus flag overrides.

Unknown keys are hard errors, every key has a documented default, and errors
carry the line or the report they came from. The resolved configuration is
echoed into every report so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import (
    UNLABELED,
    TwoViewDataset,
    gen_synthetic_two_view,
    load_embedding_file,
    read_utf8,
    split_by_counts,
)
from .engine import TrainConfig
from .errors import BoundError, ConfigError, FormatError
from .generator import PerturbConfig
from .settings import declare, settings_of


# The keys that set no TrainConfig or PerturbConfig field; those that do are
# declared on the fields.
_OTHER_KEYS = [
    declare("data.source", "synthetic", "synthetic | files", "synthetic | files"),
    declare("data.n", 2540, "total synthetic rows", ">= 1"),
    declare("data.classes", 4, "number of classes", ">= 2"),
    declare("data.d1", 16, "view-1 embedding dimension", ">= 1"),
    declare("data.d2", 16, "view-2 embedding dimension", ">= 1"),
    declare("data.view_noise", 0.6, "per-coordinate Gaussian view noise", ">= 0"),
    declare("data.label_noise", 0.0, "fraction of labels flipped", "[0, 1]"),
    declare("data.seed", 7, "dataset generation + split seed", ">= 0"),
    declare("data.n_labeled", 40, "labeled budget (validation included)", ">= 2"),
    declare("data.n_validation", 4, "validation rows, taken from the labeled budget", ">= 1"),
    declare("data.n_test", 500, "held-out test rows", ">= 0"),
    declare("data.view1", "", "view-1 embeddings path (files mode)"),
    declare("data.view2", "", "view-2 embeddings path (files mode)"),
    declare("data.labels", "", "labels path (files mode)"),
    declare("train.seeds", [1, 2, 3], "training seeds, comma separated", ">= 0"),
    declare("game.epsilon_grid", [], "generator deviation budgets, empty = training epsilon", "> 0"),
    declare("game.budget_epochs", 2, "student best-response retraining epochs", ">= 0"),
    declare("game.budget_seed", 97, "student best-response retraining seed", ">= 0"),
    declare("game.probe_size", 256, "probe batch rows for payoffs", ">= 1"),
    declare("game.tolerance", 1e-2, "grid-Nash residual tolerance", ">= 0"),
]
_FIELDS = {**settings_of(PerturbConfig), **settings_of(TrainConfig)}
SCHEMA = {s.key: s for s in [*_OTHER_KEYS, *_FIELDS.values()]}


@dataclass
class RunConfig:
    """Fully resolved configuration with provenance for error messages."""

    values: dict = field(default_factory=dict)
    origin: dict = field(default_factory=dict)  # key -> its line in the file, or None

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self):
        """Check every bound and every rule between keys; name the key and its line."""
        try:
            self._check()
        except BoundError as exc:
            keys = [_FIELDS[n].key if n in _FIELDS else n for n in exc.names]
            raise self._error(exc, keys) from None

    def _error(self, exc: BoundError, keys: list[str]) -> ConfigError:
        return ConfigError(exc.template.format(*keys), self.origin[keys[0]])

    def _check(self):
        v = self.values
        for s in _OTHER_KEYS:
            s.check(v[s.key], s.key)
        synthetic = v["data.source"] == "synthetic"
        for key in ("data.view1", "data.view2", "data.labels"):
            if not synthetic and not v[key]:
                raise BoundError("{0} is required when {1} = files", key, "data.source")
        if synthetic and v["data.n_validation"] < v["data.classes"]:
            raise BoundError("{0} must be >= {1}", "data.n_validation", "data.classes")
        if v["data.n_labeled"] <= v["data.n_validation"]:
            raise BoundError("{0} must be > {1}", "data.n_labeled", "data.n_validation")
        if synthetic and v["data.n"] <= v["data.n_labeled"] + v["data.n_test"]:
            raise BoundError("{0} must be > {1} + {2}", "data.n", "data.n_labeled", "data.n_test")
        seeds = v["train.seeds"]
        if not seeds or len(set(seeds)) < len(seeds):
            raise BoundError("{0} must list at least one seed, each once", "train.seeds")
        # The fields' own bounds and the rules between them.
        self.train_config(seeds[0])

    # -- builders

    def _fields(self, cls) -> dict:
        return {name: self.values[s.key] for name, s in settings_of(cls).items()}

    def train_config(self, seed: int) -> TrainConfig:
        perturb = PerturbConfig(**self._fields(PerturbConfig))
        return TrainConfig(seed=seed, perturb=perturb, **self._fields(TrainConfig))

    def _data_args(self, *names) -> dict:
        return {name: self.values[f"data.{name}"] for name in names}

    def synthetic_dataset(self) -> TwoViewDataset:
        """The unsplit synthetic dataset; each data.* key names its argument."""
        names = ("n", "classes", "d1", "d2", "view_noise", "label_noise", "seed")
        return gen_synthetic_two_view(**self._data_args(*names))

    def build_dataset(self) -> TwoViewDataset:
        """The split dataset, with labeled, unlabeled and validation rows.
        Files-mode budgets are checked against the loaded labels here, since
        parsing cannot see them."""
        v = self.values
        if v["data.source"] == "synthetic":
            ds = self.synthetic_dataset()
        else:
            ds = load_embedding_file(v["data.view1"], v["data.view2"], v["data.labels"])
        budgets = self._data_args("n_labeled", "n_validation", "n_test", "seed")
        try:
            split = split_by_counts(ds, **budgets)
            if not split.indices(UNLABELED).size:
                rows = int((ds.labels >= 0).sum())
                rule = f"{{1}} + {{0}} must be < {rows}, the labeled rows, so some stay unlabeled"
                raise BoundError(rule, "n_test", "n_labeled")
            return split
        except BoundError as exc:
            raise self._error(exc, [f"data.{n}" for n in exc.names]) from None

    def echo(self) -> dict:
        return {k: list(v) if isinstance(v, list) else v for k, v in sorted(self.values.items())}


def echo_overrides(echo: dict) -> list[tuple[str, str]]:
    """The (key, value) overrides that rebuild a configuration from its ``echo()``."""
    return [(k, ",".join(map(str, v)) if isinstance(v, list) else str(v)) for k, v in echo.items()]


def _apply(config: RunConfig, key: str, raw: str, line: int | None):
    if key not in SCHEMA:
        raise ConfigError(f"unknown key {key!r}", line)
    try:
        config.values[key] = SCHEMA[key].parse(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line) from exc
    config.origin[key] = line


def parse_config(path=None, overrides: list[tuple[str, str]] | None = None,
                 report=None) -> RunConfig:
    """Resolve defaults, then the configuration echoed in ``report`` (a run's
    ``report.json``), then the file, then flag overrides, then validate. A fault
    in the report is a ``ConfigError`` that names it."""
    config = RunConfig({key: s.default for key, s in SCHEMA.items()}, dict.fromkeys(SCHEMA))
    if report is not None:
        try:
            stored = json.loads(Path(report).read_text(encoding="utf-8"))
            if not isinstance(stored, dict) or not isinstance(stored.get("config"), dict):
                raise ConfigError("expected a JSON object whose 'config' is an object")
            for key, raw in echo_overrides(stored["config"]):
                _apply(config, key, raw, None)
        except ValueError as exc:  # not UTF-8, not JSON, or a ConfigError
            raise ConfigError(f"{report}: {exc}") from None
    if path is not None:
        try:
            text = read_utf8(path)
        except FormatError as exc:
            raise ConfigError(exc.message, exc.line) from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected 'key = value', got {line.rstrip()!r}", lineno)
            key, raw = body.split("=", 1)
            _apply(config, key.strip(), raw, lineno)
    for key, raw in overrides or []:
        _apply(config, key, raw, None)
    config.validate()
    return config
