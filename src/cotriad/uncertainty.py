"""MC-dropout predictive statistics and pseudo-label filtering.

Mutual information here is the dropout-disagreement form: entropy of the mean
predictive distribution minus the mean of the per-pass entropies. It is zero
when all passes agree and grows with epistemic disagreement, bounded above by
ln(n_classes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import entropy_rows, row_max


def batch_statistics(probs: np.ndarray) -> "BatchUncertainty":
    """Per-sample statistics for an (n_passes, n, c) array of softmax outputs.

    MI is clamped to be nonnegative: Jensen's inequality guarantees it
    analytically, the clamp only absorbs floating-point rounding. Argmax ties
    in the pseudo-label break toward the lowest class index.
    """
    try:
        arr = np.asarray(probs, dtype=np.float64)
    except ValueError as exc:
        raise InvalidInputError(f"inconsistent sample shapes: {exc}") from exc
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise InvalidInputError("expected an (n_passes, n, c) array")
    mean = arr.mean(axis=0)
    pe = entropy_rows(mean)
    ee = entropy_rows(arr.reshape(-1, arr.shape[2])).reshape(arr.shape[0], -1).mean(axis=0)
    mi = np.maximum(0.0, pe - ee)
    return BatchUncertainty(
        mean=mean,
        predictive_entropy=pe,
        expected_entropy=ee,
        mi=mi,
        pseudo_label=np.argmax(mean, axis=1),
    )


@dataclass(frozen=True)
class BatchUncertainty:
    """Per-sample MC-dropout statistics of a batch, one array per field."""

    mean: np.ndarray  # (n, c)
    predictive_entropy: np.ndarray  # (n,)
    expected_entropy: np.ndarray  # (n,)
    mi: np.ndarray  # (n,)
    pseudo_label: np.ndarray  # (n,)

    def __len__(self) -> int:
        return self.mi.shape[0]


def mi_filter(
    stats: BatchUncertainty, threshold: float, direction: str = "above"
) -> tuple[np.ndarray, float]:
    """Accepted index set under a strict MI threshold, plus the mask rate.

    ``direction="above"`` accepts mi > threshold; ``"below"`` accepts
    mi < threshold, which is the reading that discards epistemically
    unreliable pseudo-labels. Ties at exactly the threshold are rejected
    either way. Returns (indices, mask_rate) with mask_rate = rejected
    fraction.
    """
    mi = stats.mi
    if direction == "above":
        accepted = np.flatnonzero(mi > threshold)
    elif direction == "below":
        accepted = np.flatnonzero(mi < threshold)
    else:
        raise InvalidInputError(f"unknown filter direction {direction!r}")
    n = mi.shape[0]
    mask_rate = 1.0 - accepted.size / n if n else 0.0
    return accepted, float(mask_rate)


def confidence_mask(stats: BatchUncertainty, threshold: float) -> np.ndarray:
    """Bool mask of the rows whose mean-distribution confidence >= threshold."""
    if not 0.0 < threshold < 1.0 and threshold != 1.0:
        raise InvalidInputError("confidence threshold must lie in (0, 1]")
    return row_max(stats.mean) >= threshold


def confidence_filter(stats: BatchUncertainty, threshold: float) -> np.ndarray:
    """Baseline filter: indices whose mean-distribution confidence >= threshold."""
    return np.flatnonzero(confidence_mask(stats, threshold))


def impurity(
    pseudo_labels: np.ndarray, accepted: np.ndarray, true_labels: np.ndarray
) -> float:
    """Fraction of accepted pseudo-labels that disagree with the true label.

    NaN when the accepted set is empty or no true labels are available
    (label -1 marks unknown).
    """
    accepted = np.asarray(accepted, dtype=np.int64)
    if accepted.size == 0:
        return float("nan")
    truth = np.asarray(true_labels)[accepted]
    known = truth >= 0
    if not np.any(known):
        return float("nan")
    wrong = np.asarray(pseudo_labels)[accepted][known] != truth[known]
    return float(wrong.mean())
