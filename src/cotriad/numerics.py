"""Probability primitives and the finite-difference gradient oracle.

All quantities are float64 and all logarithms are natural, so entropies are
reported in nats. Probabilities passed to ``entropy``/``cross_entropy`` are
validated against the distribution invariants; internal row-wise helpers
(``row_max``, ``softmax_rows``, ``entropy_rows``) skip validation for use in
hot loops.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import InvalidInputError, OracleFailureError

# Floor applied inside logs of probabilities. Keeps -log(p) finite on
# saturated softmax outputs without perturbing well-conditioned values.
PROB_FLOOR = 1e-12

PROB_SUM_TOL = 1e-9


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax of a single logit vector."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError("softmax expects a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input must be finite")
    e = np.exp(z - z.max())
    return e / e.sum()


def row_max(z: np.ndarray) -> np.ndarray:
    """Maximum over the last axis, one column at a time.

    A maximum is exact in any order, so this equals ``z.max(axis=-1)`` bit for
    bit, NaN rows included; a reduction over a short axis costs far more per
    element than a few elementwise ``np.maximum`` calls over the rows.
    """
    m = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j], out=m)
    return m


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for an (n, c) array. No input validation."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - row_max(z)[..., None]
    np.exp(e, out=e)
    # Sums, unlike maxima, depend on their order: numpy adds 8 or more
    # classes pairwise, so the row sum stays one reduction.
    e /= e.sum(axis=-1, keepdims=True)
    return e


def check_prob_vector(p: np.ndarray) -> np.ndarray:
    """Validate the distribution invariants and return p as float64."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1 or q.size < 2:
        raise InvalidInputError("probability vector must have length >= 2")
    if not np.all(np.isfinite(q)):
        raise InvalidInputError("probability vector must be finite")
    if q.min() < 0.0 or q.max() > 1.0:
        raise InvalidInputError("probability entries must lie in [0, 1]")
    if abs(q.sum() - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError("probability entries must sum to 1")
    return q


def entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum p log p in nats, with 0 log 0 = 0."""
    q = check_prob_vector(p)
    return float(entropy_rows(q[None, :])[0])


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise entropy of an (n, c) array of distributions. No validation."""
    q = np.asarray(p, dtype=np.float64)
    # Only p <= 0 is dead: a NaN probability keeps the row's entropy NaN.
    terms = np.where(q <= 0.0, 0.0, q * np.log(np.maximum(q, PROB_FLOOR)))
    return -terms.sum(axis=-1)


def cross_entropy(p: np.ndarray, y: int) -> float:
    """Negative log-likelihood -log p[y] with the probability floor."""
    q = check_prob_vector(p)
    if not 0 <= int(y) < q.size:
        raise InvalidInputError(f"class index {y} out of range [0, {q.size})")
    return float(-np.log(max(q[int(y)], PROB_FLOOR)))


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one probe per coordinate.

    This is the independent oracle every analytic gradient in the package is
    checked against; it must never share code with the paths it certifies.
    """
    if h <= 0:
        raise InvalidInputError("finite difference step must be positive")
    x0 = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step.flat[i] = h
        fp = float(f(x0 + step))
        fm = float(f(x0 - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleFailureError(
                f"non-finite evaluation at coordinate {i}: f+={fp}, f-={fm}"
            )
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad
