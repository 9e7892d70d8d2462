"""Row-wise probability kernels, keyed random streams and the finite-difference
gradient oracle.

All quantities are float64 and all logarithms are natural, so entropies are
reported in nats. The row kernels (``row_max``, ``softmax_rows``,
``entropy_rows``) validate nothing, for use in hot loops.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import InvalidInputError, OracleFailureError

# Floor applied inside logs of probabilities. Keeps -log(p) finite on
# saturated softmax outputs without perturbing well-conditioned values.
PROB_FLOOR = 1e-12


def stream(*key: int) -> np.random.Generator:
    """The random stream of one key of ints: ``default_rng(SeedSequence(key))``."""
    return np.random.default_rng(np.random.SeedSequence(key))


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


def softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax for an (n, c) array. No input validation.

    ``out``, which may be ``logits`` itself, receives the result.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.subtract(z, row_max(z)[..., None], out=out)
    np.exp(e, out=e)
    # Sums, unlike maxima, depend on their order: numpy adds 8 or more
    # classes pairwise, so the row sum stays one reduction.
    e /= e.sum(axis=-1, keepdims=True)
    return e


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise entropy of an (n, c) array of distributions. No validation."""
    q = np.asarray(p, dtype=np.float64)
    # Only p <= 0 is dead: a NaN probability keeps the row's entropy NaN.
    terms = np.where(q <= 0.0, 0.0, q * np.log(np.maximum(q, PROB_FLOOR)))
    return -terms.sum(axis=-1)


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
