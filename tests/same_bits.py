"""Bit-for-bit comparison shared by the oracle tests."""

import numpy as np

from cotriad.student import Gradients


def same_bits(a, b) -> bool:
    """``np.array_equal`` with NaN equal to NaN and the sign of every zero kept;
    tuples compare entry by entry and ``Gradients`` by their vectors."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bits(u, v) for u, v in zip(a, b))
    if isinstance(a, Gradients):
        a, b = a.vector, b.vector
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b, equal_nan=True):
        return False
    known = ~np.isnan(a)
    return np.array_equal(np.signbit(a[known]), np.signbit(b[known]))
