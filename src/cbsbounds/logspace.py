"""Base-2 log-space magnitudes.

Bound values in this package routinely reach 2**(10**7) and beyond, far past
the range of any fixed-width number type, so every bound is carried as its
base-2 logarithm, a :class:`Log2Value`. Callers do their arithmetic on
``.log2``: a product is a sum of logs, and :func:`log2_add` adds two
magnitudes with log-sum-exp so nothing ever overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LN2 = math.log(2.0)
LOG2_3 = math.log2(3.0)


def log2_of_int(n: int) -> float:
    """log2 of a positive integer, accurate to double precision at any size."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log2(n)
    # keep the top 64 bits; the discarded tail perturbs log2 by < 2**-60
    shift = bits - 64
    return math.log2(n >> shift) + shift


def check_float_range(**args: int | None) -> None:
    """Refuse, by name, the first argument past float range: the log2
    arithmetic multiplies floats by these integers."""
    for name, value in args.items():
        try:
            float(value or 0)
        except OverflowError:
            raise ValueError(
                f"{name} is past float range (at most about 1.8e308)"
            ) from None


def log2_add(a: float, b: float) -> float:
    """log2(2**a + 2**b) without forming either power."""
    if a < b:
        a, b = b, a
    diff = a - b
    if diff > 1074.0:
        return a
    return a + math.log1p(2.0 ** (-diff)) / LN2


@dataclass(frozen=True)
class Log2Value:
    """A positive magnitude represented by its base-2 logarithm."""

    log2: float
