"""Exact and log-space evaluation of the conflict-tree budget recurrence.

T(r, s) counts worst-case high-level nodes given budgets of r negative and s
positive constraints:

    T(r, s) = 1                                 if r = 0 or s = 0
    T(r, s) = 3                                 if r = 1 and s > 0
    T(r, s) = T(r-1, s) + T(r-2, s-1) + 1       otherwise

All steps are evaluated tight (with equality). Both backends evaluate a
closed form read off the generating function G/H, H = 1 - x - x^2 y. The
base cases and the +1 give the numerator

    G = 1 + sum_{c>=1} y^c (1 + 2x + x^2 + x^3 + ...),

and expanding

    1/H = sum_j (x + x^2 y)^j = sum_{r,b} C(r-b, b) x^r y^b

makes the coefficient of x^r y^s in G/H the sum of C(r-s, s) and, for each
b < s, C(r-b, b) + 2 C(r-1-b, b) + sum_{a>=2} C(r-a-b, b). The hockey-stick
identity folds sum_{a>=1} C(r-a-b, b) into C(r-b, b+1), which leaves, for
r, s >= 1,

    T(r, s) = sum_{b<=s} C(r-b, b) + sum_{b<s} [C(r-1-b, b) + C(r-b, b+1)].

Terms with j > n vanish, so each sum stops at b ~ r/2 and an evaluation costs
O(min(s, r/2)) binomials whatever r is. The exact backend sums arbitrary-
precision integers; the log2-space backend combines the logarithms of the
terms with a running log-sum-exp. Each evaluator has one fixed limit set by
its inputs: the exact value's size, or the log backend's term count. The
recurrence's O(r s) table is not computed here; the tests keep it as an
independent oracle for the closed form. The induction closed form 3 * r**s
dominates the recurrence.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

from .logspace import LN2, LOG2_3, Log2Value, check_float_range

_EXACT_MAX_BITS = 2**13
_LOG_MAX_TERMS = 10**6
_LOG_BLOCK_TERMS = 4096


def _check_args(r: int, s: int) -> None:
    if r < 0 or s < 0:
        raise ValueError("budgets must be nonnegative")


def _families(r: int, s: int) -> tuple[tuple[int, int, int], ...]:
    """The closed form's three sums as (n, j, count): the nonzero terms
    C(n-b, j+b) for b = 0..count-1. The sums also give the base cases
    T(r, 0) = T(0, s) = 1 and T(1, s) = 3."""
    tail = min(s - 1, (r - 1) // 2) + 1
    return ((r, 0, min(s, r // 2) + 1), (r - 1, 0, tail), (r, 1, tail))


def eval_exact(r: int, s: int) -> int:
    """Exact T(r, s) from the closed form, a sum of O(min(s, r/2)) binomials.

    The binomials vanish past b = r / 2, so T(r, s) = T(r, r // 2 + 1) for
    larger s. Refuses a query whose bound 3 * r**min(s, r // 2 + 1) exceeds
    2**13 bits, a limit on the size of the exact output; use
    :func:`eval_log` for those.
    """
    _check_args(r, s)
    if r and s:
        bits = induction_bound(r, min(s, r // 2 + 1)).log2
        if bits > _EXACT_MAX_BITS:
            raise ValueError(
                f"exact T({r}, {s}) may need {bits:.0f} bits, over the "
                f"{_EXACT_MAX_BITS}-bit limit; use eval_log"
            )
    return sum(
        math.comb(n - b, j + b) for n, j, count in _families(r, s) for b in range(count)
    )


def eval_log(r: int, s: int) -> Log2Value:
    """log2 of T(r, s) from the closed form, in O(min(s, r/2)) time.

    Each sum starts from an exact ln C(n, 0) = 0 or ln C(n, 1) = ln n and
    steps by the ratio C(n-1, j+1) / C(n, j) = (n-j)(n-j-1) / ((j+1) n), a
    correctly rounded integer quotient, so no step cancels; ln C by lgamma
    differences loses digits once n is large. A running log-sum-exp adds the
    terms in blocks of 4096, so memory stays constant; a query of at most
    that many terms is one plain log-sum-exp. Refuses min(s, r // 2 + 1) >
    10**6, which would sum millions of terms, and r past float range.
    """
    _check_args(r, s)
    check_float_range(r=r)
    if min(s, r // 2 + 1) > _LOG_MAX_TERMS:
        raise ValueError(
            f"log T({r}, {s}) sums about 3 * min(s, r // 2 + 1) terms; "
            f"min(s, r // 2 + 1) is limited to {_LOG_MAX_TERMS}"
        )
    if r == 0 or s == 0:
        return Log2Value(0.0)
    if r == 1:
        return Log2Value(LOG2_3)
    terms = _log_terms(r, s)
    top, total = -math.inf, 0.0
    while block := list(islice(terms, _LOG_BLOCK_TERMS)):
        block_top = max(block)
        block_sum = math.fsum(math.exp(v - block_top) for v in block)
        if block_top > top:
            total = total * math.exp(top - block_top) + block_sum
            top = block_top
        else:
            total += block_sum * math.exp(block_top - top)
    return Log2Value((top + math.log(total)) / LN2)


def _log_terms(r: int, s: int) -> Iterator[float]:
    """ln of each nonzero term of the closed form, family by family."""
    for n, j, count in _families(r, s):
        v = math.log(math.comb(n, j))
        yield v
        for _ in range(count - 1):
            v += math.log((n - j) * (n - j - 1) / ((j + 1) * n))
            n, j = n - 1, j + 1
            yield v


def induction_bound(r: int, s: int) -> Log2Value:
    """log2 of the closed-form dominating bound 3 * r**s (stated for
    r >= 1, s >= 1 only)."""
    if r < 1 or s < 1:
        raise ValueError("induction bound requires r >= 1 and s >= 1")
    return Log2Value(LOG2_3 + s * math.log2(r))
