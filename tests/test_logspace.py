from __future__ import annotations

import math
import random
import re

import pytest

from cbsbounds import (
    BoundInputs,
    approx_linear,
    contribution_multiple,
    contribution_single,
    eval_log,
    log2_add,
    log2_of_int,
    solve_critical_points,
)
from cbsbounds.genfunc import q1


def test_log2_of_int_small():
    for n in (1, 2, 3, 10, 1023):
        assert log2_of_int(n) == pytest.approx(math.log2(n), rel=1e-15)


def test_log2_of_int_huge():
    n = (1 << 5000) + 12345
    assert log2_of_int(n) == pytest.approx(5000.0, abs=1e-9)
    assert log2_of_int(3 << 10_000) == pytest.approx(10_000 + math.log2(3), abs=1e-9)


def test_log2_of_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_of_int(0)


def test_log2_add_matches_direct():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.uniform(-20, 20), rng.uniform(-20, 20)
        direct = math.log2(2.0**a + 2.0**b)
        assert log2_add(a, b) == pytest.approx(direct, abs=1e-12)


def test_log2_add_commutative_associative():
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.uniform(-50, 1e6) for _ in range(3))
        assert log2_add(a, b) == pytest.approx(log2_add(b, a), abs=1e-9)
        left = log2_add(log2_add(a, b), c)
        right = log2_add(a, log2_add(b, c))
        assert left == pytest.approx(right, abs=1e-9)


def test_log2_add_extreme_spread():
    assert log2_add(1e9, 0.0) == 1e9


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: BoundInputs(n=5, k=1, C=1, M=10**400), "M"),
        (lambda: eval_log(10**400, 2), "r"),
        (lambda: solve_critical_points(3, 10**400), "s"),
        (lambda: contribution_multiple(q1(), 10**400, 3), "r"),
        (lambda: contribution_single(solve_critical_points(10, 3)[-1], 10, 10**400), "s"),
        (lambda: approx_linear(10**200, 10**200), "n * s"),
        (lambda: BoundInputs(n=5, k=10**200, C=1, M=10**200), "k * M"),
        (
            lambda: BoundInputs(n=1, k=10**100, C=10**70),
            "k * analytic_size_bound(C)",
        ),
    ],
    ids=[
        "bounds-M",
        "eval_log-r",
        "points-s",
        "multiple-r",
        "single-s",
        "linear-ns",
        "bounds-kM",
        "bounds-k-cube",
    ],
)
def test_past_float_range_names_the_argument(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} is past float range"):
        call()
