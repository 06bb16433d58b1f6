from __future__ import annotations

import math
import random

import pytest

from cbsbounds import log2_add, log2_of_int


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
