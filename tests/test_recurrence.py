from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest

from cbsbounds import (
    LOG2_3,
    eval_exact,
    eval_log,
    induction_bound,
    log2_of_int,
)
from cbsbounds import recurrence
from oracles import naive_recurrence, recurrence_log2_floor, recurrence_table


class TestExactBackend:
    def test_base_cases(self):
        assert eval_exact(0, 5) == 1
        assert eval_exact(7, 0) == 1
        assert eval_exact(1, 9) == 3
        assert eval_exact(0, 0) == 1

    def test_small_unrolled_value(self):
        # T(2,1) = T(1,1) + T(0,0) + 1 = 3 + 1 + 1
        assert eval_exact(2, 1) == 5

    def test_single_positive_budget_row(self):
        for r in range(1, 51):
            assert eval_exact(r, 1) == 2 * r + 1
            assert eval_exact(r, 1) == naive_recurrence(r, 1)

    def test_matches_naive_recursion(self):
        rng = random.Random(2)
        for _ in range(30):
            r, s = rng.randint(0, 60), rng.randint(0, 25)
            assert eval_exact(r, s) == naive_recurrence(r, s)

    def test_table_matches_pointwise(self):
        table = recurrence_table(25, 12)
        for r in (0, 1, 7, 25):
            for s in (0, 3, 12):
                assert table[r][s] == eval_exact(r, s)

    def test_monotone_in_both_budgets(self):
        for r in range(40):
            for s in range(12):
                assert eval_exact(r, s) <= eval_exact(r + 1, s)
                assert eval_exact(r, s) <= eval_exact(r, s + 1)

    def test_ceiling_directs_to_log_backend(self):
        with pytest.raises(ValueError, match="eval_log"):
            eval_exact(2000, 2000)

    def test_ceiling_counts_only_nonzero_terms(self):
        # T(10, s) = 287 for every s >= 5; the limit sees 3 * 10**min(s, 6)
        assert eval_exact(10, 10**9) == 287 == naive_recurrence(10, 6)

    def test_ceiling_measures_output_bits(self):
        # log2(3 * r**s) at r = 2**20 is 1.58 + 20 s: s = 409 fits 2**13 bits,
        # s = 410 does not
        value = eval_exact(2**20, 409)
        assert 0 < value.bit_length() <= 2**13
        assert log2_of_int(value) == pytest.approx(eval_log(2**20, 409).log2, rel=1e-9)
        with pytest.raises(ValueError, match="eval_log"):
            eval_exact(2**20, 410)

    def test_cheap_values_past_a_cell_count(self):
        assert eval_exact(10**7, 1) == 2 * 10**7 + 1
        assert len(str(eval_exact(100_000, 100))) == 343

    def test_edge_of_a_million_cells_admitted(self):
        # r * min(s, r // 2 + 1) <= 10**6 implies min(s, r // 2 + 1) * log2 r
        # <= 7400, so every such query stays under 2**13 bits
        assert eval_exact(10**6, 1) == 2 * 10**6 + 1
        value = eval_exact(1413, 707)
        assert log2_of_int(value) == pytest.approx(eval_log(1413, 707).log2, rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eval_exact(-1, 2)

    def test_matches_table_on_every_cell(self):
        table = recurrence_table(200, 60)
        for r in range(201):
            for s in range(61):
                assert eval_exact(r, s) == table[r][s], (r, s)

    def test_saturates_once_positive_budget_reaches_r(self):
        # each positive constraint spends two negative ones, so T(r, s) stops
        # growing once s reaches about r / 2
        for r in range(13):
            for s in range(r, 41):
                assert eval_exact(r, s) == eval_exact(r, 2 * r), (r, s)


class TestLogBackend:
    def test_base_cases(self):
        assert eval_log(1, 4).log2 == pytest.approx(LOG2_3, abs=1e-12)
        assert eval_log(0, 9).log2 == 0.0
        assert eval_log(9, 0).log2 == 0.0

    def test_agreement_with_exact(self):
        for r, s in ((5, 5), (40, 20), (123, 17), (300, 40)):
            exact = log2_of_int(eval_exact(r, s))
            approx = eval_log(r, s).log2
            assert abs(approx - exact) <= 1e-6 * max(1.0, exact)

    def test_matches_table_on_every_cell(self):
        table = recurrence_table(200, 60)
        for r in range(201):
            for s in range(61):
                exact = log2_of_int(table[r][s])
                assert eval_log(r, s).log2 == pytest.approx(exact, rel=1e-9), (r, s)

    def test_single_positive_budget_at_huge_r(self):
        for r in (10**7, 10**9, 10**12, 10**15):
            assert eval_log(r, 1).log2 == pytest.approx(math.log2(2 * r + 1), rel=1e-12)

    def test_huge_positive_budget_is_cheap(self):
        saturated = log2_of_int(recurrence_table(10, 20)[10][20])
        start = time.perf_counter()
        value = eval_log(10, 10**9)
        assert time.perf_counter() - start < 1.0
        assert value.log2 == pytest.approx(saturated, rel=1e-9)

    def test_term_limit_refuses_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limited to"):
            eval_log(10**12, 10**6 + 1)
        assert time.perf_counter() - start < 0.1
        # the limit counts min(s, r // 2 + 1), not s
        assert eval_log(10, 10**6 + 1).log2 == pytest.approx(math.log2(287), rel=1e-12)

    def test_blocked_sum_matches_table(self, monkeypatch):
        table = recurrence_table(80, 30)
        whole = {(r, s): eval_log(r, s).log2 for r in (10**9, 10**12) for s in (500, 5000)}
        monkeypatch.setattr(recurrence, "_LOG_BLOCK_TERMS", 3)
        for r in range(81):
            for s in range(31):
                exact = log2_of_int(table[r][s])
                assert eval_log(r, s).log2 == pytest.approx(exact, rel=1e-9), (r, s)
        for r in (10**7, 10**12):
            assert eval_log(r, 1).log2 == pytest.approx(math.log2(2 * r + 1), rel=1e-12)
        for (r, s), value in whole.items():
            assert eval_log(r, s).log2 == pytest.approx(value, rel=1e-12), (r, s)

    def test_memory_stays_constant(self):
        tracemalloc.start()
        try:
            value = eval_log(10**9, 8000)  # about 24,000 terms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value.log2)
        assert peak < 2**19

    def test_large_budgets_finite(self):
        value = eval_log(5000, 50)
        assert math.isfinite(value.log2)
        bound = induction_bound(5000, 50)
        assert value.log2 <= bound.log2


class TestInductionBound:
    def test_values(self):
        assert induction_bound(1, 7).log2 == pytest.approx(LOG2_3)
        assert induction_bound(10, 3).log2 == pytest.approx(math.log2(3000))

    def test_rejects_zero_budgets(self):
        with pytest.raises(ValueError):
            induction_bound(0, 3)
        with pytest.raises(ValueError):
            induction_bound(3, 0)

    def test_dominates_small_grid(self):
        for r in range(1, 61):
            for s in range(1, 13):
                assert eval_exact(r, s) <= 3 * r**s
        assert induction_bound(2, 1).log2 == pytest.approx(math.log2(6))
        assert math.log2(eval_exact(2, 1)) <= induction_bound(2, 1).log2


class TestRecurrenceFloorOracle:
    def test_floor_never_exceeds_naive_recursion(self):
        for r in range(61):
            for s in range(21):
                assert math.log2(naive_recurrence(r, s)) >= recurrence_log2_floor(r, s)

    def test_floor_is_log2_of_the_binomial(self):
        for r in range(61):
            for s in range(21):
                floor = recurrence_log2_floor(r, s)
                if r - s < s:
                    assert floor == -math.inf
                else:
                    assert floor == pytest.approx(math.log2(math.comb(r - s, s)), abs=1e-9)
