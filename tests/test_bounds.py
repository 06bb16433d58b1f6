from __future__ import annotations

import math

import pytest

from cbsbounds import (
    BoundInputs,
    analytic_size_bound,
    bound_mdd_exponential,
    bound_original,
    bound_rec_genfunc,
    bound_rec_induction,
    compare,
    display_exponent,
    eval_exact,
    layer_bound,
    log2_of_int,
    radius_size_bound,
    Log2Value,
)

# the standard benchmark rows the comparison table reproduces
BENCHMARK_ROWS = [
    ("warehouse-a", 9776, 8, 120),
    ("warehouse-b", 9776, 64, 140),
    ("warehouse-c", 38756, 128, 250),
    ("warehouse-d", 38756, 256, 250),
    ("room-a", 206642, 8, 400),
    ("room-b", 206642, 8, 500),
    ("empty-a", 2304, 64, 70),
    ("empty-b", 2304, 128, 80),
    ("random-a", 3687, 64, 100),
    ("random-b", 3687, 128, 100),
]


class TestOriginal:
    def test_flagship_row(self):
        v = bound_original(BoundInputs(n=9776, k=8, C=120))
        assert v.log2 == 9_384_960.0
        assert math.ceil(math.log10(v.log2)) == 7

    def test_unit_inputs(self):
        assert bound_original(BoundInputs(n=1, k=1, C=1)).log2 == 1.0

    def test_grid_edge_mode_multiplies_by_nine(self):
        base = bound_original(BoundInputs(n=9776, k=8, C=120))
        grid = bound_original(BoundInputs(n=9776, k=8, C=120, edge_mode="grid"))
        assert grid.log2 == 9 * base.log2

    def test_general_edge_mode(self):
        n = 50
        v = bound_original(BoundInputs(n=n, k=2, C=3, edge_mode="general"))
        assert v.log2 == (2 * n * n + n) * 2 * 3


class TestMddExponential:
    def test_unit(self):
        assert bound_mdd_exponential(1, 1).log2 == 1.0

    def test_cubic_bound_realization(self):
        # M from the cubic grid bound at C=120, doubled-checked by layer sums
        m = 2 * sum(layer_bound(t) for t in range(1, 61))
        assert m == 302_560
        assert bound_mdd_exponential(8, analytic_size_bound(120)).log2 == 8.0 * m

    def test_radius_bound_realization(self):
        v = bound_mdd_exponential(8, radius_size_bound(60, 0, 3721))
        assert v.log2 == 8.0 * (4 * 60 * 61 * 62 // 3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bound_mdd_exponential(0, 5)


class TestRecurrenceBounds:
    def test_induction_flagship_row(self):
        inputs = BoundInputs(n=9776, k=8, C=120)
        expected = 960 * math.log2(8 * 9776 * 120) + math.log2(3)
        assert bound_rec_induction(inputs).log2 == pytest.approx(expected, rel=1e-12)

    def test_induction_minimal(self):
        assert bound_rec_induction(BoundInputs(n=1, k=1, C=1, M=1)).log2 == (
            pytest.approx(math.log2(3))
        )

    def test_induction_dominates_exact_recurrence(self):
        inputs = BoundInputs(n=4, k=1, C=2, M=8)
        r, s = 1 * 8, 1 * 2
        assert log2_of_int(eval_exact(r, s)) <= bound_rec_induction(inputs).log2

    def test_genfunc_flagship_row(self):
        inputs = BoundInputs(n=9776, k=8, C=120)
        expected = 960 * math.log2(math.e * 9776)
        assert bound_rec_genfunc(inputs).log2 == pytest.approx(expected, rel=1e-12)

    def test_genfunc_minimal(self):
        v = bound_rec_genfunc(BoundInputs(n=4, k=1, C=1))
        assert v.log2 == pytest.approx(math.log2(4 * math.e), rel=1e-12)

    def test_genfunc_validity_range(self):
        with pytest.raises(ValueError, match="validity range"):
            bound_rec_genfunc(BoundInputs(n=3, k=1, C=1))

    def test_genfunc_edge_modes(self):
        base = BoundInputs(n=100, k=2, C=5)
        grid = BoundInputs(n=100, k=2, C=5, edge_mode="grid")
        general = BoundInputs(n=100, k=2, C=5, edge_mode="general")
        assert bound_rec_genfunc(grid).log2 == pytest.approx(
            10 * math.log2(9 * math.e * 100)
        )
        assert bound_rec_genfunc(general).log2 == pytest.approx(
            10 * math.log2(math.e * (2 * 100**2 + 100))
        )
        assert bound_rec_genfunc(base).log2 < bound_rec_genfunc(grid).log2

    def test_grid_mdd_variant(self):
        inputs = BoundInputs(n=100, k=2, C=5)
        assert bound_rec_genfunc(inputs, grid_mdd=True).log2 == pytest.approx(
            2 * 10 * math.log2(math.e * 5)
        )

    def test_genfunc_below_induction_for_default_m(self):
        for _, n, k, c in BENCHMARK_ROWS:
            inputs = BoundInputs(n=n, k=k, C=c)
            assert bound_rec_genfunc(inputs).log2 <= bound_rec_induction(inputs).log2


class TestCompare:
    def test_strict_ordering_on_benchmark_rows(self):
        for _, n, k, c in BENCHMARK_ROWS:
            d = compare(BoundInputs(n=n, k=k, C=c))
            assert d["org_log2"] > d["rec_ind_log2"] > d["rec_gf_log2"]

    def test_ratio_is_log_difference(self):
        d = compare(BoundInputs(n=9776, k=8, C=120))
        assert d["ratio_log2"] == pytest.approx(d["org_log2"] - d["rec_gf_log2"])

    def test_display_exponent_row7(self):
        d = compare(BoundInputs(n=2304, k=64, C=70))
        assert d["org_log2"] == 10_321_920.0
        assert d["org_exp10"] == 8

    def test_degenerate_row_renders(self):
        d = compare(BoundInputs(n=4, k=1, C=1))
        assert d["n"] == 4 and "org_log2" in d

    def test_radius_bound_inclusion(self):
        with_radius = compare(BoundInputs(n=3721, k=8, C=120), radius=60)
        assert "radius_bound_log2" in with_radius
        assert with_radius["radius_bound_log2"] == 8.0 * 302_560
        too_short = compare(BoundInputs(n=3721, k=8, C=119), radius=60)
        assert "radius_bound_log2" not in too_short

    def test_soc_mode_identical(self):
        mk = compare(BoundInputs(n=9776, k=8, C=120))
        soc = compare(BoundInputs(n=9776, k=8, C=120, objective="soc"))
        assert soc["org_log2"] == mk["org_log2"]
        assert soc["rec_ind_log2"] == mk["rec_ind_log2"]
        assert soc["rec_gf_log2"] == mk["rec_gf_log2"]


class TestValidation:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(n=0, k=1, C=1)
        with pytest.raises(ValueError):
            BoundInputs(n=1, k=1, C=1, M=0)
        with pytest.raises(ValueError):
            BoundInputs(n=1, k=1, C=1, edge_mode="diagonal")
        with pytest.raises(ValueError):
            BoundInputs(n=1, k=1, C=1, objective="fuel")

    def test_display_exponent_requires_positive(self):
        with pytest.raises(ValueError):
            display_exponent(Log2Value(0.0))
