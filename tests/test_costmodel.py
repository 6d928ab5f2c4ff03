import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsilab import (
    CostFactors,
    equivalent_time,
    fit_cost_factors,
    fit_coupling_cost,
    fit_solver_cost,
    mape_maxape,
    rmse,
    rrmse,
)
from fsilab.errors import ContractError, RankDeficiencyError

# published cost factors (tube case, both frameworks)
FE_FE_TUBE = CostFactors(c_couple=0.1873, c_fix_f=0.6459, c_iter_f=1.4756,
                         c_fix_s=0.0128, c_iter_s=0.2076)
FV_FE_TUBE = CostFactors(c_couple=0.0795, c_fix_f=1.1542, c_iter_f=0.1068,
                         c_fix_s=0.1587, c_iter_s=0.2510)


class TestEquivalentTime:
    def test_published_fe_fe_tube_cell(self):
        assert FE_FE_TUBE.gamma() == pytest.approx(0.8460, abs=5e-5)
        cell = equivalent_time((920, 920, 920), FE_FE_TUBE)
        ref = equivalent_time((755, 1321, 1647), FE_FE_TUBE)
        assert cell == pytest.approx(2326.9, abs=0.05)
        assert ref == pytest.approx(2930.0, abs=0.1)
        assert round(cell / ref, 2) == 0.79

    def test_published_fv_fe_tube_cell(self):
        assert FV_FE_TUBE.gamma() == pytest.approx(1.3924, abs=5e-5)
        cell = equivalent_time((1189, 11457, 2175), FV_FE_TUBE)
        ref = equivalent_time((1028, 21282, 2543), FV_FE_TUBE)
        assert cell / ref == pytest.approx(0.789, abs=5e-4)
        assert round(cell / ref, 2) == 0.79

    def test_zero_counters(self):
        assert equivalent_time((0, 0, 0), FE_FE_TUBE) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            equivalent_time((-1, 0, 0), FE_FE_TUBE)

    @given(st.integers(0, 10000), st.integers(0, 10000), st.integers(0, 10000),
           st.floats(0.1, 8.0))
    def test_linearity_and_scale_invariant_ratio(self, n_c, n_f, n_s, scale):
        base = equivalent_time((n_c, n_f, n_s), FV_FE_TUBE)
        doubled = equivalent_time((2 * n_c, 2 * n_f, 2 * n_s), FV_FE_TUBE)
        assert doubled == pytest.approx(2 * base, rel=1e-12, abs=1e-12)
        factors = CostFactors(*(scale * x for x in astuple(FV_FE_TUBE)))
        scaled = equivalent_time((n_c, n_f, n_s), factors)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 10000), st.integers(0, 10000), st.integers(0, 10000))
    def test_timing_buckets_sum_to_equivalent_time(self, n_c, n_f, n_s):
        for factors in (FE_FE_TUBE, FV_FE_TUBE):
            t_f, t_s, t_c = factors.timings(n_c, n_f, n_s)
            assert t_f + t_s + t_c == pytest.approx(
                equivalent_time((n_c, n_f, n_s), factors), rel=1e-12, abs=0.0)


def normal_equations_oracle(samples):
    data = np.asarray(samples, dtype=float)
    x = data[:, :2]
    t = data[:, 2]
    return np.linalg.solve(x.T @ x, x.T @ t)


class TestFitSolverCost:
    def test_exact_recovery(self):
        rng = np.random.default_rng(11)
        n_c = rng.integers(50, 500, size=12)
        n_p = rng.integers(100, 5000, size=12)
        t = n_c * 0.9 + n_p * 0.07
        c_fix, c_iter = fit_solver_cost(list(zip(n_c, n_p, t)))
        assert c_fix == pytest.approx(0.9, abs=1e-12)
        assert c_iter == pytest.approx(0.07, abs=1e-12)

    def test_hand_samples_against_normal_equations_oracle(self):
        # over-determined hand samples: the QR path must agree with the
        # brute-force normal equations, perturbed or not
        for samples in ([(10, 100, 17.0), (20, 150, 28.5), (5, 300, 25.5)],
                        [(10, 100, 17.1), (20, 150, 28.5), (5, 300, 25.5)]):
            oracle = normal_equations_oracle(samples)
            assert fit_solver_cost(samples) == pytest.approx(tuple(oracle), abs=1e-12)

    def test_consistent_hand_samples_recovered_exactly(self):
        samples = [(10, 100, 17.0), (20, 150, 30.5), (5, 300, 26.0)]
        assert fit_solver_cost(samples) == pytest.approx((1.0, 0.07), abs=1e-12)

    def test_collinear_design_rejected(self):
        with pytest.raises(RankDeficiencyError):
            fit_solver_cost([(10, 30, 1.0), (20, 60, 2.0), (40, 120, 4.1)])

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        n_c = rng.integers(10, 400, size=15)
        n_p = rng.integers(10, 9000, size=15)
        t = n_c * 0.8 + n_p * 0.05 + rng.normal(0, 0.3, size=15)
        c_fix, c_iter = fit_solver_cost(list(zip(n_c, n_p, t)))
        x = np.column_stack([n_c, n_p]).astype(float)
        res = t - x @ np.array([c_fix, c_iter])
        assert np.linalg.norm(x.T @ res) <= 1e-10 * np.linalg.norm(x.T @ t)


class TestFitCouplingCost:
    def test_single_sample(self):
        assert fit_coupling_cost([(100, 8.0)]) == pytest.approx(0.08)

    def test_published_slope_recovered_exactly(self):
        slope = 0.0795
        samples = [(n, slope * n) for n in (150, 400, 980, 2200)]
        assert fit_coupling_cost(samples) == pytest.approx(slope, abs=1e-15)

    def test_closed_form_two_samples(self):
        assert fit_coupling_cost([(10, 1.0), (20, 1.0)]) == pytest.approx(0.06)

    def test_all_zero_counts(self):
        with pytest.raises(RankDeficiencyError):
            fit_coupling_cost([(0, 1.0), (0, 2.0)])


class TestFitCostFactors:
    def test_collinear_counters_rejected_with_guidance(self):
        samples = [(n_c, n_f, n_s) + FV_FE_TUBE.timings(n_c, n_f, n_s)
                   for n_c, n_f, n_s in [(10, 30, 5), (20, 60, 9), (40, 120, 30)]]
        with pytest.raises(RankDeficiencyError, match="vary the caps"):
            fit_cost_factors(samples)


class TestErrorMetrics:
    def test_perfect_fit(self):
        assert rrmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mape_maxape([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_hand_values(self):
        assert rrmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(1.0, rel=1e-14)
        # sqrt(sum|a-f|^2 / m) = sqrt(25/2)
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), rel=1e-14)
        assert rrmse([3.0, 4.0], [3.0, 0.0]) == pytest.approx(0.8, rel=1e-14)
        assert rmse([3.0, 4.0], [3.0, 0.0]) == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_mape_hand_values(self):
        assert mape_maxape([10.0, 20.0], [9.0, 22.0]) == pytest.approx((0.10, 0.10))
        assert mape_maxape([10.0, 20.0], [8.0, 21.0]) == pytest.approx((0.125, 0.20))

    def test_errors(self):
        with pytest.raises(ContractError):
            rrmse([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ContractError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ContractError):
            mape_maxape([0.0, 1.0], [1.0, 1.0])

    @given(st.lists(st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-6),
                    min_size=1, max_size=12))
    def test_rrmse_rmse_identity(self, actual):
        rng = np.random.default_rng(len(actual))
        fitted = np.asarray(actual) + rng.normal(0, 1, len(actual))
        a2 = float(np.sum(np.square(actual)))
        lhs = rrmse(actual, fitted) ** 2 * a2
        rhs = rmse(actual, fitted) ** 2 * len(actual)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


