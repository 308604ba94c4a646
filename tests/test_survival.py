"""Censoring imputation, Kaplan-Meier, log-rank and the chi-square tail."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepradiomics.errors import NoEvents
from deepradiomics.survival import (
    chi2_sf,
    impute_censored,
    km_estimate,
    logrank_test,
    median_split,
)


class TestImputeCensored:
    def test_mean_of_qualifying_deaths(self):
        times = [10.0, 20.0, 30.0, 15.0]
        events = [1, 1, 1, 0]
        adjusted = impute_censored(times, events)
        assert adjusted.tolist() == [10.0, 20.0, 30.0, 25.0]  # mean of {20, 30}

    def test_single_qualifying_subject(self):
        adjusted = impute_censored([10.0, 5.0], [1, 0])
        assert adjusted.tolist() == [10.0, 10.0]

    def test_censored_beyond_all_deaths_keeps_own_time(self):
        adjusted = impute_censored([10.0, 20.0, 30.0, 40.0], [1, 1, 1, 0])
        assert adjusted.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_exact_tie_qualifies(self):
        # censoring time equal to a death time includes that death
        adjusted = impute_censored([10.0, 10.0], [1, 0])
        assert adjusted.tolist() == [10.0, 10.0]

    def test_no_events(self):
        with pytest.raises(NoEvents):
            impute_censored([5.0, 6.0], [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_uncensored_untouched_and_lower_bound_respected(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        times = rng.uniform(1, 100, n)
        events = rng.integers(0, 2, n)
        events[int(rng.integers(0, n))] = 1
        adjusted = impute_censored(times, events)
        assert np.array_equal(adjusted[events == 1], times[events == 1])
        assert (adjusted >= times - 1e-12).all()


class TestMedianSplit:
    def test_two_points(self):
        assert median_split([10.0, 20.0]).tolist() == [0, 1]  # median 15

    def test_all_equal(self):
        assert median_split([4.0, 4.0, 4.0]).tolist() == [0, 0, 0]

    def test_even_count_uses_mid_mean(self):
        # median of {1,2,3,4} is 2.5
        assert median_split([1.0, 2.0, 3.0, 4.0]).tolist() == [0, 0, 1, 1]


class TestKaplanMeier:
    def test_hand_computed_four_subject_table(self):
        curve = km_estimate([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        rows = [(s.time, s.at_risk, s.deaths, s.survival) for s in curve.steps]
        assert rows == [(1.0, 4, 1, 0.75), (2.0, 3, 1, 0.5), (4.0, 1, 1, 0.0)]
        assert curve.median_survival == 2.0

    def test_all_censored(self):
        curve = km_estimate([3.0, 7.0], [0, 0])
        assert curve.steps == ()
        assert curve.median_survival is None

    def test_single_subject(self):
        curve = km_estimate([5.0], [1])
        assert [(s.time, s.survival) for s in curve.steps] == [(5.0, 0.0)]
        assert curve.median_survival == 5.0

    def test_survival_nonincreasing_starts_below_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            curve = km_estimate(rng.uniform(1, 50, n), rng.integers(0, 2, n))
            values = [s.survival for s in curve.steps]
            assert all(b <= a for a, b in zip(values, values[1:]))
            assert all(v <= 1.0 for v in values)
            at_risk = [s.at_risk for s in curve.steps]
            assert all(b < a for a, b in zip(at_risk, at_risk[1:]))

    def test_matches_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(1, 30, 25)
        curve = km_estimate(times, np.ones(25, dtype=int))
        for s in curve.steps:
            empirical = (times > s.time).sum() / 25
            assert s.survival == pytest.approx(empirical, abs=1e-12)


class TestLogRank:
    def test_identical_groups(self):
        t = [1.0, 2.0, 3.0, 4.0]
        e = [1, 0, 1, 1]
        res = logrank_test(t, e, t, e)
        assert res.chi2 == 0.0
        assert res.p_value == 1.0
        assert res.hazard_ratio == 1.0

    def test_hand_enumerated_tables(self):
        # A dies at 1 and 2, B dies at 100 and 200; four 2x2 tables:
        #  t=1:   n_A=2 n_B=2 d=1 -> E_A += 1/2, V += 1/4
        #  t=2:   n_A=1 n_B=2 d=1 -> E_A += 1/3, V += 2/9
        #  t=100: n_A=0 n_B=2 d=1 -> no contribution
        #  t=200: n_A=0 n_B=1 d=1 -> no contribution (n=1)
        res = logrank_test([1.0, 2.0], [1, 1], [100.0, 200.0], [1, 1])
        assert res.observed == (2.0, 2.0)
        assert res.expected[0] == pytest.approx(5 / 6, abs=1e-12)
        assert res.expected[1] == pytest.approx(19 / 6, abs=1e-12)
        assert res.chi2 == pytest.approx((7 / 6) ** 2 / (17 / 36), abs=1e-12)
        assert res.hazard_ratio == pytest.approx((2 / (5 / 6)) / (2 / (19 / 6)), abs=1e-12)
        assert res.p_value == pytest.approx(chi2_sf(49 / 17), abs=1e-15)
        half = 1.96 * math.sqrt(1 / (5 / 6) + 1 / (19 / 6))
        assert res.ci95[0] == pytest.approx(3.8 * math.exp(-half), rel=1e-12)
        assert res.ci95[1] == pytest.approx(3.8 * math.exp(half), rel=1e-12)
        assert res.ci95[0] <= res.hazard_ratio <= res.ci95[1]

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        ta, tb = rng.uniform(1, 20, 12), rng.uniform(5, 40, 15)
        ea, eb = rng.integers(0, 2, 12), rng.integers(0, 2, 15)
        ea[0] = eb[0] = 1
        ab = logrank_test(ta, ea, tb, eb)
        ba = logrank_test(tb, eb, ta, ea)
        assert ab.chi2 == pytest.approx(ba.chi2, abs=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert ab.hazard_ratio * ba.hazard_ratio == pytest.approx(1.0, abs=1e-12)

    def test_time_scaling_invariance(self):
        rng = np.random.default_rng(3)
        ta, tb = rng.uniform(1, 20, 10), rng.uniform(1, 20, 10)
        ea, eb = np.ones(10, int), rng.integers(0, 2, 10)
        base = logrank_test(ta, ea, tb, eb)
        scaled = logrank_test(ta * 7.5, ea, tb * 7.5, eb)
        assert scaled.chi2 == pytest.approx(base.chi2, rel=1e-12)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-12)
        assert scaled.hazard_ratio == pytest.approx(base.hazard_ratio, rel=1e-12)

    def test_group_without_risk_exposure_has_undefined_hr(self):
        # all of B's subjects leave before any event time in A
        res = logrank_test([5.0, 6.0], [1, 1], [1.0, 2.0], [0, 0])
        assert res.hazard_ratio is None
        assert math.isnan(res.ci95[0])
        assert res.chi2 >= 0.0
        assert 0.0 < res.p_value <= 1.0

    def test_group_without_events_gives_extreme_hr(self):
        res = logrank_test([1.0, 2.0, 3.0], [1, 1, 1], [10.0, 11.0, 12.0], [0, 0, 0])
        assert res.hazard_ratio == math.inf
        mirrored = logrank_test([10.0, 11.0, 12.0], [0, 0, 0], [1.0, 2.0, 3.0], [1, 1, 1])
        assert mirrored.hazard_ratio == 0.0

    def test_no_events_error(self):
        with pytest.raises(NoEvents):
            logrank_test([1.0], [0], [2.0], [0])


class TestChiSquareTail:
    def test_at_zero(self):
        assert chi2_sf(0.0) == 1.0

    def test_classical_percentiles(self):
        assert chi2_sf(3.841) == pytest.approx(0.05, abs=5e-4)
        assert chi2_sf(6.635) == pytest.approx(0.01, abs=2e-4)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 50
        for x in (1e-3, 0.1, 0.5, 1.0, 2.0, 3.841, 6.635, 10.0, 20.0, 50.0):
            oracle = float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(x) / 2)))
            assert abs(chi2_sf(x) - oracle) <= 1e-10 * oracle

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1)
