import math
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

import rowpath
from driftscope.baselines import (
    ADWIN,
    DDM,
    DRIFT,
    FETWindow,
    HDDMA,
    KSWIN,
    NO_DRIFT,
    Chi2Window,
    PageHinkley,
    chi2_p_value,
    chi2_statistic,
    fisher_exact_two_sided,
    ks_two_sample,
    make_detector,
)


def bernoulli(rng, p, n):
    return (rng.random(n) < p).astype(int)


def window(det, correct, wrong):
    """The decision at the end of one full window of ``correct`` then ``wrong`` outcomes."""
    assert correct + wrong == det.window_size
    return det.run([0] * correct + [1] * wrong)[-1]


def exact_fisher_oracle(a, b, c, d):
    """Two-sided FET by exact rational enumeration, in the row-conditioned
    form C(r1, x) C(r2, c1 - x) / C(n, c1), rounded to a float once."""
    r1, r2, c1 = a + b, c + d, a + c

    def pmf(x):
        return Fraction(comb(r1, x) * comb(r2, c1 - x), comb(r1 + r2, c1))

    obs = pmf(a)
    tables = range(max(0, c1 - r2), min(r1, c1) + 1)
    return float(sum(p for p in map(pmf, tables) if p <= obs))


# window-1000 margins: error rates 0.1, 0.25 and 0.5 in both windows
WINDOW_1000_TABLES = [(900, 100, 900, 100), (750, 250, 750, 250), (500, 500, 500, 500)]


class TestDDM:
    def test_constant_error_rate_never_fires(self):
        rng = np.random.default_rng(0)
        det = DDM(min_samples=500)
        decisions = det.run(bernoulli(rng, 0.2, 20000))
        assert DRIFT not in decisions

    def test_fires_on_error_step(self):
        rng = np.random.default_rng(1)
        det = DDM(min_samples=500)
        stream = np.concatenate([bernoulli(rng, 0.1, 3000), bernoulli(rng, 0.5, 2000)])
        decisions = det.run(stream)
        fired = [i for i, d in enumerate(decisions) if d == DRIFT]
        assert fired and 3000 <= fired[0] < 4000

    def test_statistics_match_definition(self):
        det = DDM(min_samples=1)
        seq = [0, 1, 1, 0, 1]
        for i, e in enumerate(seq, start=1):
            det.update(e)
            if det.n:  # detector may reset after drift; only check when live
                p = sum(seq[:i]) / i
                # after a reset the counters restart; skip if so
                if det.n == i:
                    assert det.errors / det.n == pytest.approx(p)

    def test_min_sample_guard(self):
        det = DDM(min_samples=1000)
        # a blatant step inside the guard window must not fire
        decisions = det.run([0] * 200 + [1] * 300)
        assert DRIFT not in decisions


class TestHDDMA:
    def test_quiet_on_constant(self):
        rng = np.random.default_rng(2)
        det = HDDMA(drift_confidence=0.001)
        assert DRIFT not in det.run(bernoulli(rng, 0.15, 10000))

    def test_fires_on_mean_increase(self):
        rng = np.random.default_rng(3)
        det = HDDMA(drift_confidence=0.001)
        stream = np.concatenate([bernoulli(rng, 0.1, 4000), bernoulli(rng, 0.4, 2000)])
        decisions = det.run(stream)
        fired = [i for i, d in enumerate(decisions) if d == DRIFT]
        assert fired and fired[0] >= 4000

    def test_hoeffding_bound_formula(self):
        # epsilon = sqrt(m/2 ln(2/conf)) with m = (n-n_min)/(n_min n)
        assert HDDMA._mean_increased(10.0, 100, 30.0, 150, 0.01) == (
            30.0 / 150 - 10.0 / 100
            >= math.sqrt((150 - 100) / (100 * 150.0) / 2 * math.log(2 / 0.01))
        )


class TestPageHinkley:
    def test_cumulative_sum_tracks_definition(self):
        det = PageHinkley(min_instances=1, delta=0.0, threshold=1e9)
        seq = [1, 0, 1, 1, 0, 0, 1]
        mean = 0.0
        cum = 0.0
        mins = 0.0
        for i, e in enumerate(seq, start=1):
            det.update(e)
            mean += (e - mean) / i
            cum += e - mean
            mins = min(mins, cum)
            assert det.cum == pytest.approx(cum)
            assert det.cum_min == pytest.approx(mins)

    def test_fires_after_shift_and_respects_guard(self):
        rng = np.random.default_rng(4)
        stream = np.concatenate([bernoulli(rng, 0.05, 3000), bernoulli(rng, 0.6, 1500)])
        det = PageHinkley(min_instances=500, delta=0.005, threshold=50)
        decisions = det.run(stream)
        fired = [i for i, d in enumerate(decisions) if d == DRIFT]
        assert fired and fired[0] >= 3000
        quiet = PageHinkley(min_instances=10_000, delta=0.005, threshold=50)
        assert DRIFT not in quiet.run(stream[:4000])


class TestADWIN:
    def test_fires_within_1000_of_step(self):
        rng = np.random.default_rng(5)
        stream = np.concatenate([bernoulli(rng, 0.1, 2000), bernoulli(rng, 0.4, 2000)])
        det = ADWIN(delta=0.002)
        decisions = det.run(stream)
        fired = [i for i, d in enumerate(decisions) if d == DRIFT]
        assert fired, "ADWIN never fired on a 0.1 -> 0.4 step"
        assert 2000 <= fired[0] <= 3000

    def test_quiet_on_stationary(self):
        rng = np.random.default_rng(6)
        det = ADWIN(delta=0.002)
        decisions = det.run(bernoulli(rng, 0.25, 8000))
        assert DRIFT not in decisions

    def test_window_shrinks_after_change(self):
        rng = np.random.default_rng(7)
        det = ADWIN(delta=0.01)
        det.run(bernoulli(rng, 0.1, 3000))
        width_before = det.width
        det.run(bernoulli(rng, 0.6, 1000))
        assert det.width < width_before + 1000

    def test_mean_tracks_recent_data(self):
        rng = np.random.default_rng(8)
        det = ADWIN(delta=0.002)
        det.run(bernoulli(rng, 0.1, 3000))
        det.run(bernoulli(rng, 0.5, 3000))
        assert abs(det.mean - 0.5) < 0.08


class TestKSWIN:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        stream = np.concatenate([rng.normal(0, 1, 400), rng.normal(3, 1, 400)])
        d1 = KSWIN(window_size=100, stat_size=30, seed=4)
        d2 = KSWIN(window_size=100, stat_size=30, seed=4)
        assert d1.run(stream) == d2.run(stream)

    def test_fires_on_distribution_shift(self):
        rng = np.random.default_rng(10)
        stream = np.concatenate([bernoulli(rng, 0.05, 600), bernoulli(rng, 0.9, 300)])
        det = KSWIN(window_size=100, stat_size=30, alpha=0.005, seed=1)
        assert DRIFT in det.run(stream)

    def test_reset_restores_behavior(self):
        rng = np.random.default_rng(11)
        stream = bernoulli(rng, 0.3, 500)
        det = KSWIN(seed=7)
        first = det.run(stream)
        det.reset()
        assert det.run(stream) == first

    @pytest.mark.parametrize("window_size", [50, 100, 1000])
    def test_decisions_match_the_scipy_oracle(self, window_size):
        fired = 0
        for seed in range(17):
            rng = np.random.default_rng([window_size, seed])
            lead = window_size + 50
            if seed % 2:
                stream = bernoulli(rng, 0.2, lead + 100)
            else:
                stream = np.concatenate([bernoulli(rng, 0.1, lead), bernoulli(rng, 0.7, 100)])
            got = KSWIN(window_size=window_size, seed=seed).run(stream)
            assert got == rowpath.ScipyKSWIN(window_size=window_size, seed=seed).run(stream), seed
            fired += DRIFT in got
        assert fired >= 8  # the drifted streams fire, so not every decision compared is "no drift"


    @pytest.mark.parametrize("window_size", [100, 1000])
    def test_ring_window_decides_as_the_deque_window(self, window_size):
        # error rates that shift every 500 rows, so that the detector fires
        # and restarts from its recent values many times
        rng = np.random.default_rng([window_size, 20_000])
        stream = np.concatenate([bernoulli(rng, p, 500) for p in rng.uniform(0.05, 0.9, 40)])
        got = KSWIN(window_size=window_size, seed=5).run(stream)
        assert got == rowpath.DequeKSWIN(window_size=window_size, seed=5).run(stream)
        assert got.count(DRIFT) >= 5


def scipy_ks(x, y):
    """scipy's (D, p), and whether its exact p rounded above 1 so that it
    fell back to its asymptotic series (it warns when it does)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ks_2samp(x, y, method="auto")
    fell_back = any("Exact calculation unsuccessful" in str(w.message) for w in caught)
    return float(res.statistic), float(res.pvalue), fell_back


class TestKSTwoSample:
    def test_every_gap_up_to_60_matches_scipy_bit_for_bit(self):
        for n in range(1, 61):
            for h in range(n + 1):
                x = np.zeros(n)
                y = np.concatenate([np.ones(h), np.zeros(n - h)])  # D = h / n
                d, p = ks_two_sample(x, y)
                want_d, want_p, fell_back = scipy_ks(x, y)
                assert d == want_d == h / n, (n, h)
                if fell_back:
                    # scipy's exact sum came out above 1 (all such pairs have
                    # small h), so it used its asymptotic series; the module
                    # clips its own to 1. No decision at alpha < 0.9999 differs.
                    assert p >= 0.9999 and want_p >= 0.9999, (n, h)
                else:
                    assert p == want_p, (n, h)

    def test_ties_and_continuous_samples_match_scipy(self):
        rng = np.random.default_rng(14)
        for i in range(150):
            n = int(rng.integers(1, 300))
            if i % 3 == 0:
                x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
            elif i % 3 == 1:
                x, y = rng.integers(0, 5, n), rng.integers(0, 5, n) + int(rng.integers(0, 2))
            else:
                x, y = rng.normal(0.0, 1.0, n), rng.normal(0.3, 1.0, n)
            x, y = x.astype(float), y.astype(float)
            d, p = ks_two_sample(x, y)
            want_d, want_p, fell_back = scipy_ks(x, y)
            assert d == want_d
            assert p == want_p or (fell_back and min(p, want_p) >= 0.9999)

    def test_identical_samples_and_unequal_sizes(self):
        assert ks_two_sample([1.0, 2.0], [2.0, 1.0]) == (0.0, 1.0)
        with pytest.raises(ValueError, match="one size"):
            ks_two_sample([1.0, 2.0], [1.0])


class TestChi2:
    def test_p_value_matches_scipy(self):
        grid = np.concatenate([[0.0, 3.841, 6.635], np.linspace(0.0, 40.0, 2001)])
        for x in grid.tolist():
            assert chi2_p_value(x) == pytest.approx(float(chi2.sf(x, 1)), rel=1e-12, abs=0.0), x

    @pytest.mark.parametrize("window_size", [50, 100, 1000])
    def test_decisions_match_the_scipy_oracle(self, window_size):
        fired = 0
        for seed in range(17):
            rng = np.random.default_rng([window_size, seed])
            if seed % 2:
                stream = bernoulli(rng, 0.1, 20 * window_size)
            else:
                stream = np.concatenate(
                    [bernoulli(rng, 0.1, 12 * window_size), bernoulli(rng, 0.4, 8 * window_size)]
                )
            got = Chi2Window(window_size=window_size).run(stream)
            assert got == rowpath.ScipyChi2Window(window_size=window_size).run(stream), seed
            fired += DRIFT in got
        assert fired >= 8  # the drifted streams fire, so not every decision compared is "no drift"

    def test_textbook_statistic(self):
        # [[30,10],[20,20]]: expected [[25,15],[25,15]]
        stat = chi2_statistic([[30, 10], [20, 20]])
        want = (25 / 25) + (25 / 15) + (25 / 25) + (25 / 15)
        assert stat == pytest.approx(want)

    def test_empty_margin_has_no_statistic(self):
        with pytest.raises(ValueError, match="empty-margin"):
            chi2_statistic([[10, 0], [10, 0]])

    def test_fallback_starts_below_an_expected_cell_of_5(self):
        det = Chi2Window(window_size=20)
        # 10 wrong outcomes in all: the smallest expected cell is 20 * 10 / 40 = 5
        ref, cur = (17, 3), (13, 7)
        assert det._test(ref, cur) == chi2_p_value(chi2_statistic([ref, cur]))
        assert det._test(ref, cur) != fisher_exact_two_sided(*ref, *cur)
        # 9 wrong outcomes: 4.5
        ref, cur = (17, 3), (14, 6)
        assert det._test(ref, cur) == fisher_exact_two_sided(*ref, *cur)
        assert det._test(ref, cur) != chi2_p_value(chi2_statistic([ref, cur]))

    def test_detects_on_windowed_counts(self):
        det = Chi2Window(window_size=100, p_value=0.01)
        assert window(det, 90, 10) == NO_DRIFT  # freezes reference
        assert window(det, 88, 12) == NO_DRIFT
        assert window(det, 50, 50) == DRIFT

    def test_small_expected_cell_falls_back_to_fet(self):
        det = Chi2Window(window_size=10, p_value=0.05)
        window(det, 10, 0)
        fet = FETWindow(window_size=10, p_value=0.05)
        window(fet, 10, 0)
        # expected wrong-cell counts are < 5; decisions must match FET's
        for cur in [(10, 0), (7, 3), (4, 6), (1, 9)]:
            assert window(det, *cur) == window(fet, *cur)

    def test_per_instance_buffering(self):
        det = Chi2Window(window_size=50, p_value=0.01)
        out = det.run([0] * 50)  # reference window
        assert all(d == NO_DRIFT for d in out)
        out = det.run([1] * 50)  # all-error window against clean reference
        assert out[-1] == DRIFT
        assert all(d == NO_DRIFT for d in out[:-1])


class TestFET:
    def test_spec_example_50_0_vs_25_25(self):
        p = fisher_exact_two_sided(50, 0, 25, 25)
        assert p < 0.01
        assert p == exact_fisher_oracle(50, 0, 25, 25)

    def test_matches_exact_enumeration_on_random_tables(self):
        rng = np.random.default_rng(12)
        tables = [tuple(int(x) for x in rng.integers(0, 50, 4)) for _ in range(200)]
        for a, b, c, d in tables + WINDOW_1000_TABLES:
            if a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0:
                continue
            assert fisher_exact_two_sided(a, b, c, d) == exact_fisher_oracle(a, b, c, d), (a, b, c, d)

    def test_balanced_table_p_is_one(self):
        assert fisher_exact_two_sided(20, 20, 20, 20) == 1.0
        assert fisher_exact_two_sided(500, 500, 500, 500) == 1.0

    def test_windowed_detector(self):
        det = FETWindow(window_size=50, p_value=0.01)
        window(det, 50, 0)
        assert window(det, 25, 25) == DRIFT
        assert window(det, 49, 1) == NO_DRIFT


class TestInterface:
    @pytest.mark.parametrize(
        "kind", ["ddm", "hddm_a", "page_hinkley", "adwin", "kswin", "chi2", "fet"]
    )
    def test_reset_determinism(self, kind):
        rng = np.random.default_rng(13)
        stream = np.concatenate([bernoulli(rng, 0.1, 400), bernoulli(rng, 0.6, 400)])
        det = make_detector(kind)
        first = det.run(stream)
        det.reset()
        second = det.run(stream)
        assert first == second

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown detector"):
            make_detector("nope")
