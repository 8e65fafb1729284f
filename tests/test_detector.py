import json
import math
from fractions import Fraction

import numpy as np
import pytest

from driftscope.detector import (
    DriftReport,
    MonitorState,
    WindowConfig,
    beta_posterior,
    drift_delta,
    step,
    welch_t,
)
from driftscope.mining import MiningConfig, Subgroup, SubgroupCatalog
from driftscope.sgmetrics import SubgroupStats, merge


def exact_posterior(a: int, b: int) -> tuple[Fraction, Fraction]:
    mu = Fraction(a + 1, a + b + 2)
    nu = Fraction((a + 1) * (b + 1), (a + b + 2) ** 2 * (a + b + 3))
    return mu, nu


class TestBetaPosterior:
    @pytest.mark.parametrize("a,b", [(0, 0), (8, 2), (50, 0), (25, 25), (3, 7), (1000, 1)])
    def test_matches_exact_rational(self, a, b):
        mu, nu = beta_posterior(a, b)
        emu, enu = exact_posterior(a, b)
        assert abs(mu - float(emu)) <= 1e-15
        assert abs(nu - float(enu)) <= 1e-15

    def test_uniform_prior(self):
        mu, nu = beta_posterior(0, 0)
        assert mu == 0.5
        assert abs(nu - 1 / 12) <= 1e-15

    def test_fixture_8_2(self):
        mu, nu = beta_posterior(8, 2)
        assert mu == 0.75
        assert abs(nu - 27 / 1872) <= 1e-12
        assert abs(nu - 0.0144231) <= 1e-6

    def test_fixture_50_0(self):
        mu, nu = beta_posterior(50, 0)
        assert abs(mu - 51 / 52) <= 1e-15
        assert abs(nu - 51 / 143312) <= 1e-15

    def test_vectorized(self):
        mu, nu = beta_posterior(np.array([0, 8]), np.array([0, 2]))
        assert np.allclose(mu, [0.5, 0.75])
        assert np.allclose(nu, [1 / 12, 27 / 1872])

    def test_prior_safety_bounds(self):
        for a, b in [(0, 0), (0, 10**6), (10**6, 0), (12345, 678)]:
            mu, nu = beta_posterior(a, b)
            assert 0.0 < mu < 1.0
            assert nu > 0.0


class TestWelchT:
    def test_identical_is_zero(self):
        assert welch_t((0.7, 0.01), (0.7, 0.01)) == 0.0

    def test_fixture_50_0_vs_25_25(self):
        # derived oracle: exact rational means/variances, t = sqrt(33125/727)
        mu_r, nu_r = exact_posterior(50, 0)
        mu_c, nu_c = exact_posterior(25, 25)
        expected = math.sqrt(float((mu_r - mu_c) ** 2 / (nu_r + nu_c)))
        assert abs(expected - math.sqrt(33125 / 727)) <= 1e-12
        t = welch_t(beta_posterior(50, 0), beta_posterior(25, 25))
        assert abs(t - expected) <= 1e-9
        assert t > 5.0  # exceeds the default threshold

    def test_symmetric_in_windows(self):
        ref = beta_posterior(50, 0)
        cur = beta_posterior(25, 25)
        assert welch_t(ref, cur) == welch_t(cur, ref)

    def test_always_finite(self):
        t = welch_t(beta_posterior(0, 0), beta_posterior(0, 0))
        assert t == 0.0 and math.isfinite(t)


class TestDriftDelta:
    def test_signed_difference(self):
        ref = SubgroupStats(np.array([10]), np.array([0]), 10)
        cur = SubgroupStats(np.array([38]), np.array([62]), 100)
        assert abs(drift_delta(ref, cur, 0) - 0.62) <= 1e-12

    def test_identical_windows_zero(self):
        s = SubgroupStats(np.array([5]), np.array([5]), 10)
        assert drift_delta(s, s, 0) == 0.0

    def test_empty_side_undefined(self):
        ref = SubgroupStats(np.array([5]), np.array([5]), 10)
        cur = SubgroupStats(np.array([0]), np.array([0]), 0)
        assert drift_delta(ref, cur, 0) is None


def tiny_catalog(n_extra=1):
    sgs = [Subgroup((), 1.0, 10, 0)]
    for k in range(n_extra):
        sgs.append(Subgroup((k,), 0.5, 5, k + 1))
    return SubgroupCatalog(sgs, n_extra, MiningConfig(0.01, 3))


def stats_of(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    return SubgroupStats(a, b, int(a[0] + b[0]))


class TestStep:
    def test_warming_up_then_frozen(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(3))
        for i in range(3):
            rep = step(mon, stats_of([(8, 2), (4, 1)]))
            assert rep.warming_up and not rep.global_drift
        assert mon.reference_frozen
        rep = step(mon, stats_of([(8, 2), (4, 1)]))
        assert not rep.warming_up

    def test_unchanged_windows_no_drift(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(2))
        for _ in range(2):
            step(mon, stats_of([(80, 20), (40, 10)]))
        rep = step(mon, stats_of([(160, 40), (80, 20)]))
        assert not rep.global_drift
        assert np.allclose(rep.delta_h, 0.0)

    def test_derived_drift_fires_at_tau_5(self):
        # global subgroup: 50/0 per reference batch vs 25/25 per current batch
        mon = MonitorState(n_subgroups=1, config=WindowConfig(1))
        step(mon, stats_of([(50, 0)]))
        rep = step(mon, stats_of([(25, 25)]), tau_t=5.0)
        assert rep.global_drift
        assert abs(rep.t_values[0] - math.sqrt(33125 / 727)) <= 1e-9

    def test_global_column_reduces_to_whole_window_test(self):
        mon = MonitorState(n_subgroups=3, config=WindowConfig(2))
        batches = [stats_of([(40, 10), (20, 5), (10, 5)]) for _ in range(2)]
        for b in batches:
            step(mon, b)
        cur = stats_of([(10, 40), (5, 20), (2, 8)])
        rep = step(mon, cur)
        ref_total = merge(batches)
        expected = welch_t(
            beta_posterior(int(ref_total.alpha_counts[0]), int(ref_total.beta_counts[0])),
            beta_posterior(int(cur.alpha_counts[0]), int(cur.beta_counts[0])),
        )
        assert abs(rep.t_values[0] - expected) <= 1e-12

    def test_sliding_window_equals_recompute(self):
        rng = np.random.default_rng(5)
        W = 4
        mon = MonitorState(n_subgroups=3, config=WindowConfig(W))
        history = []
        for i in range(15):
            a = rng.integers(0, 30, 3)
            b = rng.integers(0, 30, 3)
            a[0] = a.sum()
            b[0] = b.sum()
            batch = SubgroupStats(a.astype(np.int64), b.astype(np.int64), int(a[0] + b[0]))
            history.append(batch)
            step(mon, batch)
            # the first W batches freeze the reference; the ring holds the
            # last W batches once at least 2W have been seen
            if i >= 2 * W - 1:
                expect = merge(history[-W:])
                got = mon.current_stats()
                assert np.array_equal(got.alpha_counts, expect.alpha_counts)
                assert np.array_equal(got.beta_counts, expect.beta_counts)

    def test_monotone_evidence_doubling_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ar, br = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            ac, bc = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            t1 = welch_t(beta_posterior(ar, br), beta_posterior(ac, bc))
            t2 = welch_t(beta_posterior(2 * ar, 2 * br), beta_posterior(2 * ac, 2 * bc))
            assert t2 >= t1 - 1e-9

    def test_min_count_suppresses_flags(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1))
        step(mon, stats_of([(50, 0), (0, 0)]))
        rep = step(mon, stats_of([(25, 25), (0, 20)]), tau_t=1.0, min_count=5)
        # subgroup 1 has zero reference outcomes: ineligible at min_count=5
        assert rep.drifted[0]
        assert not rep.drifted[1]
        assert rep.t_values[1] > 1.0  # statistic still computed

    def test_reset_reference(self):
        mon = MonitorState(n_subgroups=1, config=WindowConfig(1))
        step(mon, stats_of([(50, 0)]))
        rep = step(mon, stats_of([(25, 25)]))
        assert rep.global_drift
        mon.reset_reference()
        rep = step(mon, stats_of([(25, 25)]))
        assert rep.warming_up
        rep = step(mon, stats_of([(25, 25)]))
        assert not rep.warming_up and not rep.global_drift


class TestReportAndState:
    def test_report_rows_and_retention(self):
        catalog = tiny_catalog(2)
        mon = MonitorState(n_subgroups=3, config=WindowConfig(1))
        step(mon, stats_of([(50, 0), (25, 0), (25, 0)]))
        rep = step(mon, stats_of([(25, 25), (12, 13), (13, 12)]), tau_t=5.0)
        d = rep.to_dict(catalog, top_k=2)
        assert d["global_drift"] is True
        ids = [r["subgroup_id"] for r in d["subgroups"]]
        assert ids == sorted(ids)
        assert all(isinstance(r["t"], float) for r in d["subgroups"])
        text = json.dumps(d)
        assert "NaN" not in text

    def test_state_snapshot_round_trip(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(2))
        seq = [
            stats_of([(40, 10), (20, 5)]),
            stats_of([(39, 11), (19, 6)]),
            stats_of([(35, 15), (15, 10)]),
        ]
        for s in seq:
            step(mon, s)
        clone = MonitorState.from_dict(json.loads(json.dumps(mon.to_dict())))
        nxt = stats_of([(30, 20), (10, 15)])
        r1 = step(mon, nxt)
        r2 = step(clone, nxt)
        assert np.allclose(r1.t_values, r2.t_values)
        assert r1.global_drift == r2.global_drift
        assert r1.batch_id == r2.batch_id

    def test_state_load_rejects_bad_version_and_vector_lengths(self):
        from driftscope.catalog import DataError

        mon = MonitorState(n_subgroups=2, config=WindowConfig(1))
        for s in (stats_of([(40, 10), (20, 5)]), stats_of([(35, 15), (15, 10)])):
            step(mon, s)
        good = mon.to_dict()
        MonitorState.from_dict(good)
        for field, change in (
            ("version", lambda d: d.update(version=2)),
            ("version", lambda d: d.pop("version")),
            ("length", lambda d: d.update(n_subgroups=3)),
            ("length", lambda d: d["current_ring"][0].update(alpha=[1], beta=[1])),
            ("length", lambda d: d["reference_stats"].update(alpha=[1, 2, 3], beta=[1, 2, 3])),
        ):
            bad = json.loads(json.dumps(good))
            change(bad)
            with pytest.raises(DataError, match=field):
                MonitorState.from_dict(bad)
