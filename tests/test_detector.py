import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import rowpath
from driftscope.detector import (
    DriftReport,
    MonitorState,
    ReportWriter,
    WindowConfig,
    beta_posterior,
    score_windows,
    step,
    welch_t,
)
from driftscope.catalog import DataError
from driftscope.mining import SubgroupCatalog
from driftscope.sgmetrics import SubgroupStats


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


class TestScoreWindows:
    def test_delta_h_is_the_signed_gap_and_nan_where_a_window_has_no_outcome(self):
        # per subgroup: a drop of 0.62, identical windows, an empty current
        # window, an empty reference window
        ref = SubgroupStats(np.array([10, 5, 5, 0]), np.array([0, 5, 5, 0]), 10)
        cur = SubgroupStats(np.array([38, 5, 0, 5]), np.array([62, 5, 0, 5]), 100)
        delta = score_windows(ref, cur).delta_h
        assert abs(delta[0] - 0.62) <= 1e-12
        assert delta[1] == 0.0
        assert np.isnan(delta[2:]).all()


def tiny_catalog(n_extra=1):
    sgs = [{"items": [], "support": 1.0, "count": 10}]
    for k in range(n_extra):
        sgs.append({"items": [k], "support": 0.5, "count": 5})
    return SubgroupCatalog.from_dict({"n_items": n_extra, "min_support": 0.01, "max_len": 3, "subgroups": sgs})


def summed(stats):
    """The elementwise sum of the count vectors: the window's oracle."""
    return SubgroupStats(
        np.sum([s.alpha_counts for s in stats], axis=0, dtype=np.int64),
        np.sum([s.beta_counts for s in stats], axis=0, dtype=np.int64),
        sum(s.n_instances for s in stats),
    )


def random_stream(rng, n_batches, n_subgroups=3):
    """Random count batches whose subgroup 0 holds every instance."""
    batches = []
    for _ in range(n_batches):
        a, b = rng.integers(0, 30, n_subgroups), rng.integers(0, 30, n_subgroups)
        a[0], b[0] = a.sum(), b.sum()
        batches.append(SubgroupStats(a.astype(np.int64), b.astype(np.int64), int(a[0] + b[0])))
    return batches


def assert_same_stats(got, expect):
    assert np.array_equal(got.alpha_counts, expect.alpha_counts)
    assert np.array_equal(got.beta_counts, expect.beta_counts)
    assert got.n_instances == expect.n_instances


def assert_same_report(got, expect):
    """The two reports hold the same header and, bit for bit, the same vectors."""
    assert (got.batch_id, got.warming_up, got.global_drift, got.tau_t) == (
        expect.batch_id, expect.warming_up, expect.global_drift, expect.tau_t,
    )
    for name in ("h_ref", "h_cur", "delta_h", "mu_ref", "mu_cur", "t_values", "drifted"):
        a, b = getattr(got, name), getattr(expect, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


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
        mon = MonitorState(n_subgroups=1, config=WindowConfig(1, tau_t=5.0))
        step(mon, stats_of([(50, 0)]))
        rep = step(mon, stats_of([(25, 25)]))
        assert rep.global_drift
        assert abs(rep.t_values[0] - math.sqrt(33125 / 727)) <= 1e-9

    def test_global_column_reduces_to_whole_window_test(self):
        mon = MonitorState(n_subgroups=3, config=WindowConfig(2))
        batches = [stats_of([(40, 10), (20, 5), (10, 5)]) for _ in range(2)]
        for b in batches:
            step(mon, b)
        cur = stats_of([(10, 40), (5, 20), (2, 8)])
        rep = step(mon, cur)
        ref_total = summed(batches)
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
                expect = summed(history[-W:])
                got = mon.current_stats()
                assert np.array_equal(got.alpha_counts, expect.alpha_counts)
                assert np.array_equal(got.beta_counts, expect.beta_counts)

    @pytest.mark.parametrize("W", [1, 2, 5])
    def test_window_sum_is_the_ring_sum_after_every_step(self, W):
        batches = random_stream(np.random.default_rng(W), 4 * W + 3)
        copies = [(b.alpha_counts.copy(), b.beta_counts.copy()) for b in batches]
        mon = MonitorState(n_subgroups=3, config=WindowConfig(W))
        handed_out = []
        for i, batch in enumerate(batches, start=1):
            step(mon, batch)
            # warm-up, the freeze at the W-th batch (an empty ring) and after it
            assert mon.reference_frozen == (i >= W)
            assert len(mon.current_ring) == (i if i < W else min(W, i - W))
            if mon.current_ring:
                got = mon.current_stats()
                assert_same_stats(got, summed(list(mon.current_ring)))
                handed_out.append((got, summed(list(mon.current_ring))))
            else:
                with pytest.raises(ValueError, match="no batch"):
                    mon.current_stats()
            if mon.reference_frozen:
                assert_same_stats(mon.reference_stats, summed(batches[:W]))
        # each update made a new sum: nothing handed out or pushed changed
        for got, expect in handed_out:
            assert_same_stats(got, expect)
        for batch, (a, b) in zip(batches, copies):
            assert np.array_equal(batch.alpha_counts, a) and np.array_equal(batch.beta_counts, b)

    @pytest.mark.parametrize("W", [2, 5])
    def test_reload_keeps_the_sums_and_scores_like_an_uninterrupted_run(self, W, tmp_path):
        catalog = tiny_catalog(2)
        batches = random_stream(np.random.default_rng(10 + W), 3 * W + 2)
        rule = WindowConfig(W, tau_t=0.5)
        whole = MonitorState(n_subgroups=3, config=rule)
        expected = [step(whole, b).to_dict(catalog) for b in batches]
        for cut in (W - 1, W, W + 1, 2 * W + 1):  # mid warm-up, at the freeze, after it
            first = MonitorState(n_subgroups=3, config=rule)
            for b in batches[:cut]:
                step(first, b)
            first.save(tmp_path / "state.json")
            resumed = MonitorState.load(tmp_path / "state.json")
            assert resumed.reference_frozen == first.reference_frozen
            if first.reference_frozen:
                assert_same_stats(resumed.reference_stats, first.reference_stats)
            if first.current_ring:
                assert_same_stats(resumed.current_stats(), first.current_stats())
            else:
                with pytest.raises(ValueError):
                    resumed.current_stats()
            got = [step(resumed, b).to_dict(catalog) for b in batches[cut:]]
            assert got == expected[cut:], cut
            assert_same_stats(resumed.current_stats(), whole.current_stats())

    @pytest.mark.parametrize("W", [1, 2, 5])
    @pytest.mark.parametrize("min_count", [0, 3])
    def test_every_report_is_score_windows_on_the_window_bit_for_bit(self, W, min_count, tmp_path):
        rng = np.random.default_rng(10 * W + min_count)
        batches = []
        for i in range(4 * W + 3):
            # few outcomes, some subgroups empty (NaN h); subgroup 7 has no
            # reference outcomes, so it is under min_count 3, then all positive
            a, b = rng.integers(0, 4, 8) * (rng.random(8) < 0.7), rng.integers(0, 4, 8)
            a[7], b[7] = (0, 0) if i < W else (3, 0)
            a[0], b[0] = a.sum(), b.sum()
            batches.append(SubgroupStats(a.astype(np.int64), b.astype(np.int64), int(a[0] + b[0])))
        rule = WindowConfig(W, tau_t=0.5, min_count=min_count)
        mon = MonitorState(n_subgroups=8, config=rule)
        reloaded, scored = {}, []
        for i, batch in enumerate(batches, start=1):
            report = step(mon, batch)
            for cut, clone in reloaded.items():
                assert_same_report(step(clone, batch), report), (cut, i)
            assert report.warming_up == (i <= W)
            if not report.warming_up:
                expect = score_windows(mon.reference_stats, mon.current_stats(), 0.5, min_count, i)
                assert_same_report(report, expect)
                scored.append(report)
            if i in (W - 1, W, W + 1):  # saved before the freeze, at it and after it
                mon.save(tmp_path / f"state_{i}.json")
                reloaded[i] = MonitorState.load(tmp_path / f"state_{i}.json")
        # the reference terms are computed once per reference and not written
        assert all(r.h_ref is scored[0].h_ref and r.mu_ref is scored[0].mu_ref for r in scored)
        for kept in (*mon._reference[2], *reloaded[W + 1]._reference[2]):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = kept[1]
        assert any(r.global_drift for r in scored)
        assert all(r.drifted[7] == (min_count == 0) and r.t_values[7] > 0.5 for r in scored)

    def test_scoring_follows_a_replaced_reference_or_rule(self):
        first, second = stats_of([(9, 1), (5, 0), (0, 3)]), stats_of([(2, 8), (0, 4), (3, 0)])
        cur = stats_of([(4, 4), (1, 1), (2, 2)])
        mon = MonitorState(n_subgroups=3, config=WindowConfig(1, tau_t=0.5))
        mon.reference_stats = first  # never frozen by push: a reference given by hand
        mon.push(cur)
        assert_same_report(mon.score(), score_windows(first, cur, 0.5, 0, 0))
        mon.reference_stats = second
        report = mon.score()
        assert_same_report(report, score_windows(second, cur, 0.5, 0, 0))
        assert report.drifted.tolist() == [True, True, True]
        mon.config = WindowConfig(1, tau_t=0.5, min_count=5)
        report = mon.score()
        assert_same_report(report, score_windows(second, cur, 0.5, 5, 0))
        assert report.drifted.tolist() == [True, False, False]

    def test_current_stats_on_an_empty_ring_raises(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1))
        with pytest.raises(ValueError, match="no batch"):
            mon.current_stats()
        step(mon, stats_of([(8, 2), (4, 1)]))  # the W-th batch freezes the reference and empties the ring
        with pytest.raises(ValueError, match="no batch"):
            mon.current_stats()

    def test_a_batch_of_another_length_is_refused_and_changes_nothing(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(2))
        step(mon, stats_of([(8, 2), (4, 1)]))
        with pytest.raises(ValueError, match="subgroup count does not match"):
            step(mon, stats_of([(8, 2)]))
        assert mon.batches_seen == 1 and len(mon.current_ring) == 1
        assert_same_stats(mon.current_stats(), stats_of([(8, 2), (4, 1)]))

    def test_monotone_evidence_doubling_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ar, br = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            ac, bc = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            t1 = welch_t(beta_posterior(ar, br), beta_posterior(ac, bc))
            t2 = welch_t(beta_posterior(2 * ar, 2 * br), beta_posterior(2 * ac, 2 * bc))
            assert t2 >= t1 - 1e-9

    def test_min_count_suppresses_flags(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1, tau_t=1.0, min_count=5))
        step(mon, stats_of([(50, 0), (0, 0)]))
        rep = step(mon, stats_of([(25, 25), (0, 20)]))
        # subgroup 1 has zero reference outcomes: ineligible at min_count=5
        assert rep.drifted[0]
        assert not rep.drifted[1]
        assert rep.t_values[1] > 1.0  # statistic still computed


class TestReportAndState:
    def test_report_rows_and_retention(self):
        catalog = tiny_catalog(2)
        mon = MonitorState(n_subgroups=3, config=WindowConfig(1, tau_t=5.0))
        step(mon, stats_of([(50, 0), (25, 0), (25, 0)]))
        rep = step(mon, stats_of([(25, 25), (12, 13), (13, 12)]))
        d = rep.to_dict(catalog, top_k=2)
        assert d["global_drift"] is True
        ids = [r["subgroup_id"] for r in d["subgroups"]]
        assert ids == sorted(ids)
        assert all(isinstance(r["t"], float) for r in d["subgroups"])
        text = json.dumps(d)
        assert "NaN" not in text

    @staticmethod
    def lexsort_retained(t, drifted, top_k):
        """The definition: the first top_k by descending t, ties by index,
        plus every flagged subgroup, as ascending indices."""
        order = np.lexsort((np.arange(len(t)), -t))
        return np.array(sorted(set(order[:top_k].tolist()) | set(np.flatnonzero(drifted).tolist())))

    def test_retained_indices_match_lexsort_selection(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            # few distinct values, so ties straddle the k-th value
            t = rng.integers(0, 1 + trial % 6, size=n).astype(np.float64) * 1.5
            if trial % 5 == 0:
                t[:] = 2.0  # all equal
            drifted = rng.random(n) < 0.1
            top_k = int(rng.integers(1, n + 5))  # includes k >= |G|
            report = DriftReport(1, False, bool(drifted.any()), 5.0, t_values=t, drifted=drifted)
            got = report.retained_indices(top_k)
            assert got.dtype == np.int64
            assert got.tolist() == self.lexsort_retained(t, drifted, top_k).tolist(), (t, top_k)

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

    def test_state_load_rejects_bad_version_and_vector_lengths(self, tmp_path):
        from driftscope.catalog import DataError

        path = tmp_path / "monitor_state.json"
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1))
        for s in (stats_of([(40, 10), (20, 5)]), stats_of([(35, 15), (15, 10)])):
            step(mon, s)
        good = mon.to_dict()
        MonitorState.from_dict(good)
        for field, change in (
            ("version 1", lambda d: d.update(version=1)),
            ("version 2", lambda d: d.update(version=2)),
            ("version 4", lambda d: d.update(version=4)),
            ("version", lambda d: d.pop("version")),
            ("no catalog_sha256; re-run `driftscope monitor`", lambda d: d.pop("catalog_sha256")),
            ("length", lambda d: d.update(n_subgroups=3)),
            ("length", lambda d: d["current_ring"][0].update(alpha=[1], beta=[1])),
            ("length", lambda d: d["reference_stats"].update(alpha=[1, 2, 3], beta=[1, 2, 3])),
            ("no field 'current_ring'", lambda d: d.pop("current_ring")),
            ("no field 'window_batches'", lambda d: d.pop("window_batches")),
            ("no field 'beta'", lambda d: d["reference_stats"].pop("beta")),
            ("malformed", lambda d: d.update(current_ring=None)),
            ("malformed", lambda d: d.update(n_subgroups=None)),
            (
                "current_ring holds 2 batches, more than 1 at window_batches 1 with reference_stats set",
                lambda d: d["current_ring"].append(d["current_ring"][0]),
            ),
            (
                "current_ring holds 1 batches, more than 0 at window_batches 1 with reference_stats null",
                lambda d: d.update(reference_stats=None),
            ),
            ("no field 'tau_t'", lambda d: d.pop("tau_t")),
            ("no field 'min_count'", lambda d: d.pop("min_count")),
            ("tau_t must be a number, got '5'", lambda d: d.update(tau_t="5")),
            ("tau_t must be a number, got None", lambda d: d.update(tau_t=None)),
            ("min_count must be an integer, got 2.5", lambda d: d.update(min_count=2.5)),
            ("min_count must be an integer, got '0'", lambda d: d.update(min_count="0")),
        ):
            bad = json.loads(json.dumps(good))
            change(bad)
            path.write_text(json.dumps(bad))
            with pytest.raises(DataError, match=field):
                MonitorState.load(path)

    def test_state_records_its_rule_and_scores_with_it(self):
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1, tau_t=1.0, min_count=5))
        step(mon, stats_of([(50, 0), (0, 0)]))
        step(mon, stats_of([(25, 25), (0, 20)]))
        d = json.loads(json.dumps(mon.to_dict()))
        assert (d["version"], d["window_batches"], d["tau_t"], d["min_count"]) == (3, 1, 1.0, 5)
        rep = MonitorState.from_dict(d).score()
        assert rep.tau_t == 1.0 and rep.drifted.tolist() == [True, False]
        assert rep.batch_id == 2

    def test_snapshot_mid_warm_up_resumes_like_an_uninterrupted_run(self, tmp_path):
        catalog = tiny_catalog(2)
        rng = np.random.default_rng(3)
        batches = []
        for _ in range(8):
            a, b = rng.integers(0, 30, 3), rng.integers(0, 30, 3)
            a[0], b[0] = a.sum(), b.sum()
            batches.append(SubgroupStats(a.astype(np.int64), b.astype(np.int64), int(a[0] + b[0])))
        rule = WindowConfig(3, tau_t=0.5, min_count=20)
        whole = MonitorState(n_subgroups=3, config=rule)
        expected = [step(whole, s).to_dict(catalog) for s in batches]
        first = MonitorState(n_subgroups=3, config=rule)
        got = [step(first, s).to_dict(catalog) for s in batches[:2]]
        first.save(tmp_path / "state.json")
        resumed = MonitorState.load(tmp_path / "state.json")
        assert not resumed.reference_frozen and len(resumed.current_ring) == 2
        got += [step(resumed, s).to_dict(catalog) for s in batches[2:]]
        assert got == expected
        assert any(d["global_drift"] for d in expected)
        assert resumed.to_dict() == whole.to_dict()

    def test_window_config_validates_its_rule(self):
        assert WindowConfig(np.int64(3), 2, np.int32(1)) == WindowConfig(3, 2.0, 1)
        assert isinstance(WindowConfig(3, 2).tau_t, float)
        for args, message in (
            ((0,), "window_batches must be >= 1"),
            ((2.0,), "window_batches must be an integer"),
            ((2, "5"), "tau_t must be a number"),
            ((2, float("nan")), "tau_t must be a number"),
            ((2, True), "tau_t must be a number"),
            ((2, 5.0, 1.0), "min_count must be an integer"),
            ((2, -3.0), "tau_t must be >= 0, got -3.0"),
            ((2, 5.0, -1), "min_count must be >= 0, got -1"),
        ):
            with pytest.raises(ValueError, match=message):
                WindowConfig(*args)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "monitor_state.json"
        mon = MonitorState(n_subgroups=2, config=WindowConfig(1))
        step(mon, stats_of([(40, 10), (20, 5)]))
        mon.save(path)
        before = path.read_bytes()
        step(mon, stats_of([(35, 15), (15, 10)]))
        # the serializer fails part-way through writing the new state
        monkeypatch.setattr(
            MonitorState, "to_dict", lambda self: {"version": 1, "bad": object()}
        )
        with pytest.raises(TypeError):
            mon.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["monitor_state.json"]
        assert MonitorState.load(path).batches_seen == 1


def test_window_config_and_state_reject_an_infinite_tau_t(tmp_path):
    for tau_t in (math.inf, -math.inf, np.float64("inf")):
        with pytest.raises(ValueError, match="tau_t must be finite, got"):
            WindowConfig(2, tau_t)
    d = MonitorState(n_subgroups=1).to_dict()
    d["tau_t"] = math.inf
    text = json.dumps(d)
    assert "Infinity" in text  # what json.dumps writes, and no strict parser reads
    path = tmp_path / "monitor_state.json"
    path.write_text(text)
    with pytest.raises(DataError, match="tau_t must be finite, got inf"):
        MonitorState.load(path)


# --- report lines against the dict-per-row serializer they replaced ---------


def _writer_catalog(n_items=6, seed=3):
    """The global subgroup and every itemset of one or two items, with
    supports whose shortest repr is long."""
    rng = np.random.default_rng(seed)
    sets = [(), *((i,) for i in range(n_items)), *combinations(range(n_items), 2)]
    supports = [1.0, *rng.random(len(sets) - 1).tolist()]
    sgs = [{"items": list(s), "support": sup, "count": int(sup * 1000)} for s, sup in zip(sets, supports)]
    return SubgroupCatalog.from_dict({"n_items": n_items, "min_support": 0.01, "max_len": 2, "subgroups": sgs})


def _random_report(rng, n, batch_id):
    """A scored report with ties in t, NaN h values and many flags."""
    t = rng.integers(0, 4, size=n) * 1.25
    t = np.where(rng.random(n) < 0.5, t, t + rng.random(n))  # some ties, some odd floats
    h_ref, h_cur = rng.random(n), rng.random(n)
    h_ref[rng.random(n) < 0.25] = np.nan
    h_cur[rng.random(n) < 0.25] = np.nan
    drifted = rng.random(n) < 0.4
    return DriftReport(
        batch_id, False, bool(drifted.any()), 5.0,
        h_ref=h_ref, h_cur=h_cur, delta_h=h_ref - h_cur, t_values=t, drifted=drifted,
    )


def _reference_line(report, catalog, top_k):
    return json.dumps(rowpath.report_dict(report, catalog, top_k), sort_keys=True)


class TestReportWriter:
    @pytest.mark.parametrize("top_k", [0, 1, 3, 7, 22, 100])
    def test_lines_equal_the_reference_bytes(self, top_k):
        catalog = _writer_catalog()
        n = len(catalog)
        assert n == 22  # so top_k 22 and 100 are >= |G|
        rng = np.random.default_rng(top_k)
        writer = ReportWriter(catalog, top_k)  # one writer across the batches
        for b in range(1, 40):
            report = _random_report(rng, n, b)
            line = writer.line(report)
            assert line == _reference_line(report, catalog, top_k), (top_k, b)
            assert report.to_dict(catalog, top_k) == rowpath.report_dict(report, catalog, top_k)
            json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in a report line"))

    def test_edge_reports(self):
        catalog = _writer_catalog()
        n = len(catalog)
        nan = np.full(n, np.nan)
        tied = np.full(n, 2.0)
        reports = [
            DriftReport(1, True, False, 5.0),  # warming up
            DriftReport(2, False, False, 5.0, h_ref=nan, h_cur=nan, delta_h=nan, t_values=tied,
                        drifted=np.zeros(n, dtype=bool)),  # all NaN, all tied at the k-th t
            DriftReport(3, False, True, 0.5, h_ref=np.ones(n), h_cur=np.zeros(n), delta_h=np.ones(n),
                        t_values=np.arange(n, dtype=np.float64), drifted=np.ones(n, dtype=bool)),  # all flagged
        ]
        for top_k in (0, 2, n, n + 1):
            writer = ReportWriter(catalog, top_k)
            for report in reports:
                assert writer.line(report) == _reference_line(report, catalog, top_k), (top_k, report.batch_id)
        warm = json.loads(ReportWriter(catalog).line(reports[0]))
        assert warm["subgroups"] == [] and warm["max_t"] is None
        line = ReportWriter(catalog, 2).line(reports[1])
        assert '"items": "(global)", "subgroup_id": 0, "support": 1.0' in line and "NaN" not in line
        assert len(json.loads(ReportWriter(catalog, 0).line(reports[2]))["subgroups"]) == n

    def test_a_writer_reused_through_a_monitor_run_and_a_reset(self):
        catalog = _writer_catalog()
        n = len(catalog)
        rng = np.random.default_rng(8)
        mon = MonitorState(n_subgroups=n, config=WindowConfig(2, tau_t=1.0))
        writer = ReportWriter(catalog, 4)
        for b in range(30):
            if b == 12:  # a new run over the same catalog
                mon = MonitorState(n_subgroups=n, config=WindowConfig(2, tau_t=1.0))
            a = rng.integers(0, 30, size=n) * (rng.random(n) < 0.8)  # some empty subgroups: NaN h
            stats = stats_of(list(zip(a.tolist(), (rng.integers(0, 30, size=n) * (a > 0)).tolist())))
            report = step(mon, stats)
            assert writer.line(report) == _reference_line(report, catalog, 4), b

    def test_one_writer_across_monitor_resets_writes_the_reference_line(self):
        catalog = _writer_catalog()
        n = len(catalog)
        rng = np.random.default_rng(5)
        writer = ReportWriter(catalog, n)  # every subgroup is retained in every line
        for _ in range(3):  # a new run over the same catalog freezes another reference
            mon = MonitorState(n_subgroups=n, config=WindowConfig(1, tau_t=1.0))
            for _ in range(3):
                a = rng.integers(0, 30, size=n) * (rng.random(n) < 0.8)
                stats = stats_of(list(zip(a.tolist(), (rng.integers(0, 30, size=n) * (a > 0)).tolist())))
                report = step(mon, stats)
                assert writer.line(report) == _reference_line(report, catalog, n)
