import itertools
import math

import numpy as np
import pytest

from driftscope.detector import DriftReport
from driftscope.explain import (
    RankedEntry,
    RankedReport,
    rank,
    redundancy_prune,
    shapley_global,
    shapley_local,
)
from driftscope.mining import MiningConfig, Subgroup, SubgroupCatalog


def catalog_from_itemsets(itemsets, n_items):
    sgs = [Subgroup((), 1.0, 10, 0)]
    for k, items in enumerate(sorted(itemsets), start=1):
        sgs.append(Subgroup(tuple(sorted(items)), 0.5, 5, k))
    return SubgroupCatalog(sgs, n_items, MiningConfig(0.01, 7))


def report_with(catalog, t_by_items, delta_by_items=None):
    n = len(catalog)
    t = np.zeros(n)
    delta = np.zeros(n)
    mu_gap = np.zeros(n)
    for sg in catalog.subgroups:
        t[sg.index] = t_by_items.get(sg.item_ids, 0.0)
        if delta_by_items:
            delta[sg.index] = delta_by_items.get(sg.item_ids, 0.0)
    return DriftReport(
        batch_id=1,
        warming_up=False,
        global_drift=bool((t > 5).any()),
        tau_t=5.0,
        h_ref=np.full(n, 0.9),
        h_cur=np.full(n, 0.9) - delta,
        delta_h=delta,
        mu_ref=np.full(n, 0.9),
        mu_cur=np.full(n, 0.9) - mu_gap,
        nu_ref=np.full(n, 1e-4),
        nu_cur=np.full(n, 1e-4),
        t_values=t,
        drifted=t > 5.0,
    )


class TestRank:
    def test_preserves_descending_t(self):
        cat = catalog_from_itemsets([(0,), (1,), (2,), (3,)], 4)
        ts = {(0,): 43.8, (1,): 43.2, (2,): 43.1, (3,): 42.9}
        ranked = rank(report_with(cat, ts), cat)
        got = [e.t for e in ranked]
        assert got[:4] == [43.8, 43.2, 43.1, 42.9]

    def test_tie_break_lexicographic(self):
        cat = catalog_from_itemsets([(2,), (0, 1), (1,)], 3)
        ts = {(2,): 7.0, (0, 1): 7.0, (1,): 7.0}
        ranked = rank(report_with(cat, ts), cat)
        assert [e.subgroup.item_ids for e in ranked.entries[:3]] == [(0, 1), (1,), (2,)]

    def test_tie_break_magnitude_of_delta_first(self):
        cat = catalog_from_itemsets([(0,), (1,)], 2)
        ts = {(0,): 7.0, (1,): 7.0}
        deltas = {(0,): 0.1, (1,): 0.4}
        ranked = rank(report_with(cat, ts, deltas), cat)
        assert ranked.entries[0].subgroup.item_ids == (1,)

    def test_top_k_truncates_and_overflow_ok(self):
        cat = catalog_from_itemsets([(0,), (1,)], 2)
        ranked = rank(report_with(cat, {(0,): 3.0}), cat, top_k=2)
        assert len(ranked) == 2
        ranked_all = rank(report_with(cat, {(0,): 3.0}), cat, top_k=99)
        assert len(ranked_all) == len(cat)


def entry(items, t):
    return RankedEntry(subgroup=Subgroup(tuple(items), 0.5, 5, 0), t=t, delta_h=None)


class TestRedundancyPrune:
    def test_threshold_zero_is_identity(self):
        entries = [entry((0,), 10.0), entry((0, 1), 10.0), entry((1,), 4.0)]
        ranked = RankedReport(entries=tuple(sorted(entries, key=lambda e: -e.t)))
        pruned = redundancy_prune(ranked, 0.0)
        assert set(e.subgroup.item_ids for e in pruned) == {(0,), (0, 1), (1,)}

    def test_child_within_threshold_dropped(self):
        ranked = RankedReport(entries=(entry((0, 1), 12.0), entry((0,), 10.0)))
        pruned = redundancy_prune(ranked, 5.0)
        assert [e.subgroup.item_ids for e in pruned] == [(0,)]

    def test_child_outside_threshold_kept(self):
        ranked = RankedReport(entries=(entry((0, 1), 20.0), entry((0,), 10.0)))
        pruned = redundancy_prune(ranked, 5.0)
        assert {e.subgroup.item_ids for e in pruned} == {(0,), (0, 1)}

    def test_chain_collapses_onto_most_general(self):
        ranked = RankedReport(
            entries=(
                entry((0, 1, 2), 18.0),
                entry((0, 1), 14.0),
                entry((0,), 10.0),
            )
        )
        pruned = redundancy_prune(ranked, 5.0)
        # (0,1) is within 5 of (0,); (0,1,2) is within 5 of surviving... only
        # (0,) survives the 14-10 comparison; 18 vs 10 is 8 > 5, so (0,1,2)
        # must survive because no *surviving* subset is within 5
        assert {e.subgroup.item_ids for e in pruned} == {(0,), (0, 1, 2)}

    def test_soundness_on_random_reports(self):
        rng = np.random.default_rng(23)
        universe = list(range(6))
        for _ in range(20):
            itemsets = [()]
            for size in (1, 2, 3):
                for combo in itertools.combinations(universe, size):
                    if rng.random() < 0.4:
                        itemsets.append(combo)
            # downward-close the collection so ancestors exist in the report
            closed = set(itemsets)
            for items in list(closed):
                for r in range(len(items)):
                    for sub in itertools.combinations(items, r):
                        closed.add(sub)
            entries = tuple(
                entry(items, float(rng.uniform(0, 30))) for items in sorted(closed)
            )
            ranked = RankedReport(entries=entries)
            threshold = float(rng.uniform(1, 10))
            pruned = redundancy_prune(ranked, threshold)
            kept = {e.subgroup.item_ids: e.t for e in pruned}
            for e in entries:
                if e.subgroup.item_ids in kept:
                    continue
                has_close_ancestor = any(
                    set(k) < set(e.subgroup.item_ids) and abs(t - e.t) < threshold
                    for k, t in kept.items()
                )
                assert has_close_ancestor, (
                    f"pruned {e.subgroup.item_ids} lacks a surviving ancestor "
                    f"within {threshold}"
                )

    def test_converges_to_unpruned_as_threshold_shrinks(self):
        rng = np.random.default_rng(4)
        entries = tuple(
            entry(items, float(rng.uniform(0, 30)))
            for items in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
        )
        ranked = RankedReport(entries=entries)
        assert len(redundancy_prune(ranked, 1e-12)) == len(entries)


class TestShapleyLocal:
    def test_single_item(self):
        v = {frozenset(): 0.1, frozenset({7}): 0.5}
        phi = shapley_local([7], lambda s: v[s])
        assert abs(phi.values[7] - 0.4) <= 1e-15

    def test_symmetric_two_items(self):
        vals = {
            frozenset(): 0.0,
            frozenset({0}): -0.2,
            frozenset({1}): -0.2,
            frozenset({0, 1}): -0.6,
        }
        phi = shapley_local([0, 1], lambda s: vals[s])
        assert abs(phi.values[0] + 0.3) <= 1e-15
        assert abs(phi.values[1] + 0.3) <= 1e-15

    def test_efficiency_random_four_items(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            table = {
                frozenset(s): float(rng.normal())
                for r in range(5)
                for s in itertools.combinations(range(4), r)
            }
            phi = shapley_local([0, 1, 2, 3], lambda s: table[s])
            total = sum(phi.values.values())
            expect = table[frozenset({0, 1, 2, 3})] - table[frozenset()]
            assert abs(total - expect) <= 1e-12

    def test_null_player_gets_zero(self):
        def v(s):
            return 1.0 if 0 in s else 0.0  # item 9 never matters

        phi = shapley_local([0, 9], v)
        assert phi.values[9] == 0.0
        assert abs(phi.values[0] - 1.0) <= 1e-15

    def test_symmetry_interchangeable_items(self):
        def v(s):
            return float(len(s & {3, 5}) >= 1)

        phi = shapley_local([3, 5], v)
        assert abs(phi.values[3] - phi.values[5]) <= 1e-15

    def test_matches_permutation_shapley(self):
        rng = np.random.default_rng(8)
        for n in range(0, 6):
            items = tuple(sorted(rng.choice(50, size=n, replace=False).tolist()))
            value = {
                sub: float(rng.normal())
                for r in range(n + 1)
                for sub in itertools.combinations(items, r)
            }
            phi = shapley_local(items, lambda s: value[tuple(sorted(s))])
            want = _permutation_shapley(items, value)
            assert phi.values.keys() == want.keys()
            for item in items:
                assert abs(phi.values[item] - want[item]) <= 1e-12

    def test_too_many_items_rejected(self):
        with pytest.raises(ValueError, match="sampling"):
            shapley_local(list(range(13)), lambda s: 0.0)


class TestShapleyGlobal:
    def test_single_singleton_equals_local(self):
        cat = catalog_from_itemsets([(0,)], 1)
        rep = report_with(cat, {(0,): 3.0}, {(): 0.0, (0,): -0.25})
        out = shapley_global(rep, cat)
        assert abs(out.values[0] + 0.25) <= 1e-12

    def test_mean_over_containing_subgroups(self):
        # item 0 sits in three subgroups whose local values are -0.1/-0.2/-0.3
        cat = catalog_from_itemsets([(0,), (0, 1), (0, 2), (1,), (2,)], 3)
        deltas = {
            (): 0.0,
            (0,): -0.1,
            (1,): 0.0,
            (2,): 0.0,
            (0, 1): -0.2,  # local phi for 0 within {0,1}: computed below
            (0, 2): -0.3,
        }
        rep = report_with(cat, {k: 1.0 for k in deltas}, deltas)
        out = shapley_global(rep, cat)
        # within {0,1}: phi(0) = 1/2(v01 - v1) + 1/2(v0 - v_empty) = -0.15
        # within {0,2}: phi(0) = 1/2(-0.3 - 0) + 1/2(-0.1) = -0.2
        # within {0}:   phi(0) = -0.1
        assert abs(out.values[0] - np.mean([-0.1, -0.15, -0.2])) <= 1e-12

    def test_item_in_no_subgroup_absent(self):
        cat = catalog_from_itemsets([(0,)], 2)  # item 1 exists but never mined
        rep = report_with(cat, {(0,): 1.0}, {(0,): 0.1})
        out = shapley_global(rep, cat)
        assert 1 not in out.values

    def test_missing_subset_raises_value_error(self):
        cat = catalog_from_itemsets([(0,), (0, 1)], 2)  # (1,) is absent
        rep = report_with(cat, {(0,): 1.0}, {(0,): 0.1, (0, 1): 0.2})
        with pytest.raises(ValueError, match=r"itemset \[1\] .* not a mined subgroup"):
            shapley_global(rep, cat)

    def test_report_for_another_catalog_raises_value_error(self):
        cat = catalog_from_itemsets([(0,), (1,)], 2)
        rep = report_with(catalog_from_itemsets([(0,)], 2), {(0,): 1.0})
        with pytest.raises(ValueError, match="report has 2 subgroups, catalog has 3"):
            shapley_global(rep, cat)

    def test_matches_mean_of_permutation_shapley_on_random_catalogs(self):
        rng = np.random.default_rng(31)
        for trial in range(15):
            n_items = int(rng.integers(2, 7))
            closed = set()
            for _ in range(int(rng.integers(1, 8))):
                size = int(rng.integers(1, min(n_items, 5) + 1))
                top = tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist()))
                for r in range(1, size + 1):
                    closed.update(itertools.combinations(top, r))
            cat = catalog_from_itemsets(closed, n_items)
            rep = report_with(cat, {}, {items: float(rng.normal()) for items in closed})
            # undefined h: the value falls back to the posterior-mean gap
            for j in rng.choice(len(cat), size=len(cat) // 3, replace=False):
                rep.delta_h[j] = np.nan
                rep.mu_cur[j] = rep.mu_ref[j] - rng.normal()
            value = {
                sg.item_ids: (
                    rep.mu_ref[sg.index] - rep.mu_cur[sg.index]
                    if np.isnan(rep.delta_h[sg.index])
                    else rep.delta_h[sg.index]
                )
                for sg in cat.subgroups
            }
            local = {}
            for sg in cat.subgroups[1:]:
                for item, phi in _permutation_shapley(sg.item_ids, value).items():
                    local.setdefault(item, []).append(phi)
            got = shapley_global(rep, cat).values
            assert sorted(got) == sorted(local)
            for item, phis in local.items():
                assert abs(got[item] - np.mean(phis)) <= 1e-12, f"trial {trial} item {item}"


def _permutation_shapley(items, value):
    """Shapley values as the mean marginal contribution over all orderings."""
    phi = dict.fromkeys(items, 0.0)
    orders = list(itertools.permutations(items))
    for order in orders:
        for pos, item in enumerate(order):
            before = tuple(sorted(order[:pos]))
            phi[item] += value[tuple(sorted(before + (item,)))] - value[before]
    return {item: total / len(orders) for item, total in phi.items()}


class TestDriftValueFn:
    def _windows(self, cat, n_items):
        import numpy as np

        from driftscope.catalog import OutcomeRecord
        from driftscope.explain import make_drift_value_fn
        from driftscope.sgmetrics import aggregate, encode_batch, membership

        rng = np.random.default_rng(0)
        batches = {}
        stats = {}
        for name, p_correct in (("ref", 0.9), ("cur", 0.6)):
            recs = []
            for _ in range(300):
                ids = tuple(sorted(np.flatnonzero(rng.random(n_items) < 0.5).tolist()))
                a = int(rng.random() < p_correct)
                recs.append(OutcomeRecord(item_ids=ids, alpha=a, beta=1 - a))
            batch = encode_batch(recs, n_items)
            batches[name] = batch
            stats[name] = aggregate(batch, membership(batch, cat))
        return make_drift_value_fn(
            cat, stats["ref"], stats["cur"],
            ref_batches=[batches["ref"]], cur_batches=[batches["cur"]],
        ), batches, stats

    def test_cached_path_matches_stats(self):
        cat = catalog_from_itemsets([(0,), (1,), (0, 1)], 3)
        v, _, stats = self._windows(cat, 3)
        j = cat.index_of((0, 1))
        ar, br = stats["ref"].alpha_counts[j], stats["ref"].beta_counts[j]
        ac, bc = stats["cur"].alpha_counts[j], stats["cur"].beta_counts[j]
        want = ar / (ar + br) - ac / (ac + bc)
        assert v(frozenset({0, 1})) == pytest.approx(want)

    def test_on_demand_path_counts_from_batches(self):
        # {0, 2} is not a mined subgroup: the value must come from the batches
        cat = catalog_from_itemsets([(0,), (1,), (0, 1)], 3)
        v, batches, _ = self._windows(cat, 3)
        got = v(frozenset({0, 2}))
        import numpy as np

        vals = []
        for batch in (batches["ref"], batches["cur"]):
            P = batch.point_matrix.toarray()
            member = (P[:, 0] > 0) & (P[:, 2] > 0)
            a = batch.alpha_vec[member].sum()
            b = batch.beta_vec[member].sum()
            vals.append((a, b))
        (ar, br), (ac, bc) = vals
        want = ar / (ar + br) - ac / (ac + bc)
        assert got == pytest.approx(want)

    def test_unmined_itemset_without_batches_raises(self):
        from driftscope.explain import make_drift_value_fn

        cat = catalog_from_itemsets([(0,)], 3)
        _, _, stats = self._windows(cat, 3)
        v = make_drift_value_fn(cat, stats["ref"], stats["cur"])
        with pytest.raises(KeyError, match="not mined"):
            v(frozenset({0, 2}))
