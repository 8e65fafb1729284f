import itertools
import json
import math
import re

import numpy as np
import pytest

from driftscope.detector import DriftReport
from driftscope.explain import (
    RankedEntry,
    _coalitions,
    _subset_index,
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


def ranked_with(t_by_items, n_items):
    """The ranking of exactly the itemsets of ``t_by_items`` over a catalog
    closed under subsets: the subsets not listed (the global subgroup among
    them) get t = 0, below every listed t, so they rank last and ``top_k``
    cuts them."""
    closed = {
        sub for items in t_by_items for r in range(1, len(items) + 1) for sub in itertools.combinations(items, r)
    }
    cat = catalog_from_itemsets(closed, n_items)
    return rank(report_with(cat, t_by_items), cat, top_k=len(t_by_items))


def missing_parents(cat, max_len=None):
    """The drop-one parents absent from ``cat`` of its itemsets up to
    ``max_len`` items: empty iff those itemsets are closed under subsets."""
    have = {sg.item_ids for sg in cat.subgroups}
    return {
        parent
        for items in have
        if items and (max_len is None or len(items) <= max_len)
        for parent in itertools.combinations(items, len(items) - 1)
        if parent not in have
    }


def named_itemset(error):
    """The itemset that a missing-subset ValueError names."""
    return tuple(json.loads(re.match(r"itemset (\[[\d, ]*\]) is not a mined subgroup", str(error)).group(1)))


class TestRedundancyPrune:
    def test_threshold_zero_is_identity(self):
        ranked = ranked_with({(0,): 10.0, (0, 1): 10.0, (1,): 4.0}, 2)
        pruned = redundancy_prune(ranked, 0.0)
        assert set(e.subgroup.item_ids for e in pruned) == {(0,), (0, 1), (1,)}

    def test_child_within_threshold_dropped(self):
        ranked = ranked_with({(0, 1): 12.0, (0,): 10.0}, 2)
        pruned = redundancy_prune(ranked, 5.0)
        assert [e.subgroup.item_ids for e in pruned] == [(0,)]

    def test_child_outside_threshold_kept(self):
        ranked = ranked_with({(0, 1): 20.0, (0,): 10.0}, 2)
        pruned = redundancy_prune(ranked, 5.0)
        assert {e.subgroup.item_ids for e in pruned} == {(0,), (0, 1)}

    def test_chain_collapses_onto_most_general(self):
        ranked = ranked_with({(0, 1, 2): 18.0, (0, 1): 14.0, (0,): 10.0}, 3)
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
            ranked = ranked_with({items: float(rng.uniform(0, 30)) for items in sorted(closed)}, 6)
            entries = ranked.entries
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
        itemsets = [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
        ranked = ranked_with({items: float(rng.uniform(0, 30)) for items in itemsets}, 3)
        assert len(redundancy_prune(ranked, 1e-12)) == len(itemsets)


# The per-entry ranking and survivor loop that rank and redundancy_prune
# replace, kept as their oracle.


def _sort_key(e: RankedEntry):
    mag = abs(e.delta_h) if e.delta_h is not None else -1.0
    return (-e.t, -mag, e.subgroup.item_ids)


def oracle_rank(report, catalog, top_k=None):
    entries = []
    for sg in catalog.subgroups:
        d = report.delta_h[sg.index]
        entries.append(
            RankedEntry(
                subgroup=sg,
                t=float(report.t_values[sg.index]),
                delta_h=None if np.isnan(d) else float(d),
            )
        )
    entries.sort(key=_sort_key)
    return entries[:top_k]


def oracle_prune(entries, t_threshold):
    order = sorted(entries, key=lambda e: (len(e.subgroup.item_ids),) + _sort_key(e))
    survivors = []
    for e in order:
        items = frozenset(e.subgroup.item_ids)
        pruned = any(
            s_items < items and abs(s_t - e.t) < t_threshold
            for s_items, s_t, _ in survivors
        )
        if not pruned:
            survivors.append((items, e.t, e))
    return sorted((e for _, _, e in survivors), key=_sort_key)


def random_catalog(rng, closed):
    """A catalog over up to 7 items with itemsets of length up to 5, in a
    shuffled dense order (the global subgroup first); ``closed`` adds every
    subset of every itemset, otherwise some subsets are missing."""
    n_items = int(rng.integers(1, 8))
    itemsets = set()
    for _ in range(int(rng.integers(1, 10))):
        size = int(rng.integers(1, min(n_items, 5) + 1))
        top = tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist()))
        itemsets.add(top)
        for r in range(1, size):
            itemsets.update(
                sub for sub in itertools.combinations(top, r) if closed or rng.random() < 0.5
            )
    itemsets = sorted(itemsets)
    rng.shuffle(itemsets)
    sgs = [Subgroup((), 1.0, 10, 0)] + [
        Subgroup(items, 0.5, 5, j) for j, items in enumerate(itemsets, start=1)
    ]
    return SubgroupCatalog(sgs, n_items, MiningConfig(0.01, 7))


def random_report(rng, cat):
    """t and delta_h from few values, so that both tie; some delta_h NaN."""
    n = len(cat)
    rep = report_with(cat, {})
    rep.t_values[:] = rng.choice([0.0, 0.5, 2.0, 4.5, 6.0, 9.0], size=n)
    rep.delta_h[:] = rng.choice([np.nan, -0.3, -0.1, 0.0, 0.1, 0.3], size=n)
    return rep


class TestExplainOracle:
    def test_rank_and_prune_match_the_per_entry_loop(self):
        rng = np.random.default_rng(61)
        for trial in range(240):
            cat = random_catalog(rng, closed=trial % 2 == 0)
            rep = random_report(rng, cat)
            top_k = None if trial % 3 else int(rng.integers(1, len(cat) + 2))
            want = oracle_rank(rep, cat, top_k)
            ranked = rank(rep, cat, top_k)
            assert list(ranked.entries) == want, f"trial {trial}"
            assert ranked.head(3) == tuple(want[:3])
            missing = missing_parents(cat)
            if missing:  # a non-closed trial: pruning names a missing subset
                with pytest.raises(ValueError) as err:
                    redundancy_prune(ranked, 1.0)
                assert named_itemset(err.value) in missing, f"trial {trial}"
                continue
            for threshold in (0.0, 0.3, 2.0, 5.0, 1e9):
                got = [e.subgroup.index for e in redundancy_prune(ranked, threshold)]
                expect = [e.subgroup.index for e in oracle_prune(want, threshold)]
                assert got == expect, f"trial {trial} threshold {threshold}"

    def test_subset_index_matches_per_mask_lookups(self):
        rng = np.random.default_rng(62)
        # every subset of 10 items, then with some missing: masks past 8 bits
        every = [c for r in range(1, 11) for c in itertools.combinations(range(10), r)]
        long_ones = [
            catalog_from_itemsets(every, 10),
            catalog_from_itemsets([c for c in every if len(c) == 10 or rng.random() < 0.7], 10),
        ]
        for trial in range(62):
            cat = long_ones[trial - 60] if trial >= 60 else random_catalog(rng, closed=trial % 2 == 0)
            max_len = None if trial % 3 or trial >= 60 else int(rng.integers(1, 4))
            missing = missing_parents(cat, max_len)
            if missing:  # a non-closed trial
                with pytest.raises(ValueError) as err:
                    list(_subset_index(cat, max_len))
                assert named_itemset(err.value) in missing, f"trial {trial}"
                continue
            lengths = []
            for idx, items, subsets in _subset_index(cat, max_len):
                k = items.shape[1]
                lengths.append(k)
                member = _coalitions(k)
                want = np.column_stack(
                    [cat.indices_of(items[:, member[mask]]) for mask in range(1 << k)]
                )
                np.testing.assert_array_equal(subsets, want)
                np.testing.assert_array_equal(subsets[:, -1], idx)
            expect = [items.shape[1] for _, items in cat.length_tables]
            assert lengths == [k for k in expect if max_len is None or k <= max_len]

    def test_lex_ranks_order_itemsets(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            cat = random_catalog(rng, closed=False)
            lex = cat.lex_ranks()
            by_items = sorted(range(len(cat)), key=lambda j: cat.subgroup(j).item_ids)
            assert lex[by_items].tolist() == list(range(len(cat)))


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

        from driftscope.explain import make_drift_value_fn
        from driftscope.sgmetrics import EncodedBatch, aggregate, build_point_matrix, membership

        rng = np.random.default_rng(0)
        stats = {}
        for name, p_correct in (("ref", 0.9), ("cur", 0.6)):
            ids, alpha = [], []
            for _ in range(300):
                ids.append(tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()))
                alpha.append(int(rng.random() < p_correct))
            alpha = np.array(alpha, dtype=np.int64)
            batch = EncodedBatch(build_point_matrix(ids, n_items), alpha, 1 - alpha)
            stats[name] = aggregate(batch, membership(batch, cat))
        return make_drift_value_fn(cat, stats["ref"], stats["cur"]), stats

    def test_cached_path_matches_stats(self):
        cat = catalog_from_itemsets([(0,), (1,), (0, 1)], 3)
        v, stats = self._windows(cat, 3)
        j = cat.index_of((0, 1))
        ar, br = stats["ref"].alpha_counts[j], stats["ref"].beta_counts[j]
        ac, bc = stats["cur"].alpha_counts[j], stats["cur"].beta_counts[j]
        want = ar / (ar + br) - ac / (ac + bc)
        assert v(frozenset({0, 1})) == pytest.approx(want)

    def test_unmined_itemset_raises_key_error(self):
        cat = catalog_from_itemsets([(0,)], 3)
        v, _ = self._windows(cat, 3)
        with pytest.raises(KeyError, match=r"itemset \[0, 2\] is not mined"):
            v(frozenset({0, 2}))

    def test_undefined_h_falls_back_to_the_posterior_mean_gap(self):
        from driftscope.explain import make_drift_value_fn
        from driftscope.sgmetrics import SubgroupStats

        cat = catalog_from_itemsets([(0,)], 1)
        ref = SubgroupStats(np.array([8, 3]), np.array([2, 1]), 10)
        cur = SubgroupStats(np.array([5, 0]), np.array([5, 0]), 10)  # {0} has no outcome in cur
        v = make_drift_value_fn(cat, ref, cur)
        assert v(frozenset()) == pytest.approx(0.8 - 0.5)
        assert v(frozenset({0})) == pytest.approx(4 / 6 - 1 / 2)
