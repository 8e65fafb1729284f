import itertools
import json
import math
import re

import numpy as np
import pytest

from driftscope.detector import DriftReport, score_windows
from driftscope.explain import (
    _coalitions,
    drift_values,
    rank,
    redundancy_prune,
    shapley_global,
    shapley_local,
)
from driftscope.mining import SubgroupCatalog
from driftscope.sgmetrics import EncodedBatch, SubgroupStats, aggregate, build_point_matrix, membership
from rowpath import make_drift_value_fn


def catalog_from_itemsets(itemsets, n_items):
    sgs = [{"items": [], "support": 1.0, "count": 10}]
    for items in sorted(itemsets):
        sgs.append({"items": sorted(items), "support": 0.5, "count": 5})
    return SubgroupCatalog.from_dict({"n_items": n_items, "min_support": 0.01, "max_len": 7, "subgroups": sgs})


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
        t_values=t,
        drifted=t > 5.0,
    )


def itemsets_of(cat, order):
    """The item ids of the subgroups of ``order``, as tuples in its order."""
    return [tuple(items) for items in cat.items_of(order)]


class TestRank:
    def test_preserves_descending_t(self):
        cat = catalog_from_itemsets([(0,), (1,), (2,), (3,)], 4)
        ts = {(0,): 43.8, (1,): 43.2, (2,): 43.1, (3,): 42.9}
        rep = report_with(cat, ts)
        assert rep.t_values[rank(rep, cat)][:4].tolist() == [43.8, 43.2, 43.1, 42.9]

    def test_tie_break_lexicographic(self):
        cat = catalog_from_itemsets([(2,), (0, 1), (1,)], 3)
        ts = {(2,): 7.0, (0, 1): 7.0, (1,): 7.0}
        order = rank(report_with(cat, ts), cat)
        assert itemsets_of(cat, order[:3]) == [(0, 1), (1,), (2,)]

    def test_tie_break_magnitude_of_delta_first(self):
        cat = catalog_from_itemsets([(0,), (1,)], 2)
        ts = {(0,): 7.0, (1,): 7.0}
        deltas = {(0,): 0.1, (1,): 0.4}
        order = rank(report_with(cat, ts, deltas), cat)
        assert itemsets_of(cat, order[:1]) == [(1,)]

    def test_orders_every_subgroup_once(self):
        cat = catalog_from_itemsets([(0,), (1,)], 2)
        order = rank(report_with(cat, {(0,): 3.0}), cat)
        assert sorted(order.tolist()) == list(range(len(cat)))


def ranked_with(t_by_items, n_items):
    """``(order, report, catalog)``: the ranking of exactly the itemsets of
    ``t_by_items`` over a catalog closed under subsets. The subsets not
    listed (the global subgroup among them) get t = 0, below every listed t,
    so they rank last and the order is cut before them."""
    closed = {
        sub for items in t_by_items for r in range(1, len(items) + 1) for sub in itertools.combinations(items, r)
    }
    cat = catalog_from_itemsets(closed, n_items)
    rep = report_with(cat, t_by_items)
    return rank(rep, cat)[: len(t_by_items)], rep, cat


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
        order, rep, cat = ranked_with({(0,): 10.0, (0, 1): 10.0, (1,): 4.0}, 2)
        pruned = redundancy_prune(order, rep, cat, 0.0)
        assert set(itemsets_of(cat, pruned)) == {(0,), (0, 1), (1,)}

    def test_child_within_threshold_dropped(self):
        order, rep, cat = ranked_with({(0, 1): 12.0, (0,): 10.0}, 2)
        pruned = redundancy_prune(order, rep, cat, 5.0)
        assert itemsets_of(cat, pruned) == [(0,)]

    def test_child_outside_threshold_kept(self):
        order, rep, cat = ranked_with({(0, 1): 20.0, (0,): 10.0}, 2)
        pruned = redundancy_prune(order, rep, cat, 5.0)
        assert set(itemsets_of(cat, pruned)) == {(0,), (0, 1)}

    def test_chain_collapses_onto_most_general(self):
        order, rep, cat = ranked_with({(0, 1, 2): 18.0, (0, 1): 14.0, (0,): 10.0}, 3)
        pruned = redundancy_prune(order, rep, cat, 5.0)
        # (0,1) is within 5 of (0,); (0,1,2) is within 5 of surviving... only
        # (0,) survives the 14-10 comparison; 18 vs 10 is 8 > 5, so (0,1,2)
        # must survive because no *surviving* subset is within 5
        assert set(itemsets_of(cat, pruned)) == {(0,), (0, 1, 2)}

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
            order, rep, cat = ranked_with({items: float(rng.uniform(0, 30)) for items in sorted(closed)}, 6)
            threshold = float(rng.uniform(1, 10))
            pruned = redundancy_prune(order, rep, cat, threshold)
            kept = dict(zip(itemsets_of(cat, pruned), rep.t_values[pruned].tolist()))
            for items, t in zip(itemsets_of(cat, order), rep.t_values[order].tolist()):
                if items in kept:
                    continue
                has_close_ancestor = any(
                    set(k) < set(items) and abs(kt - t) < threshold for k, kt in kept.items()
                )
                assert has_close_ancestor, f"pruned {items} lacks a surviving ancestor within {threshold}"

    def test_converges_to_unpruned_as_threshold_shrinks(self):
        rng = np.random.default_rng(4)
        itemsets = [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]
        order, rep, cat = ranked_with({items: float(rng.uniform(0, 30)) for items in itemsets}, 3)
        assert len(redundancy_prune(order, rep, cat, 1e-12)) == len(itemsets)


# The per-subgroup ranking and survivor loop that rank and redundancy_prune
# replace, kept as their oracle.


def _sort_key(report, catalog, j):
    d = report.delta_h[j]
    mag = -1.0 if np.isnan(d) else abs(float(d))
    return (-float(report.t_values[j]), -mag, j)


def oracle_rank(report, catalog, top_k=None):
    return sorted(range(len(catalog)), key=lambda j: _sort_key(report, catalog, j))[:top_k]


def oracle_prune(order, report, catalog, t_threshold):
    by_length = sorted(order, key=lambda j: (len(catalog.subgroup(j).item_ids),) + _sort_key(report, catalog, j))
    survivors = []
    for j in by_length:
        items = frozenset(catalog.subgroup(j).item_ids)
        t = float(report.t_values[j])
        pruned = any(
            s_items < items and abs(s_t - t) < t_threshold
            for s_items, s_t, _ in survivors
        )
        if not pruned:
            survivors.append((items, t, j))
    return sorted((j for _, _, j in survivors), key=lambda j: _sort_key(report, catalog, j))


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
    sgs = [{"items": [], "support": 1.0, "count": 10}]
    sgs += [{"items": list(items), "support": 0.5, "count": 5} for items in itemsets]
    return SubgroupCatalog.from_dict({"n_items": n_items, "min_support": 0.01, "max_len": 7, "subgroups": sgs})


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
            order = rank(rep, cat)[:top_k]
            assert order.tolist() == want, f"trial {trial}"
            missing = missing_parents(cat)
            if missing:  # a non-closed trial: pruning names a missing subset
                with pytest.raises(ValueError) as err:
                    redundancy_prune(order, rep, cat, 1.0)
                assert named_itemset(err.value) in missing, f"trial {trial}"
                continue
            for threshold in (0.0, 0.3, 2.0, 5.0, 1e9):
                got = redundancy_prune(order, rep, cat, threshold).tolist()
                assert got == oracle_prune(want, rep, cat, threshold), f"trial {trial} threshold {threshold}"

    def test_lattice_matches_per_mask_lookups(self):
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

            def levels():
                """Each level up to ``max_len``, read as a consumer that
                stops early reads them (Shapley stops past MAX_EXACT_ITEMS)."""
                for idx, items in cat.length_tables:
                    k = items.shape[1]
                    if max_len is not None and k > max_len:
                        break
                    yield idx, items, cat.lattice(k)

            missing = missing_parents(cat, max_len)
            if missing:  # a non-closed trial
                with pytest.raises(ValueError) as err:
                    list(levels())
                named = named_itemset(err.value)
                assert named in missing, f"trial {trial}"
                # raised at the shortest length that misses a subset
                assert len(named) == min(map(len, missing)), f"trial {trial}"
                continue
            lengths = []
            for idx, items, subsets in levels():
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
            # a consumer that stops early leaves the longer levels unbuilt
            assert sorted(cat._lattice) == lengths, f"trial {trial}"

    def test_a_level_is_built_with_the_shorter_levels_it_reads_and_kept(self):
        itemsets = [c for r in range(1, 5) for c in itertools.combinations(range(5), r)]
        cat = catalog_from_itemsets(itemsets, 5)
        top = cat.lattice(3)
        assert sorted(cat._lattice) == [1, 2, 3]
        assert cat.lattice(3) is top
        fresh = catalog_from_itemsets(itemsets, 5)
        for k in (1, 2, 3):
            np.testing.assert_array_equal(cat.lattice(k), fresh.lattice(k))


def local_shapley(items, value, n_items):
    """``shapley_local`` of ``items`` with coalition values ``value`` (sorted
    item tuple -> float), given as delta_h on the catalog of every subset of
    ``items``."""
    items = tuple(sorted(items))
    closed = [sub for r in range(1, len(items) + 1) for sub in itertools.combinations(items, r)]
    cat = catalog_from_itemsets(closed, n_items)
    rep = report_with(cat, {}, value)
    return shapley_local(int(cat.indices_of([items])[0]), rep, cat)


class TestShapleyLocal:
    def test_single_item(self):
        v = {(): 0.1, (7,): 0.5}
        phi = local_shapley([7], v, 8)
        assert abs(phi.values[7] - 0.4) <= 1e-15

    def test_symmetric_two_items(self):
        vals = {(): 0.0, (0,): -0.2, (1,): -0.2, (0, 1): -0.6}
        phi = local_shapley([0, 1], vals, 2)
        assert abs(phi.values[0] + 0.3) <= 1e-15
        assert abs(phi.values[1] + 0.3) <= 1e-15

    def test_efficiency_random_four_items(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            table = {s: float(rng.normal()) for r in range(5) for s in itertools.combinations(range(4), r)}
            phi = local_shapley([0, 1, 2, 3], table, 4)
            total = sum(phi.values.values())
            expect = table[(0, 1, 2, 3)] - table[()]
            assert abs(total - expect) <= 1e-12

    def test_null_player_gets_zero(self):
        v = {(): 0.0, (0,): 1.0, (9,): 0.0, (0, 9): 1.0}  # item 9 never matters
        phi = local_shapley([0, 9], v, 10)
        assert phi.values[9] == 0.0
        assert abs(phi.values[0] - 1.0) <= 1e-15

    def test_symmetry_interchangeable_items(self):
        v = {(): 0.0, (3,): 1.0, (5,): 1.0, (3, 5): 1.0}
        phi = local_shapley([3, 5], v, 6)
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
            phi = local_shapley(items, value, 50)
            want = _permutation_shapley(items, value)
            assert phi.values.keys() == want.keys()
            for item in items:
                assert abs(phi.values[item] - want[item]) <= 1e-12

    def test_too_many_items_rejected(self):
        # only the global subgroup and the 13-itemset: the check comes first
        cat = catalog_from_itemsets([tuple(range(13))], 13)
        with pytest.raises(ValueError, match="sampling"):
            shapley_local(1, report_with(cat, {}), cat)
        assert not cat._lattice


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
        with pytest.raises(ValueError, match="report has 2 subgroups, catalog has 3"):
            shapley_local(1, rep, cat)

    def test_is_the_per_item_mean_of_shapley_local(self):
        rng = np.random.default_rng(32)
        for trial in range(40):
            cat = random_catalog(rng, closed=True)
            rep = random_report(rng, cat)
            rep.mu_cur[:] = rep.mu_ref - rng.normal(size=len(cat))
            local = {}
            for j in range(len(cat)):
                for item, phi in shapley_local(j, rep, cat).values.items():
                    local.setdefault(item, []).append(phi)
            got = shapley_global(rep, cat).values
            assert sorted(got) == sorted(local), f"trial {trial}"
            for item, phis in local.items():
                assert abs(got[item] - np.mean(phis)) <= 1e-12, f"trial {trial} item {item}"

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


def random_stats(rng, cat, n_items):
    """The counts of a random window of 0 to 30 rows over ``cat``; some rows
    have no outcome, so some subgroups or whole windows have no outcome."""
    n = int(rng.integers(0, 31))
    ids = [tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()) for _ in range(n)]
    outcome = rng.integers(0, 3, size=n)  # 0: alpha, 1: beta, 2: neither
    alpha, beta = (outcome == 0).astype(np.int64), (outcome == 1).astype(np.int64)
    batch = EncodedBatch(build_point_matrix(ids, n_items), alpha, beta)
    return aggregate(batch, membership(batch, cat))


class TestDriftValues:
    def test_equals_the_count_based_oracle_bit_for_bit(self):
        rng = np.random.default_rng(0)
        empty_sides = 0
        for trial in range(240):
            cat = random_catalog(rng, closed=trial % 2 == 0)
            ref, cur = random_stats(rng, cat, cat.n_items), random_stats(rng, cat, cat.n_items)
            v = make_drift_value_fn(cat, ref, cur)
            want = np.array([v(frozenset(items)) for items in cat.items_of(np.arange(len(cat)))])
            got = drift_values(score_windows(ref, cur))
            assert got.tobytes() == want.tobytes(), f"trial {trial}"
            empty_sides += int(((ref.alpha_counts + ref.beta_counts) == 0).any())
            empty_sides += int(((cur.alpha_counts + cur.beta_counts) == 0).any())
        assert empty_sides >= 100

    def test_undefined_h_falls_back_to_the_posterior_mean_gap(self):
        ref = SubgroupStats(np.array([8, 3]), np.array([2, 1]), 10)
        cur = SubgroupStats(np.array([5, 0]), np.array([5, 0]), 10)  # {0} has no outcome in cur
        assert drift_values(score_windows(ref, cur)) == pytest.approx([0.8 - 0.5, 4 / 6 - 1 / 2])
