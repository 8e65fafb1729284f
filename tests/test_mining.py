import json

import numpy as np
import pytest

from driftscope.mining import (
    MiningConfig,
    Subgroup,
    SubgroupCatalog,
    brute_force_frequent,
    mine_frequent,
)
from driftscope.sgmetrics import build_point_matrix


def _mine(transactions, s, max_len, n_items=None, item_attrs=None):
    n_items = n_items or (max(max(t) for t in transactions if t) + 1)
    P = build_point_matrix(transactions, n_items)
    return mine_frequent(P, MiningConfig(min_support=s, max_len=max_len), item_attrs=item_attrs)


def test_spec_example_four_transactions():
    # {a,b},{a,b},{a,c},{b} with a=0, b=1, c=2
    tx = [(0, 1), (0, 1), (0, 2), (1,)]
    cat = _mine(tx, s=0.5, max_len=2)
    found = {sg.item_ids: sg.support for sg in cat.subgroups}
    assert found == {(): 1.0, (0,): 0.75, (1,): 0.75, (0, 1): 0.5}


def test_support_one_returns_items_in_every_transaction():
    tx = [(0, 1), (0, 2), (0, 3)]
    cat = _mine(tx, s=1.0, max_len=3)
    assert {sg.item_ids for sg in cat.subgroups} == {(), (0,)}


def test_invalid_support_rejected():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            MiningConfig(min_support=bad)


def test_matches_brute_force_on_random_data():
    rng = np.random.default_rng(42)
    for trial in range(6):
        n_items = int(rng.integers(4, 10))
        n_tx = int(rng.integers(20, 120))
        density = rng.uniform(0.15, 0.5)
        tx = [
            tuple(np.flatnonzero(rng.random(n_items) < density).tolist())
            for _ in range(n_tx)
        ]
        for s in (0.1, 0.3, 0.5):
            cat = _mine(tx, s=s, max_len=4, n_items=n_items)
            mined = {sg.item_ids: sg.count for sg in cat.subgroups if sg.item_ids}
            oracle = brute_force_frequent(tx, s, max_len=4)
            assert mined == oracle, f"trial {trial} s={s}"


def test_anti_monotonicity_exhaustive():
    rng = np.random.default_rng(3)
    tx = [tuple(np.flatnonzero(rng.random(8) < 0.4).tolist()) for _ in range(60)]
    cat = _mine(tx, s=0.15, max_len=5, n_items=8)
    mined = {sg.item_ids for sg in cat.subgroups}
    for sg in cat.subgroups:
        items = sg.item_ids
        for drop in range(len(items)):
            subset = items[:drop] + items[drop + 1 :]
            assert subset in mined, f"{subset} missing though {items} is frequent"


def test_lexicographic_deterministic_order():
    tx = [(0, 1, 2), (0, 1), (1, 2), (0, 2), (2,)]
    cat = _mine(tx, s=0.2, max_len=3)
    keys = [sg.item_ids for sg in cat.subgroups]
    assert keys[0] == ()
    assert keys[1:] == sorted(keys[1:])
    assert [sg.index for sg in cat.subgroups] == list(range(len(cat)))


def test_structural_attribute_exclusion_equals_support_filter():
    # two items of one attribute never co-occur, so the structural filter
    # cannot change the output, only skip dead candidates
    rng = np.random.default_rng(11)
    attrs = ["a", "a", "b", "b", "c", "c"]
    tx = []
    for _ in range(80):
        t = []
        for attr in ("a", "b", "c"):
            opts = [i for i, x in enumerate(attrs) if x == attr]
            if rng.random() < 0.8:
                t.append(int(opts[rng.integers(2)]))
        tx.append(tuple(sorted(t)))
    with_filter = _mine(tx, 0.1, 3, n_items=6, item_attrs=attrs)
    without = _mine(tx, 0.1, 3, n_items=6)
    assert [sg.item_ids for sg in with_filter.subgroups] == [
        sg.item_ids for sg in without.subgroups
    ]


def test_catalog_round_trip_and_index_of():
    tx = [(0, 1), (0, 1), (0, 2), (1,)]
    cat = _mine(tx, 0.5, 2)
    clone = SubgroupCatalog.from_dict(json.loads(json.dumps(cat.to_dict())))
    assert [sg.item_ids for sg in clone.subgroups] == [sg.item_ids for sg in cat.subgroups]
    assert clone.index_of((1, 0)) == cat.index_of((0, 1))
    assert clone.index_of((5,)) is None


def _catalog(itemsets, n_items):
    sgs = [Subgroup((), 1.0, 10, 0)]
    sgs += [Subgroup(tuple(items), 0.5, 5, j) for j, items in enumerate(itemsets, start=1)]
    return SubgroupCatalog(sgs, n_items, MiningConfig(0.01, 7))


class TestCatalogValidation:
    @pytest.mark.parametrize("items", [(1, 0), (2, 2), (0, 3, 1)])
    def test_unsorted_or_repeated_items_rejected(self, items):
        with pytest.raises(ValueError, match="strictly ascending"):
            _catalog([(0,), items], 4)

    @pytest.mark.parametrize("items", [(4,), (-1,), (0, 9)])
    def test_out_of_range_items_rejected(self, items):
        with pytest.raises(ValueError, match=r"ascending in \[0, 4\)"):
            _catalog([(0,), items], 4)

    def test_repeated_itemset_rejected(self):
        with pytest.raises(ValueError, match=r"subgroup 3 repeats the itemset \[0, 2\]"):
            _catalog([(0, 2), (1,), (0, 2)], 4)

    def test_repeated_global_rejected(self):
        with pytest.raises(ValueError, match="global"):
            _catalog([(0,), ()], 4)

    def test_round_trip_rejects_bad_artifact(self):
        d = _catalog([(0,), (1,)], 2).to_dict()
        d["subgroups"][2]["items"] = [2]
        with pytest.raises(ValueError, match="ascending in"):
            SubgroupCatalog.from_dict(d)


def test_indices_of_matches_brute_force_dict():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n_items = int(rng.integers(1, 400))
        lengths = rng.integers(1, 6, size=int(rng.integers(0, 60)))
        itemsets = {
            tuple(sorted(rng.choice(n_items, size=min(k, n_items), replace=False).tolist()))
            for k in lengths
        }
        order = list(itemsets)
        rng.shuffle(order)
        cat = _catalog(order, n_items)
        truth = {sg.item_ids: sg.index for sg in cat.subgroups}
        queries = list(truth)
        for k in range(0, 7):  # absent itemsets, and lengths with no table
            for _ in range(5):
                q = rng.choice(n_items + 3, size=min(k, n_items + 3), replace=False)
                queries.append(tuple(sorted(q.tolist())))
        for k in {len(q) for q in queries}:
            rows = [q for q in queries if len(q) == k]
            got = cat.indices_of(np.array(rows, dtype=np.int64).reshape(len(rows), k))
            assert got.tolist() == [truth.get(q, -1) for q in rows], f"trial {trial} k={k}"
        for q in queries:
            shuffled = list(q)
            rng.shuffle(shuffled)
            assert cat.index_of(shuffled) == truth.get(q), f"trial {trial} {q}"


def test_length_tables_cover_each_subgroup_once():
    # ids past 255 make byte order matter: rows must still sort by item id
    cat = _catalog([(2, 3), (256,), (0, 1, 2), (1, 3), (3,), (1, 256), (2, 300)], 301)
    seen = {}
    for idx, items in cat.length_tables:
        assert items.tolist() == sorted(items.tolist())
        for j, row in zip(idx.tolist(), items.tolist()):
            seen[j] = tuple(row)
    assert seen == {sg.index: sg.item_ids for sg in cat.subgroups[1:]}
