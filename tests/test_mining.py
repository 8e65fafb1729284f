import json

import numpy as np
import pytest

from driftscope.mining import MiningConfig, SubgroupCatalog, mine_frequent
from driftscope.sgmetrics import EncodedBatch, build_point_matrix, membership
from rowpath import brute_force_frequent


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


@pytest.mark.parametrize("max_len", [1, 2, 4])
def test_membership_of_the_mined_rows_counts_what_the_miner_counted(max_len):
    rng = np.random.default_rng(max_len)
    for _ in range(4):
        n_items, n = int(rng.integers(4, 12)), int(rng.integers(1, 300))
        density = rng.uniform(0.2, 0.6)
        tx = [tuple(np.flatnonzero(rng.random(n_items) < density).tolist()) for _ in range(n)]
        P = build_point_matrix(tx, n_items)
        cat = mine_frequent(P, MiningConfig(min_support=0.05, max_len=max_len))
        assert len(cat) > 1
        # a mined catalog holds every prefix: no itemset is built from the global subgroup
        assert not any(len(idx) for idx, _, _ in cat.counting_plan()[1::2])
        batch = EncodedBatch(P, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        counts = membership(batch, cat).count(np.ones(n, dtype=np.int64))
        assert counts.tolist() == [sg.count for sg in cat.subgroups]


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


def test_catalog_round_trip_and_indices_of():
    tx = [(0, 1), (0, 1), (0, 2), (1,)]
    cat = _mine(tx, 0.5, 2)
    clone = SubgroupCatalog.from_dict(json.loads(json.dumps(cat.to_dict())))
    assert [sg.item_ids for sg in clone.subgroups] == [sg.item_ids for sg in cat.subgroups]
    j = cat.indices_of([(0, 1)])[0]
    assert j >= 0 and clone.indices_of([(0, 1)])[0] == j
    assert clone.indices_of([(5,)])[0] == -1


def _catalog(itemsets, n_items):
    sgs = [{"items": [], "support": 1.0, "count": 10}]
    sgs += [{"items": list(items), "support": 0.5, "count": 5} for items in itemsets]
    return SubgroupCatalog.from_dict({"n_items": n_items, "min_support": 0.01, "max_len": 7, "subgroups": sgs})


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


def test_length_tables_cover_each_subgroup_once():
    # ids past 255 make byte order matter: rows must still sort by item id
    cat = _catalog([(2, 3), (256,), (0, 1, 2), (1, 3), (3,), (1, 256), (2, 300)], 301)
    seen = {}
    for idx, items in cat.length_tables:
        assert items.tolist() == sorted(items.tolist())
        for j, row in zip(idx.tolist(), items.tolist()):
            seen[j] = tuple(row)
    assert seen == {sg.index: sg.item_ids for sg in cat.subgroups[1:]}


def _loop_mine(points, config, item_attrs=None):
    """Reference: the itemset-at-a-time Apriori over tuple-keyed dicts that
    the array miner replaced, as ``{itemset: count}``."""
    n_rows, n_items = points.shape
    item_bits = points.bits.view(np.uint64)
    found = {}
    level = {}
    for j in range(n_items):
        c = int(np.bitwise_count(item_bits[j]).sum())
        if c / n_rows >= config.min_support:
            found[(j,)] = c
            level[(j,)] = item_bits[j]
    k = 2
    while level and k <= config.max_len:
        prev_keys = sorted(level)
        prev_set = set(prev_keys)
        next_level = {}
        for i, a in enumerate(prev_keys):
            for b in prev_keys[i + 1 :]:
                if a[:-1] != b[:-1]:
                    break
                if item_attrs is not None and item_attrs[a[-1]] == item_attrs[b[-1]]:
                    continue
                cand = a + (b[-1],)
                if any(cand[:m] + cand[m + 1 :] not in prev_set for m in range(k - 2)):
                    continue
                bits = level[a] & item_bits[cand[-1]]
                c = int(np.bitwise_count(bits).sum())
                if c / n_rows >= config.min_support:
                    found[cand] = c
                    next_level[cand] = bits
        level = next_level
        k += 1
    return found


def _random_points(rng, n_rows, n_items, density):
    tx = [tuple(np.flatnonzero(rng.random(n_items) < density).tolist()) for _ in range(n_rows)]
    return tx, build_point_matrix(tx, n_items)


def _check_against_loop(points, config, item_attrs=None):
    cat = mine_frequent(points, config, item_attrs=item_attrs)
    expected = _loop_mine(points, config, item_attrs)
    n_rows = points.shape[0]
    assert [sg.item_ids for sg in cat.subgroups] == [()] + sorted(expected)
    assert [sg.count for sg in cat.subgroups] == [n_rows] + [expected[s] for s in sorted(expected)]
    assert [sg.support for sg in cat.subgroups] == [1.0] + [expected[s] / n_rows for s in sorted(expected)]
    assert [sg.index for sg in cat.subgroups] == list(range(len(cat)))
    return cat


def test_array_miner_matches_loop_miner_on_random_matrices():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        n_items = int(rng.integers(1, 24))
        n_rows = int(rng.integers(1, 300))
        _, P = _random_points(rng, n_rows, n_items, rng.uniform(0.1, 0.7))
        attrs = None if trial % 2 else [f"a{i}" for i in rng.integers(0, max(1, n_items // 2), n_items)]
        config = MiningConfig(min_support=float(rng.choice([0.02, 0.05, 0.1, 0.3])),
                              max_len=int(rng.integers(1, 5)))
        _check_against_loop(P, config, attrs)


def test_array_miner_edge_cases_match_loop_miner():
    rng = np.random.default_rng(5)
    # a count exactly at min_support * n is frequent: 3 of 20 rows at 0.15
    tx = [(0, 1, 2)] * 3 + [(0,), (1,), (2,)] * 5 + [()] * 2
    cat = _check_against_loop(build_point_matrix(tx, 3), MiningConfig(0.15, 3))
    assert cat.indices_of([(0, 1, 2)])[0] >= 0
    assert _check_against_loop(build_point_matrix(tx, 3), MiningConfig(0.16, 3)).indices_of([(0, 1)])[0] == -1
    # no frequent item: only the global subgroup
    _, P = _random_points(rng, 50, 6, 0.05)
    cat = _check_against_loop(P, MiningConfig(0.9, 4))
    assert len(cat) == 1 and cat.length_tables == ()
    # one row: every subset of its items up to max_len
    cat = _check_against_loop(build_point_matrix([(1, 3, 4, 6)], 8), MiningConfig(1.0, 4))
    assert len(cat) == 16
    # chunk boundaries: more than one chunk of candidates per level
    _, P = _random_points(rng, 64, 60, 0.6)
    _check_against_loop(P, MiningConfig(0.2, 3), [f"a{i // 3}" for i in range(60)])


def test_catalog_round_trip_keeps_tables_supports_and_counts():
    rng = np.random.default_rng(17)
    _, P = _random_points(rng, 200, 12, 0.4)
    cat = mine_frequent(P, MiningConfig(0.05, 4))
    clone = SubgroupCatalog.from_dict(json.loads(json.dumps(cat.to_dict())))
    assert clone.to_dict() == cat.to_dict()
    assert len(clone.length_tables) == len(cat.length_tables)
    for (i1, t1), (i2, t2) in zip(clone.length_tables, cat.length_tables):
        assert np.array_equal(i1, i2) and np.array_equal(t1, t2)
    assert np.array_equal(clone.supports(), cat.supports())
    assert [sg.count for sg in clone.subgroups] == [sg.count for sg in cat.subgroups]
    # one subgroup read from the tables equals the one of the full list
    fresh = SubgroupCatalog.from_dict(cat.to_dict())
    assert [fresh.subgroup(j) for j in range(len(fresh))] == list(cat.subgroups)


@pytest.mark.parametrize("width", [0, 1, 16, 382])
def test_popcounts_and_the_counts_built_on_them_are_exact_row_sums(width):
    from driftscope.mining import _packed_rows, _popcounts
    from driftscope.sgmetrics import Membership

    rng = np.random.default_rng(width)
    words = rng.integers(0, 2**64, (40, width), dtype=np.uint64)
    words[:3] = np.uint64(2**64 - 1)  # full rows: 24,448 bits at width 382
    expected = [sum(bin(w).count("1") for w in row) for row in words.tolist()]
    got = _popcounts(words)
    assert got.dtype == np.int64 and got.tolist() == expected

    n = 64 * width
    M = Membership(bits=words.view(np.uint8), n_instances=n)
    vec = (rng.random(n) < 0.5).astype(np.int64)
    counts = M.count(vec)
    assert counts.dtype == np.int64 and counts.tolist() == (M.toarray() * vec[:, None]).sum(axis=0).tolist()

    if n:  # the miner counts every itemset of a random point matrix with the same reduction
        mask = rng.random((5, n)) < 0.6
        mask[0] = True
        cat = mine_frequent(Membership(bits=_packed_rows(mask), n_instances=n), MiningConfig(1e-9, max_len=3))
        assert len(cat) == 1 + 5 + 10 + 10
        for sg in cat.subgroups[1:]:
            assert sg.count == int(mask[list(sg.item_ids)].all(axis=0).sum()), sg.item_ids
