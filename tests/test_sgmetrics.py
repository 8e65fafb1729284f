import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftscope.mining import MiningConfig, Subgroup, SubgroupCatalog
from driftscope.sgmetrics import (
    EncodedBatch,
    SubgroupStats,
    aggregate,
    build_point_matrix,
    membership,
    merge,
    performance_vector,
)


def make_catalog(itemsets, n_items):
    sgs = [Subgroup((), 1.0, 1, 0)]
    for k, items in enumerate(sorted(itemsets), start=1):
        sgs.append(Subgroup(tuple(sorted(items)), 0.5, 1, k))
    return SubgroupCatalog(sgs, n_items, MiningConfig(0.01, 7))


def make_batch(instance_itemsets, alpha, beta, n_items):
    return EncodedBatch(
        point_matrix=build_point_matrix([tuple(sorted(ids)) for ids in instance_itemsets], n_items),
        alpha_vec=np.asarray(alpha, dtype=np.int64),
        beta_vec=np.asarray(beta, dtype=np.int64),
    )


def naive_membership(instances, itemsets):
    """Oracle: direct subset checks, one row per instance (global first)."""
    out = np.zeros((len(instances), len(itemsets) + 1), dtype=np.int8)
    out[:, 0] = 1
    for i, inst in enumerate(instances):
        s = set(inst)
        for j, items in enumerate(sorted(itemsets), start=1):
            out[i, j] = int(set(items) <= s)
    return out


class TestEncodeBatch:
    def test_row_pattern(self):
        batch = make_batch([(0, 2)], [1], [0], n_items=3)
        assert batch.point_matrix.toarray().tolist() == [[1.0, 0.0, 1.0]]

    def test_empty_itemset_row_is_zero(self):
        batch = make_batch([()], [0], [1], n_items=3)
        assert batch.point_matrix.nnz == 0

    def test_nnz_counts_items(self):
        batch = make_batch([(0, 1), (2,)], [1, 0], [0, 1], n_items=3)
        assert batch.point_matrix.shape == (2, 3)
        assert batch.point_matrix.nnz == 3

    def test_out_of_range_id_reports_row(self):
        with pytest.raises(ValueError, match="row 1"):
            make_batch([(0,), (7,)], [1, 1], [0, 0], n_items=3)

    def test_negative_id_reports_its_row(self):
        with pytest.raises(ValueError, match=r"row 2: item id -1 out of range \[0, 3\)"):
            build_point_matrix([(0,), (), (1, -1)], 3)

    def test_alpha_beta_guard(self):
        P = build_point_matrix([(0,)], 2)
        with pytest.raises(ValueError):
            EncodedBatch(P, np.array([1]), np.array([1]))
        # counting packs the outcome vectors as bits, so they must be 0/1
        with pytest.raises(ValueError, match="0/1"):
            EncodedBatch(P, np.array([-1]), np.array([1]))

    def test_rejects_alpha_plus_beta_over_one_and_negative_entries(self):
        P = build_point_matrix([(0,), (), (1,), ()], 2)
        ok = np.array([1, 0, 0, 1]), np.array([0, 1, 0, 0])
        assert EncodedBatch(P, *ok).n_instances == 4
        with pytest.raises(ValueError, match=r"alpha \+ beta must be <= 1"):
            EncodedBatch(P, np.array([1, 0, 1, 0]), np.array([0, 1, 1, 0]))
        with pytest.raises(ValueError, match="0/1 indicators"):
            EncodedBatch(P, ok[0], np.array([0, 1, -1, 0]))


def padding_is_zero(P):
    """Every bit past the last instance of each packed row is unset."""
    bits = np.unpackbits(P.bits, axis=1)
    return bits.shape[1] % 64 == 0 and not bits[:, P.n_instances :].any()


class TestPointMatrix:
    @staticmethod
    def random_rows(rng, n, n_items):
        return [
            tuple(sorted(rng.choice(n_items, size=rng.integers(0, 4), replace=False).tolist()))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        rows = self.random_rows(rng, n, 11)
        dense = np.zeros((n, 11), dtype=np.uint8)
        for i, ids in enumerate(rows):
            dense[i, list(ids)] = 1
        P = build_point_matrix(rows, 11)
        assert P.shape == (n, 11)
        assert np.array_equal(P.toarray(), dense)
        assert P.nnz == int(dense.sum())
        assert padding_is_zero(P)

    @pytest.mark.parametrize(
        "lo,hi", [(0, 200), (0, 0), (5, 5), (3, 11), (7, 9), (8, 72), (13, 130), (63, 65), (190, 200), (150, 999)]
    )
    def test_row_slice_matches_dense_rows(self, lo, hi):
        rng = np.random.default_rng(lo * 1000 + hi)
        P = build_point_matrix(self.random_rows(rng, 200, 9), 9)
        part = P[lo:hi]
        assert part.shape == P.toarray()[lo:hi].shape
        assert np.array_equal(part.toarray(), P.toarray()[lo:hi])
        assert padding_is_zero(part)

    def test_row_slice_rejects_a_step(self):
        P = build_point_matrix([(0,), (1,), (0, 1)], 2)
        with pytest.raises(ValueError, match="step-1"):
            P[::2]


class TestMembership:
    def test_subset_and_non_subset(self):
        catalog = make_catalog([(0, 1), (0, 3)], n_items=4)
        batch = make_batch([(0, 1, 2)], [1], [0], n_items=4)
        M = membership(batch, catalog).toarray()
        # global member, {0,1} member, {0,3} not
        assert M.tolist() == [[1, 1, 0]]

    def test_empty_instance_only_global(self):
        catalog = make_catalog([(0,)], n_items=2)
        batch = make_batch([()], [0], [0], n_items=2)
        assert membership(batch, catalog).toarray().tolist() == [[1, 0]]
        # a catalog of the global subgroup alone has no length tables
        assert membership(batch, make_catalog([], n_items=2)).toarray().tolist() == [[1]]
        # a 0-row batch packs to zero bytes per item bitmap
        empty = make_batch([], [], [], n_items=2)
        assert membership(empty, catalog).shape == (0, 2)

    def test_one_third_rounding_tolerance(self):
        # a 3-item subgroup matches an instance holding all three items
        catalog = make_catalog([(0, 1, 2)], n_items=3)
        batch = make_batch([(0, 1, 2)], [1], [0], n_items=3)
        assert membership(batch, catalog).toarray().tolist() == [[1, 1]]

    def test_dimension_mismatch(self):
        catalog = make_catalog([(0,)], n_items=2)
        batch = make_batch([(0,)], [1], [0], n_items=3)
        with pytest.raises(ValueError):
            membership(batch, catalog)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(0)
        n_items = 12
        for _ in range(5):
            itemsets = set()
            while len(itemsets) < 30:
                size = int(rng.integers(1, 5))
                itemsets.add(tuple(sorted(rng.choice(n_items, size, replace=False).tolist())))
            instances = [
                tuple(np.flatnonzero(rng.random(n_items) < 0.4).tolist())
                for _ in range(150)
            ]
            catalog = make_catalog(itemsets, n_items)
            batch = make_batch(instances, [1] * 150, [0] * 150, n_items)
            M = membership(batch, catalog).toarray()
            expected = naive_membership(instances, itemsets)
            assert np.array_equal(M, expected)

    def test_matches_naive_membership(self):
        rng = np.random.default_rng(4)
        n_items = 15
        itemsets = {
            tuple(sorted(rng.choice(n_items, int(rng.integers(1, 5)), replace=False).tolist()))
            for _ in range(40)
        }
        instances = [
            tuple(np.flatnonzero(rng.random(n_items) < 0.45).tolist()) for _ in range(200)
        ]
        catalog = make_catalog(itemsets, n_items)
        batch = make_batch(instances, [1] * 200, [0] * 200, n_items)
        M = membership(batch, catalog).toarray()
        assert np.array_equal(M, naive_membership(instances, itemsets))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
    def test_packed_bitmaps_at_every_padding(self, n):
        # batch sizes around byte and 64-bit word boundaries, where the
        # padding bits of the packed rows must stay zero
        rng = np.random.default_rng(n)
        n_items = 10
        itemsets = {
            tuple(sorted(rng.choice(n_items, int(rng.integers(1, 4)), replace=False).tolist()))
            for _ in range(25)
        }
        instances = [tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()) for _ in range(n)]
        alpha = rng.integers(0, 2, n)
        beta = np.where(alpha == 1, 0, rng.integers(0, 2, n))
        vec = rng.integers(0, 2, n)
        batch = make_batch(instances, alpha, beta, n_items)
        for sets in (itemsets, set()):  # the second catalog holds only the global subgroup
            catalog = make_catalog(sets, n_items)
            expected = naive_membership(instances, sets)
            M = membership(batch, catalog)
            assert M.shape == expected.shape == (n, len(catalog))
            assert np.array_equal(M.toarray(), expected)
            assert M.nnz == int(expected.sum())
            assert np.array_equal(M.count(vec), vec @ expected)
            stats = aggregate(batch, M)
            assert np.array_equal(stats.alpha_counts, alpha @ expected)
            assert np.array_equal(stats.beta_counts, beta @ expected)
            assert stats.n_instances == n

    def test_count_rejects_wrong_length(self):
        batch = make_batch([(0,), (1,)], [1, 0], [0, 1], n_items=2)
        M = membership(batch, make_catalog([(0,)], n_items=2))
        with pytest.raises(ValueError, match="batch size"):
            M.count(np.ones(3, dtype=np.int64))

    def test_monotone_containment(self):
        rng = np.random.default_rng(1)
        n_items = 10
        small = tuple(sorted(rng.choice(n_items, 2, replace=False).tolist()))
        big = tuple(sorted(set(small) | {int(rng.integers(n_items))}))
        if big == small:
            big = tuple(sorted(set(small) | {(small[0] + 1) % n_items}))
        catalog = make_catalog({small, big}, n_items)
        instances = [tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()) for _ in range(200)]
        batch = make_batch(instances, [1] * 200, [0] * 200, n_items)
        M = membership(batch, catalog).toarray()
        cols = {sg.item_ids: sg.index for sg in catalog.subgroups}
        assert np.all(M[:, cols[big]] <= M[:, cols[small]])


class TestAggregate:
    def test_spec_example_counts(self):
        catalog = make_catalog([(0,)], n_items=1)
        batch = make_batch([(0,)] * 4, [1, 1, 1, 0], [0, 0, 0, 1], n_items=1)
        M = membership(batch, catalog)
        stats = aggregate(batch, M)
        j = catalog.index_of((0,))
        assert stats.alpha_counts[j] == 3
        assert stats.beta_counts[j] == 1

    def test_zero_member_subgroup(self):
        catalog = make_catalog([(0,), (1,)], n_items=2)
        batch = make_batch([(0,)] * 3, [1, 0, 1], [0, 1, 0], n_items=2)
        stats = aggregate(batch, membership(batch, catalog))
        j = catalog.index_of((1,))
        assert stats.alpha_counts[j] == 0 and stats.beta_counts[j] == 0

    def test_global_equals_column_sums(self):
        alpha = [1, 0, 1, 0, 1]
        beta = [0, 1, 0, 0, 0]
        batch = make_batch([(0,), (1,), (), (0, 1), (1,)], alpha, beta, n_items=2)
        # the second catalog holds only the global subgroup
        for catalog in (make_catalog([(0,)], n_items=2), make_catalog([], n_items=2)):
            stats = aggregate(batch, membership(batch, catalog))
            assert stats.alpha_counts[0] == sum(alpha)
            assert stats.beta_counts[0] == sum(beta)

    def test_count_conservation_random(self):
        rng = np.random.default_rng(9)
        n_items = 8
        itemsets = {(0, 1), (2,), (3, 4, 5)}
        catalog = make_catalog(itemsets, n_items)
        instances = [tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()) for _ in range(300)]
        alpha = rng.integers(0, 2, 300)
        beta = np.where(alpha == 1, 0, rng.integers(0, 2, 300))
        batch = make_batch(instances, alpha, beta, n_items)
        M = membership(batch, catalog)
        stats = aggregate(batch, M)
        Md = M.toarray()
        for sg in catalog.subgroups:
            members = Md[:, sg.index] == 1
            assert stats.alpha_counts[sg.index] == alpha[members].sum()
            assert stats.beta_counts[sg.index] == beta[members].sum()

    def test_partition_invariance(self):
        rng = np.random.default_rng(17)
        n_items = 6
        catalog = make_catalog({(0,), (1, 2)}, n_items)
        instances = [tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist()) for _ in range(120)]
        alpha = rng.integers(0, 2, 120)
        beta = np.where(alpha == 1, 0, 1)
        whole = make_batch(instances, alpha, beta, n_items)
        full = aggregate(whole, membership(whole, catalog))
        for cuts in ([40, 80], [1, 119], [60], [0, 60]):  # [0, ...] adds a 0-row part
            parts = []
            prev = 0
            for c in cuts + [120]:
                part = make_batch(instances[prev:c], alpha[prev:c], beta[prev:c], n_items)
                parts.append(aggregate(part, membership(part, catalog)))
                prev = c
            merged = merge(parts)
            assert np.array_equal(merged.alpha_counts, full.alpha_counts)
            assert np.array_equal(merged.beta_counts, full.beta_counts)
            assert merged.n_instances == full.n_instances


class TestPerformanceAndMerge:
    def test_performance_vector_examples(self):
        stats = SubgroupStats(np.array([3, 0, 5]), np.array([1, 0, 0]), 9)
        h = performance_vector(stats)
        assert h[0] == 0.75
        assert np.isnan(h[1])
        assert h[2] == 1.0

    def test_merge_example(self):
        a = SubgroupStats(np.array([2]), np.array([1]), 3)
        b = SubgroupStats(np.array([3]), np.array([0]), 3)
        m = merge([a, b])
        assert m.alpha_counts.tolist() == [5]
        assert m.beta_counts.tolist() == [1]
        assert m.n_instances == 6

    def test_merge_empty(self):
        m = merge([], n_subgroups=4)
        assert m.alpha_counts.tolist() == [0, 0, 0, 0]
        with pytest.raises(ValueError):
            merge([])

    def test_merge_length_mismatch(self):
        a = SubgroupStats(np.array([1]), np.array([0]), 1)
        b = SubgroupStats(np.array([1, 2]), np.array([0, 0]), 2)
        with pytest.raises(ValueError):
            merge([a, b])

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 50), min_size=3, max_size=3),
                st.lists(st.integers(0, 50), min_size=3, max_size=3),
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_associative_commutative(self, triples):
        stats = [
            SubgroupStats(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), int(sum(a) + sum(b)))
            for a, b in triples
        ]
        x, y, z = stats
        left = merge([merge([x, y]), z])
        right = merge([x, merge([y, z])])
        shuffled = merge([z, x, y])
        for other in (right, shuffled):
            assert np.array_equal(left.alpha_counts, other.alpha_counts)
            assert np.array_equal(left.beta_counts, other.beta_counts)
            assert left.n_instances == other.n_instances
