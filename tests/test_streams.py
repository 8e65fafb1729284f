import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowpath
from driftscope.catalog import ColumnData, build_catalog
from driftscope.datasets import census_sample
from driftscope.evaluation import _INJECT_SALT
from driftscope.streams import (
    ConceptStreamConfig,
    DriftSchedule,
    LED_PATTERNS,
    SEA_THRESHOLDS,
    StreamBatch,
    _agrawal_group_a,
    _hyperplane_weights,
    _inject_flips_columns,
    _target_cover,
    fit_tree,
    flip_probability,
    gen_concept_stream,
    sigmoid_mix,
)


class TestSigmoidMix:
    def test_half_at_center(self):
        assert sigmoid_mix(5000, 5000, 1000) == 0.5

    def test_zero_width_is_step(self):
        assert sigmoid_mix(4999, 5000, 0) == 0.0
        assert sigmoid_mix(5000, 5000, 0) == 1.0

    def test_monotone(self):
        vals = sigmoid_mix(np.arange(0, 10000, 100), 5000, 800)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] < 0.01 and vals[-1] > 0.99


class TestGenerators:
    def test_sea_rule_example(self):
        # threshold 8: 3 + 4 = 7 <= 8 -> class 1, checked via the full rule
        assert SEA_THRESHOLDS[0] == 8.0
        cfg = ConceptStreamConfig(generator="sea", concept_a=0, concept_b=0, label_noise=0.0,
                                  train_size=2000, seed=3)
        train, _ = gen_concept_stream(cfg)
        want = (train.X[:, 0] + train.X[:, 1] <= 8.0).astype(int)
        assert np.array_equal(train.y, want)
        assert want[(train.X[:, 0] + train.X[:, 1] <= 8.0)].all()

    def test_sea_thresholds_tuple(self):
        assert SEA_THRESHOLDS == (8.0, 9.0, 7.0, 9.5)

    def test_agrawal_function_zero_predicate(self):
        X = np.zeros((3, 9))
        X[:, 2] = [30, 50, 65]  # age
        got = _agrawal_group_a(X, 0)
        assert got.tolist() == [True, False, True]

    def test_agrawal_function_five_total_salary(self):
        X = np.zeros((2, 9))
        X[0, 0], X[0, 1], X[0, 2] = 60000, 20000, 30  # total 80k, young
        X[1, 0], X[1, 1], X[1, 2] = 40000, 5000, 30  # total 45k, young
        got = _agrawal_group_a(X, 5)
        assert got.tolist() == [True, False]

    def test_agrawal_train_labels_match_function(self):
        cfg = ConceptStreamConfig(generator="agrawal", concept_a=6, concept_b=6,
                                  label_noise=0.0, train_size=500, seed=9)
        train, _ = gen_concept_stream(cfg)
        want = np.where(_agrawal_group_a(train.X, 6), 0, 1)
        assert np.array_equal(train.y, want)

    def test_led_pure_patterns_at_zero_swap(self):
        cfg = ConceptStreamConfig(generator="led", concept_a=0, concept_b=0,
                                  label_noise=0.0, train_size=300, seed=5)
        train, _ = gen_concept_stream(cfg)
        segs = train.X[:, :7].astype(int)
        for row, digit in zip(segs, train.y):
            assert np.array_equal(row, LED_PATTERNS[digit])

    def test_led_swap_moves_segments(self):
        cfg = ConceptStreamConfig(generator="led", concept_a=3, concept_b=3,
                                  label_noise=0.0, train_size=300, seed=5)
        train, _ = gen_concept_stream(cfg)
        # swapped first 3 segments live at irr0..irr2 (columns 7..9)
        restored = train.X.copy()
        restored[:, [0, 1, 2]], restored[:, [7, 8, 9]] = (
            train.X[:, [7, 8, 9]],
            train.X[:, [0, 1, 2]],
        )
        for row, digit in zip(restored[:, :7].astype(int), train.y):
            assert np.array_equal(row, LED_PATTERNS[digit])

    def test_hyperplane_rule(self):
        cfg = ConceptStreamConfig(generator="hyperplane", concept_a=4, concept_b=4,
                                  label_noise=0.0, train_size=400, seed=2)
        train, _ = gen_concept_stream(cfg)
        w = _hyperplane_weights(4)
        want = (train.X @ w >= w.sum() / 2).astype(int)
        assert np.array_equal(train.y, want)

    def test_seed_determinism_byte_identical(self):
        cfg = ConceptStreamConfig(generator="agrawal", concept_a=0, concept_b=3, seed=11)
        t1, s1 = gen_concept_stream(cfg)
        t2, s2 = gen_concept_stream(cfg)
        assert t1.X.tobytes() == t2.X.tobytes()
        assert t1.y.tobytes() == t2.y.tobytes()
        assert s1.X.tobytes() == s2.X.tobytes()
        assert s1.y.tobytes() == s2.y.tobytes()

    def test_invalid_concept_rejected(self):
        with pytest.raises(ValueError):
            ConceptStreamConfig(generator="sea", concept_a=0, concept_b=4)
        with pytest.raises(ValueError):
            ConceptStreamConfig(generator="unknown")

    def test_stream_mixes_concepts_after_center(self):
        cfg = ConceptStreamConfig(generator="sea", concept_a=0, concept_b=2,
                                  label_noise=0.0, drift_center=2000, drift_width=400,
                                  n_batches=20, batch_size=200, seed=7)
        _, stream = gen_concept_stream(cfg)
        assert len(stream.y) == 20 * 200
        # after the drift the labels of the last batch follow threshold 7, not 8
        late_X, late_y = stream.X[-200:], stream.y[-200:]
        want_b = (late_X[:, 0] + late_X[:, 1] <= 7.0).astype(int)
        assert np.array_equal(late_y, want_b)


def _catalog_and_batches(n_per_batch=40, n_batches=25):
    rng = np.random.default_rng(0)
    records = []
    for _ in range(200):
        records.append({"g": "a" if rng.random() < 0.5 else "b"})
    catalog = build_catalog(records)
    batches = []
    k = 0
    for _ in range(n_batches):
        batch = []
        for _ in range(n_per_batch):
            batch.append({"g": "a" if k % 2 == 0 else "b", "y": k % 2})
            k += 1
        batches.append(batch)
    return catalog, batches


def flip_batches(batches, catalog, schedule, seed):
    """Label flips of record batches by the column path that ``inject`` and
    the injection experiments take: the flipped batches and their masks."""
    records = [rec for batch in batches for rec in batch]
    table = ColumnData(records)
    ends = np.cumsum([len(batch) for batch in batches])
    bounds = list(zip([0, *ends[:-1]], ends))
    cover = _target_cover(table.point_matrix(np.arange(table.n), catalog), schedule.target_subgroup)
    y, mask = _inject_flips_columns(table.y, cover, bounds, schedule, seed)
    out = [{**rec, "y": int(label)} for rec, label in zip(records, y)]
    return [out[lo:hi] for lo, hi in bounds], [mask[lo:hi] for lo, hi in bounds]


class TestInjectLabelFlip:
    def test_normal_batches_unchanged(self):
        catalog, batches = _catalog_and_batches()
        target = (catalog.id_of("g", "a"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=1.0)
        out, masks = flip_batches(batches, catalog, schedule, seed=1)
        for b in range(10):
            assert masks[b].sum() == 0
            assert [r["y"] for r in out[b]] == [r["y"] for r in batches[b]]

    def test_drift_batches_flip_all_covered_at_p1(self):
        catalog, batches = _catalog_and_batches()
        target = (catalog.id_of("g", "a"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=1.0)
        out, masks = flip_batches(batches, catalog, schedule, seed=1)
        for b in range(20, 25):
            covered = np.array([r["g"] == "a" for r in batches[b]])
            assert np.array_equal(masks[b], covered)
            for rec, orig, m in zip(out[b], batches[b], masks[b]):
                assert rec["y"] == (1 - orig["y"] if m else orig["y"])

    def test_flips_only_inside_target(self):
        catalog, batches = _catalog_and_batches()
        target = (catalog.id_of("g", "a"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=0.7)
        out, masks = flip_batches(batches, catalog, schedule, seed=3)
        for batch, mask in zip(batches, masks):
            uncovered = np.array([r["g"] != "a" for r in batch])
            assert not (mask & uncovered).any()

    def test_transition_ramp_fraction(self):
        # batch index 14 is transition step k=5 of 10: p = 0.8 * 5/10 = 0.4
        schedule = DriftSchedule(target_subgroup=(0,), p_max=0.8)
        assert flip_probability(schedule, 14) == pytest.approx(0.4)
        catalog, _ = _catalog_and_batches()
        target = (catalog.id_of("g", "a"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=0.8)
        small = [[{"g": "a", "y": 0}] for _ in range(14)]
        big = [{"g": "a", "y": 0} for _ in range(10000)]
        _, masks = flip_batches(small + [big], catalog, schedule, seed=5)
        frac = masks[14].mean()
        assert abs(frac - 0.4) <= 0.02

    def test_sigmoid_ramp_monotone(self):
        schedule = DriftSchedule(target_subgroup=(0,), p_max=0.8, ramp="sigmoid")
        ps = [flip_probability(schedule, b) for b in range(30)]
        assert all(p == 0 for p in ps[:10])
        assert all(np.diff(ps[10:20]) >= 0)
        assert all(p == 0.8 for p in ps[20:])

    def test_zero_coverage_error(self):
        catalog, batches = _catalog_and_batches()
        bogus = (catalog.id_of("g", "a"), catalog.id_of("g", "b"))  # contradictory
        schedule = DriftSchedule(target_subgroup=bogus, p_max=0.5)
        with pytest.raises(ValueError, match="covers no instance"):
            flip_batches(batches, catalog, schedule, seed=0)

    def test_metadata_and_count_preserved(self):
        catalog, batches = _catalog_and_batches()
        target = (catalog.id_of("g", "b"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=0.9)
        out, masks = flip_batches(batches, catalog, schedule, seed=9)
        assert sum(len(b) for b in out) == sum(len(b) for b in batches)
        for ob, ib in zip(out, batches):
            for o, i in zip(ob, ib):
                assert o["g"] == i["g"]


class TestTree:
    def test_separable_1d_depth_1(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = fit_tree(X, y, max_depth=1)
        assert np.array_equal(model.predict(X), y)

    def test_xor_depth_2(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = fit_tree(X, y, max_depth=2)
        assert np.array_equal(model.predict(X), y)

    def test_depth_zero_majority(self):
        X = np.random.default_rng(0).random((100, 3))
        y = np.array([0] * 70 + [1] * 30)
        model = fit_tree(X, y, max_depth=0)
        assert np.all(model.predict(X) == 0)

    def test_single_class_warns_and_is_constant(self):
        X = np.random.default_rng(0).random((10, 2))
        y = np.ones(10, dtype=int)
        with pytest.warns(UserWarning, match="single class"):
            model = fit_tree(X, y, max_depth=3)
        assert np.all(model.predict(X) == 1)

    def test_deterministic_across_fits(self):
        rng = np.random.default_rng(13)
        X = rng.random((500, 5))
        y = (X[:, 0] + 0.3 * X[:, 3] > 0.8).astype(int)
        m1 = fit_tree(X, y, max_depth=4)
        m2 = fit_tree(X, y, max_depth=4)
        probe = rng.random((200, 5))
        assert np.array_equal(m1.predict(probe), m2.predict(probe))

    def test_tie_break_prefers_lowest_feature(self):
        # both features separate equally; feature 0 must be chosen
        X = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0, 0, 1, 1])
        model = fit_tree(X, y, max_depth=1)
        assert model.root.feature == 0

    def test_multiclass_gini(self):
        rng = np.random.default_rng(3)
        X = rng.random((600, 2))
        y = (X[:, 0] > 0.5).astype(int) + 2 * (X[:, 1] > 0.5).astype(int)
        model = fit_tree(X, y, max_depth=2)
        assert (model.predict(X) == y).mean() > 0.95


class TestTreeInputShapes:
    @pytest.mark.parametrize("X", [np.zeros(10), np.zeros((10, 2, 1))])
    def test_x_not_2d(self, X):
        with pytest.raises(ValueError, match=r"2-D.*\(10,"):
            fit_tree(X, np.arange(10) % 2)

    @pytest.mark.parametrize("n_rows, n_labels", [(10, 20), (20, 10)])
    def test_length_mismatch(self, n_rows, n_labels):
        with pytest.raises(ValueError, match=rf"\({n_rows}, 3\).*\({n_labels},\)"):
            fit_tree(np.zeros((n_rows, 3)), np.arange(n_labels) % 2)

    def test_no_rows(self):
        with pytest.raises(ValueError, match=r"zero rows.*\(0, 3\)"):
            fit_tree(np.zeros((0, 3)), np.zeros(0, dtype=int))


def assert_same_tree(new, old):
    """Node for node: feature, bit-equal threshold and prediction."""
    assert new.max_depth == old.max_depth and np.array_equal(new.classes, old.classes)
    pairs = [(new.root, old.root)]
    while pairs:
        a, b = pairs.pop()
        assert (a.is_leaf, a.feature, a.prediction) == (b.is_leaf, b.feature, b.prediction)
        assert struct.pack("<d", a.threshold) == struct.pack("<d", b.threshold)
        if not a.is_leaf:
            pairs += [(a.left, b.left), (a.right, b.right)]


def assert_fits_match(X, y, depth):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # both warn on a single class
        assert_same_tree(fit_tree(X, y, depth), rowpath.fit_tree_recursive(X, y, depth))


# duplicates, signed zeros, infinities (whose midpoints overflow or are NaN)
# and NaN, with neighbouring floats whose midpoint rounds onto a value
_TREE_VALUES = [-2.0, -0.0, 0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 3.0, 1.7e308, np.inf, -np.inf, np.nan]


@st.composite
def tree_fits(draw):
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(_TREE_VALUES), st.floats(-10, 10, width=16))
    X = np.array(draw(st.lists(value, min_size=n * n_features, max_size=n * n_features))).reshape(n, n_features)
    labels = draw(st.sampled_from([(0, 1), (-1, 3, 7), (2, 4, 5, 9)]))
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))
    return X, y, draw(st.integers(0, 9))


class TestTreeMatchesRecursiveFit:
    @given(tree_fits())
    @settings(max_examples=200)
    def test_random_fits(self, case):
        assert_fits_match(*case)

    @pytest.mark.parametrize("depth", range(10))
    def test_fixed_cases(self, depth):
        rng = np.random.default_rng(depth)
        dup = rng.integers(0, 4, (60, 3)).astype(float)
        dup[:, 1] = 5.0  # a constant column
        assert_fits_match(dup, rng.integers(0, 2, 60), depth)
        assert_fits_match(rng.random((80, 2)), np.array([-1, 3, 7])[rng.integers(0, 3, 80)], depth)
        assert_fits_match(np.array([[2.0, np.nan]]), np.array([7]), depth)
        zeros = rng.choice([-0.0, 0.0, np.nan, 1.0], (50, 2))
        assert_fits_match(zeros, rng.integers(0, 2, 50), depth)

    @pytest.mark.parametrize("d", [10, 17])
    def test_parity_grows_complete_levels(self, d):
        # y is the parity of d bits, so every cut of a node ties and it splits
        # on its lowest unused bit: depth j has 2**j open nodes, which needs
        # node keys wider than one byte at d = 10 and than two at d = 17
        bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
        X, y = bits.astype(float), bits.sum(1) % 2
        model = fit_tree(X, y, d)
        level = [model.root]
        for depth in range(d):
            assert [node.feature for node in level] == [depth] * 2**depth
            level = [child for node in level for child in (node.left, node.right)]
        assert all(node.is_leaf for node in level)
        assert np.array_equal(model.predict(X), y)
        if d == 10:
            assert_same_tree(model, rowpath.fit_tree_recursive(X, y, d))

    def test_census_surrogate_depth_8_on_the_injection_split(self):
        cols = ColumnData(census_sample(seed=0))
        perm = np.random.default_rng(np.random.SeedSequence([_INJECT_SALT, 1])).permutation(cols.n)
        train = perm[: cols.n // 2]
        assert_fits_match(cols.feature_matrix()[train], cols.y[train], 8)
