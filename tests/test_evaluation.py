import dataclasses
import math

import numpy as np
import pytest
import rowpath

from driftscope import evaluation
from driftscope.baselines import make_detector
from driftscope.catalog import ItemCatalog, build_catalog
from driftscope.evaluation import (
    ColumnData,
    ExperimentResult,
    correlations,
    detection_scores,
    ndcg_at_k,
    run_concept_experiment,
    run_concept_suite,
    run_injection_experiment,
    run_injection_suite,
    timing_bench,
    youden_sweep,
)
from driftscope.mining import MiningConfig, mine_frequent
from driftscope.streams import DriftSchedule
from driftscope.datasets import census_sample


def exp(kind, detected, max_ts=()):
    return ExperimentResult(kind=kind, detected=detected, batch_max_t=list(max_ts), seed=0)


class TestDetectionScores:
    def test_perfect(self):
        results = [exp("positive", True)] * 5 + [exp("negative", False)] * 5
        s = detection_scores(results)
        assert s == {"accuracy": 1.0, "f1": 1.0, "fpr": 0.0, "fnr": 0.0}

    def test_nothing_flagged_balanced(self):
        results = [exp("positive", False)] * 5 + [exp("negative", False)] * 5
        s = detection_scores(results)
        assert s["accuracy"] == 0.5
        assert s["f1"] == 0.0
        assert s["fnr"] == 1.0
        assert s["fpr"] == 0.0

    def test_one_sided_suites_report_absent_rates(self):
        s = detection_scores([exp("positive", True)] * 3)
        assert s["fpr"] is None
        assert s["fnr"] == 0.0
        s = detection_scores([exp("negative", False)] * 3)
        assert s["fnr"] is None

    def test_baseline_outcome_override(self):
        r = exp("positive", False)
        r.baseline_detected["ddm"] = True
        s = detection_scores([r, exp("negative", False)], outcome=lambda e: e.baseline_detected.get("ddm", False))
        assert s["fnr"] == 0.0


class TestNdcg:
    def test_perfect_ordering(self):
        assert ndcg_at_k([1.0, 0.5, 0.25], 3) == pytest.approx(1.0)

    def test_reversed_ordering_hand_computed(self):
        rel = [0.25, 0.5, 1.0]
        dcg = sum(r / math.log2(i + 2) for i, r in enumerate(rel))
        idcg = sum(r / math.log2(i + 2) for i, r in enumerate(sorted(rel, reverse=True)))
        assert dcg == pytest.approx(1.0655, abs=1e-4)
        assert idcg == pytest.approx(1.4405, abs=1e-4)
        assert ndcg_at_k(rel, 3) == pytest.approx(dcg / idcg)
        assert ndcg_at_k(rel, 3) == pytest.approx(0.7397, abs=2e-4)

    def test_all_zero_relevance_is_one(self):
        assert ndcg_at_k([0.0, 0.0, 0.0], 10) == 1.0

    def test_k_truncation(self):
        assert ndcg_at_k([0.0, 1.0], 1) == 0.0
        assert ndcg_at_k([1.0, 0.0], 1) == 1.0

    def test_permutation_bounded_by_one(self):
        rng = np.random.default_rng(0)
        rel = rng.random(30)
        best = np.sort(rel)[::-1]
        for _ in range(50):
            perm = rng.permutation(rel)
            assert ndcg_at_k(perm, 10) <= 1.0 + 1e-12
        assert ndcg_at_k(best, 10) == pytest.approx(1.0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1.0], 0)


class TestCorrelations:
    def test_identical_and_negated(self):
        rel = [0.1, 0.5, 0.9, 0.3]
        c = correlations(rel, rel)
        assert c["pearson"] == pytest.approx(1.0)
        assert c["spearman"] == pytest.approx(1.0)
        c = correlations(rel, [-x for x in rel])
        assert c["pearson"] == pytest.approx(-1.0)
        assert c["spearman"] == pytest.approx(-1.0)

    def test_random_pairing_small(self):
        rng = np.random.default_rng(1)
        c = correlations(rng.random(1000), rng.random(1000))
        assert abs(c["pearson"]) < 0.1
        assert abs(c["spearman"]) < 0.1

    def test_constant_vector_undefined(self):
        c = correlations([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        assert c == {"pearson": None, "spearman": None}

    def test_spearman_average_ranks_on_ties(self):
        # hand-computed: x ranks (1.5, 1.5, 3), y ranks (1, 2, 3)
        x = [5.0, 5.0, 9.0]
        y = [1.0, 2.0, 3.0]
        rx, ry = np.array([1.5, 1.5, 3.0]), np.array([1.0, 2.0, 3.0])
        want = np.corrcoef(rx, ry)[0, 1]
        assert correlations(x, y)["spearman"] == pytest.approx(want)

    def test_average_ranks_equal_scipy_rankdata(self):
        from scipy.stats import rankdata

        from driftscope.evaluation import _average_ranks

        rng = np.random.default_rng(4)
        for n in (2, 3, 10, 97, 1000):
            for n_values in (1, 2, 5, n):  # from all ties to mostly distinct
                x = rng.integers(0, n_values, size=n) / 7.0
                assert np.array_equal(_average_ranks(x), rankdata(x))
        x = rng.random(500)
        assert np.array_equal(_average_ranks(x), rankdata(x))


class TestYouden:
    def test_perfect_threshold_selected(self):
        results = [exp("positive", True, [9.0]), exp("negative", False, [2.0])]
        tau = youden_sweep(results, [1.0, 5.0, 20.0])
        assert tau == 5.0  # separates 9 from 2; 1.0 has FPR 1, 20 has TPR 0

    def test_ties_take_larger_tau(self):
        results = [exp("positive", True, [50.0]), exp("negative", False, [0.1])]
        tau = youden_sweep(results, [1.0, 2.0, 5.0])
        assert tau == 5.0

    def test_invariant_to_duplicated_balanced_experiments(self):
        base = [exp("positive", True, [9.0]), exp("negative", False, [2.0])]
        more = base + [exp("positive", True, [9.0]), exp("negative", False, [2.0])]
        grid = [0.5, 3.0, 8.0]
        assert youden_sweep(base, grid) == youden_sweep(more, grid)


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(21)
    out = []
    for _ in range(400):
        out.append(
            {
                "num": float(rng.normal(10, 3)) if rng.random() > 0.05 else "?",
                "cat": str(rng.choice(["x", "y", "z", "w"])),
                "low": int(rng.integers(0, 2)),
                "y": int(rng.integers(0, 2)),
            }
        )
    return out


@pytest.fixture(scope="module")
def small_rows():
    return census_sample(n=3000, seed=5)


def _without_items(catalog, labels):
    """``catalog`` without the items of the given labels, ids renumbered."""
    d = catalog.to_dict()
    kept = [e for e in d["items"] if f"{e['attribute']}={e['value']}" not in labels]
    d["items"] = [dict(e, id=k) for k, e in enumerate(kept)]
    return ItemCatalog.from_dict(d)


class TestColumnFastPath:

    def test_point_matrix_matches_record_encoding(self, rows):
        cols = ColumnData(rows)
        train_idx = np.arange(0, 200)
        test_idx = np.arange(200, 400)
        full = cols.build_catalog(train_idx, bins=4)
        num = [it.label for it in full.items if it.attribute == "num"]
        low = [it.label for it in full.items if it.attribute == "low"]
        # a middle quantile bin and a categorical value missing, then an
        # attribute with no items at all: ids stop following the bins
        for drop in ((), (num[1], "cat=y"), (num[1], "cat=y", *low)):
            catalog = _without_items(full, drop)
            P = cols.point_matrix(test_idx, catalog).toarray()
            for r, i in enumerate(test_idx):
                ids = catalog.encode(rows[i])
                row = np.zeros(catalog.n_items)
                row[list(ids)] = 1
                assert np.array_equal(P[r], row), f"drop {drop}: row {i}"

    @pytest.mark.parametrize(
        "case", ["absent attribute", "text in a quantile column", "JSON boolean in a quantile column"]
    )
    def test_point_matrix_matches_encode_on_stream_tables(self, rows, case):
        catalog = ColumnData(rows).build_catalog(np.arange(200), bins=4)
        categorical = frozenset(a for a, d in catalog.discretizers.items() if d.kind == "categorical")
        rng = np.random.default_rng(len(case))
        nums = ["9.5", " 11 ", "-40", "1e9", "nan", "inf", "", "?", "7"]
        texts = {
            "text in a quantile column": ["forty", "1.2.3", "ten"],
            "JSON boolean in a quantile column": [True, False],  # text, so in no bin
        }.get(case, [])

        def pick(values):
            return values[rng.integers(len(values))]

        stream = []
        for _ in range(300):
            rec = {
                "num": pick(nums + texts),
                "cat": pick(["x", " y ", "z", "v", "NA"]),
                "low": pick(["0", "1", " 1 "] + texts),
                "y": "1",
            }
            if case == "absent attribute":
                del rec["cat"]
            stream.append(rec)
        columns = {a: [rec[a] for rec in stream] for a in stream[0]}
        table = ColumnData.from_columns(columns, categorical=categorical)
        P = table.point_matrix(np.arange(table.n), catalog).toarray()
        for r, rec in enumerate(stream):
            row = np.zeros(catalog.n_items)
            row[list(catalog.encode_with_stats(rec)[0])] = 1
            assert np.array_equal(P[r], row), rec

    def test_point_matrix_of_a_categorical_attribute_typed_numeric_names_it(self, rows):
        catalog = ColumnData(rows, categorical=frozenset({"low"})).build_catalog(np.arange(200))
        with pytest.raises(ValueError, match="'low' is categorical in the catalog, numeric in the table"):
            ColumnData(rows).point_matrix(np.arange(10), catalog)

    def test_catalog_equivalent_to_record_builder(self, rows):
        cols = ColumnData(rows)
        idx = np.arange(0, 250)
        via_cols = cols.build_catalog(idx, bins=4)
        records = [{k: v for k, v in rows[i].items() if k != "y"} for i in idx]
        via_records = build_catalog(records, default_bins=4)
        assert [it.label for it in via_cols.items] == [it.label for it in via_records.items]
        categorical = {a: "categorical" for a in cols.codes}
        for sl in (idx, np.arange(0, 400, 7)[::-1], np.array([3])):
            assert cols.build_catalog(sl, bins=3).to_dict() == build_catalog(
                cols.records(sl), binning_config=categorical, default_bins=3
            ).to_dict()

    def test_factorized_strings_equal_np_unique(self, rows):
        cols = ColumnData(rows, categorical=frozenset({"num", "low"}))
        for a in ("num", "cat", "low"):
            strings = np.array(
                ["" if rows[i][a] in ("?", None) else str(rows[i][a]).strip() for i in range(len(rows))],
                dtype=object,
            )
            uniques, codes = np.unique(strings, return_inverse=True)
            assert cols.uniques[a].tolist() == uniques.tolist()
            assert np.array_equal(cols.codes[a], codes)

    def test_catalog_keeps_attribute_types_of_the_full_data(self):
        # "code" is categorical over the full data because of one value
        # outside the training slice; inside the slice every value is numeric
        data = [{"code": str(10 + i % 5), "g": "ab"[i % 2], "y": i % 2} for i in range(40)]
        data[39]["code"] = "n/a-code"
        cols = ColumnData(data)
        train = np.arange(30)
        catalog = cols.build_catalog(train, bins=4)
        assert catalog.discretizers["code"].kind == "categorical"
        assert [it.value for it in catalog.items if it.attribute == "code"] == ["10", "11", "12", "13", "14"]
        P = cols.point_matrix(np.arange(40), catalog).toarray()
        assert P[:39].sum(axis=1).tolist() == [2] * 39 and P[39].sum() == 1

    def test_array_flips_match_record_injection(self, rows):
        cols = ColumnData(rows)
        idx = np.arange(cols.n)
        catalog = cols.build_catalog(idx, bins=4)
        target = (catalog.id_of("cat", "x"),)
        schedule = DriftSchedule(target_subgroup=target, p_max=0.7,
                                 normal_batches=2, transition_batches=2, drift_batches=2)
        bounds = [(0, 80), (80, 160), (160, 240), (240, 320), (320, 360), (360, 400)]
        batches = [[rows[i] for i in range(lo, hi)] for lo, hi in bounds]
        _, rec_masks = rowpath.inject_label_flip(batches, catalog, schedule, seed=77)

        from driftscope.evaluation import _inject_flips_columns

        P = cols.point_matrix(idx, catalog)
        cover = P.toarray()[:, list(target)].sum(axis=1) == 1
        _, arr_mask = _inject_flips_columns(cols.y.copy(), cover, bounds, schedule, seed=77)
        assert np.array_equal(arr_mask, np.concatenate(rec_masks))


class TestExperimentSmoke:
    def test_injection_positive_and_negative(self, small_rows):
        cols = ColumnData(small_rows)
        pos, extras = run_injection_experiment(
            cols,
            "positive",
            seed=3,
            support_band=(0.05, 0.25),
            mining=MiningConfig(0.05, max_len=2),
            n_batches=15,
            tree_depth=5,
            baseline_kinds=("ddm",),
            n_random_rankings=20,
            keep_state=True,
        )
        assert pos.kind == "positive"
        assert pos.target_support is not None
        assert 0.0 <= (pos.ndcg_at_10 or 0) <= 1.0
        assert len(pos.random_ndcg_samples) == 20
        assert extras is not None
        assert extras.final_report.n_subgroups == len(extras.sgcat)
        assert "ddm" in pos.baseline_detected

        neg, _ = run_injection_experiment(
            cols,
            "negative",
            seed=4,
            mining=MiningConfig(0.05, max_len=2),
            n_batches=15,
            tree_depth=5,
            baseline_kinds=(),
        )
        assert neg.target_support is None
        assert neg.ndcg_at_10 is None

    def test_injected_flips_stay_inside_the_target(self, small_rows):
        # the flip cover is the AND of the target items' bitmaps, so a subgroup
        # holding another value of a target item's attribute sees no flip
        cols = ColumnData(small_rows)
        for seed in range(3, 40):
            pos, extras = run_injection_experiment(
                cols, "positive", seed=seed, support_band=(0.05, 0.25),
                mining=MiningConfig(0.05, max_len=2), n_batches=15, tree_depth=4,
                baseline_kinds=(), n_random_rankings=0, keep_state=True,
            )
            if len(pos.target_items) >= 2:
                break
        else:
            pytest.fail("no two-item target in the seeds tried")
        attrs = extras.catalog.item_attributes()
        target = set(pos.target_items)
        target_attrs = {attrs[i] for i in target}
        excluded = [
            sg.index for sg in extras.sgcat.subgroups
            if any(attrs[i] in target_attrs and i not in target for i in sg.item_ids)
        ]
        assert excluded
        assert not extras.relevance[excluded].any()
        assert extras.relevance[extras.sgcat.indices_of([sorted(target)])[0]] > 0

    def test_injection_deterministic(self, small_rows):
        cols = ColumnData(small_rows)
        kw = dict(
            support_band=(0.05, 0.25),
            mining=MiningConfig(0.05, max_len=2),
            n_batches=15,
            tree_depth=4,
            baseline_kinds=(),
            n_random_rankings=5,
        )
        r1, _ = run_injection_experiment(cols, "positive", seed=9, **kw)
        r2, _ = run_injection_experiment(cols, "positive", seed=9, **kw)
        assert r1.batch_max_t == r2.batch_max_t
        assert r1.target_items == r2.target_items
        assert r1.ndcg_at_10 == r2.ndcg_at_10

    def test_concept_experiment_smoke(self):
        res = run_concept_experiment(
            "sea",
            "positive",
            seed=1,
            mining=MiningConfig(0.1, max_len=2),
            train_size=1200,
            n_batches=16,
            batch_size=100,
            drift_center=800,
            drift_width=200,
            keep_reports=True,
        )
        assert res.kind == "positive"
        assert len(res.batch_max_t) == 16 - 5
        assert res.report_jsonl
        neg = run_concept_experiment(
            "sea",
            "negative",
            seed=1,
            mining=MiningConfig(0.1, max_len=2),
            train_size=1200,
            n_batches=16,
            batch_size=100,
        )
        assert neg.kind == "negative"


_SMALL_CONCEPT = dict(
    mining=MiningConfig(0.1, max_len=2),
    train_size=1200,
    n_batches=16,
    batch_size=100,
    drift_center=800,
    drift_width=200,
)


class TestExperimentCore:
    @pytest.mark.parametrize("generator", ["sea", "agrawal", "led", "hyperplane"])
    @pytest.mark.parametrize("kind", ["positive", "negative"])
    def test_concept_experiment_matches_per_batch_row_path(self, generator, kind):
        kw = dict(_SMALL_CONCEPT, keep_reports=True, baseline_kinds=("ddm", "adwin"))
        got = run_concept_experiment(generator, kind, seed=2, **kw)
        want = rowpath.concept_experiment(generator, kind, seed=2, **kw)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got.report_jsonl.count("\n") == 15 and set(got.baseline_detected) == {"ddm", "adwin"}

    def test_concept_suite_pool_equals_serial(self):
        kw = dict(_SMALL_CONCEPT, n_positive=2, n_negative=1, seed=4, keep_reports=True, baseline_kinds=("ddm",))
        serial = run_concept_suite("sea", threads=1, **kw)
        pooled = run_concept_suite("sea", threads=2, **kw)
        assert [r.kind for r in serial] == ["positive", "positive", "negative"]
        assert [dataclasses.asdict(r) for r in pooled] == [dataclasses.asdict(r) for r in serial]

    def test_injection_suite_pool_equals_serial(self, small_rows):
        cols = ColumnData(small_rows)
        kw = dict(
            n_positive=2,
            n_negative=1,
            seed=3,
            support_band=(0.05, 0.25),
            mining=MiningConfig(0.05, max_len=2),
            n_batches=15,
            tree_depth=4,
            baseline_kinds=("ddm", "adwin"),
            n_random_rankings=5,
        )
        serial, serial_extras = run_injection_suite(cols, threads=1, **kw)
        pooled, pooled_extras = run_injection_suite(cols, threads=2, **kw)
        assert [r.kind for r in serial] == ["positive", "positive", "negative"]
        assert [dataclasses.asdict(r) for r in pooled] == [dataclasses.asdict(r) for r in serial]
        assert np.array_equal(pooled_extras.relevance, serial_extras.relevance)
        assert np.array_equal(pooled_extras.final_report.t_values, serial_extras.final_report.t_values)
        assert pooled_extras.sgcat.to_dict() == serial_extras.sgcat.to_dict()


def test_timing_bench_shape(rows):
    out = timing_bench(ColumnData(rows), 0.1, detector_kinds=("ddm",), reps=2)
    assert set(out) == {"driftscope", "ddm"}
    for v in out.values():
        assert v["seconds_per_batch"] >= 0.0
        assert v["seconds_per_sample"] >= 0.0
        assert v["n_subgroups"] == out["driftscope"]["n_subgroups"] > 1


def test_timing_bench_mines_the_first_half_of_its_seeded_split(small_rows):
    cols = ColumnData(small_rows)
    out = timing_bench(cols, 0.05, seed=3, detector_kinds=(), reps=1)
    train_idx = np.random.default_rng(3).permutation(cols.n)[: cols.n // 2]
    catalog = cols.build_catalog(train_idx)
    sgcat = mine_frequent(
        cols.point_matrix(train_idx, catalog), MiningConfig(0.05, max_len=3), item_attrs=catalog.item_attributes()
    )
    assert out == {"driftscope": dict(out["driftscope"], n_subgroups=len(sgcat))}


def test_census_suites_share_one_ddm_setting(small_rows, monkeypatch):
    # the injection and timing suites run DDM as acceptance criterion 9 gates
    # it; the concept suites use its defaults
    built = []

    def recording(kind, **params):
        built.append((kind, params))
        return make_detector(kind, **params)

    monkeypatch.setattr(evaluation, "make_detector", recording)
    cols = ColumnData(small_rows)
    timing_bench(cols, 0.05, detector_kinds=("ddm",), reps=1)
    run_injection_experiment(
        cols, "negative", seed=4, mining=MiningConfig(0.05, max_len=2), n_batches=15, tree_depth=4,
        baseline_kinds=("ddm",),
    )
    assert len(built) > 2
    assert all(b == ("ddm", {"min_samples": 4000}) for b in built)
    built.clear()
    run_concept_experiment("sea", "negative", seed=1, baseline_kinds=("ddm",), **_SMALL_CONCEPT)
    assert built == [("ddm", {})]
