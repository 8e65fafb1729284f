import csv
import io
import json
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

import rowpath
from driftscope import catalog
from driftscope.catalog import (
    MISSING_VALUES,
    RESERVED_COLUMNS,
    ColumnData,
    DataError,
    Item,
    ItemCatalog,
    MetricSpec,
    _Discretizer,
    build_catalog,
    read_columns,
    read_rows,
    _fmt_number,
)
from driftscope.cli import main
from driftscope.datasets import census_sample


def test_categorical_passthrough_two_items():
    records = [{"gender": "male"}, {"gender": "female"}, {"gender": "male"}]
    cat = build_catalog(records)
    assert cat.n_items == 2
    assert {it.label for it in cat.items} == {"gender=male", "gender=female"}


def test_quantile_bins_of_1_to_100_match_direct_sort():
    # oracle: equal-frequency cut points of 1..100 by direct sort are 25/50/75
    values = list(range(1, 101))
    srt = sorted(values)
    expected_edges = [srt[(len(srt) - 1) * k // 4] for k in (1, 2, 3)]
    assert expected_edges == [25, 50, 75]

    records = [{"age": v} for v in values]
    cat = build_catalog(records, binning_config={"age": ("quantile", 4)})
    labels = sorted(it.value for it in cat.items)
    assert labels == sorted(["[1,25]", "(25,50]", "(50,75]", "(75,100]"])


def test_zero_records_error():
    with pytest.raises(ValueError):
        build_catalog([])


def test_all_missing_attribute_names_attribute():
    records = [{"a": "x", "b": "?"}, {"a": "y", "b": ""}]
    with pytest.raises(DataError, match="'b'"):
        build_catalog(records)


def test_encode_example_gender_age():
    records = [{"gender": g, "age": a} for g, a in zip(["male", "female"] * 50, range(1, 101))]
    cat = build_catalog(records, binning_config={"age": ("quantile", 4)})
    ids = cat.encode({"gender": "female", "age": 30})
    expect = {cat.id_of("gender", "female"), cat.id_of("age", "(25,50]")}
    assert set(ids) == expect
    assert list(ids) == sorted(ids)


def test_encode_empty_record_and_unseen_value():
    cat = build_catalog([{"gender": "male"}, {"gender": "female"}])
    assert cat.encode({}) == ()
    ids, skipped = cat.encode_with_stats({"gender": "unknown_value"})
    assert ids == ()
    assert skipped == 1


def test_encode_missing_value_produces_no_item():
    cat = build_catalog([{"gender": "male", "city": "x"}, {"gender": "female", "city": "y"}])
    ids, skipped = cat.encode_with_stats({"gender": "male", "city": "?"})
    assert ids == (cat.id_of("gender", "male"),)
    assert skipped == 0  # missing is not "skipped", it is simply absent


def test_encode_deterministic():
    records = [{"g": "m", "age": v} for v in range(1, 51)]
    cat = build_catalog(records)
    rec = {"g": "m", "age": 17}
    assert cat.encode(rec) == cat.encode(rec)


def test_quantile_partition_covers_every_reference_value():
    import random

    rng = random.Random(7)
    values = [rng.uniform(-50, 50) for _ in range(500)]
    records = [{"x": v} for v in values]
    cat = build_catalog(records, binning_config={"x": ("quantile", 4)})
    for v in values:
        ids = cat.encode({"x": v})
        assert len(ids) == 1, f"value {v} fell into {len(ids)} bins"


def test_out_of_range_continuous_maps_to_no_item():
    cat = build_catalog([{"x": v} for v in range(10)])
    ids, skipped = cat.encode_with_stats({"x": 99})
    assert ids == () and skipped == 1


def test_low_cardinality_numeric_degrades_to_distinct_bins():
    cat = build_catalog([{"flag": v} for v in [0, 1, 0, 1, 1]])
    assert cat.n_items == 2
    (a,) = cat.encode({"flag": 0})
    (b,) = cat.encode({"flag": 1})
    assert a != b


def test_catalog_json_round_trip():
    records = [{"g": ["m", "f"][i % 2], "age": i + 1} for i in range(100)]
    cat = build_catalog(records)
    clone = ItemCatalog.from_dict(json.loads(json.dumps(cat.to_dict())))
    for rec in records[:10]:
        assert cat.encode(rec) == clone.encode(rec)


def test_items_must_be_listed_in_id_order():
    # label_of reads an item by its position, so a position must be its id
    cat = build_catalog([{"g": ["m", "f"][i % 2]} for i in range(10)])
    with pytest.raises(ValueError, match="item 0 has id 1; items must be listed in id order"):
        ItemCatalog(cat.items[::-1], cat.discretizers)


class TestIngestOutcomes:
    """Outcome rules of :class:`MetricSpec`, and ``monitor``'s ingest of a file."""

    def test_accuracy_spec(self):
        spec = MetricSpec("accuracy")
        assert spec.outcome({"g": "m", "y": "1", "y_hat": "1"}, 1) == (1, 0)
        assert spec.outcome({"g": "f", "y": "0", "y_hat": "1"}, 2) == (0, 1)

    def test_accuracy_alpha_plus_beta_is_one(self):
        spec = MetricSpec("accuracy")
        for y in (0, 1):
            for y_hat in (0, 1):
                assert sum(spec.outcome({"y": y, "y_hat": y_hat}, 1)) == 1

    def test_false_positive_rate_spec(self):
        spec = MetricSpec("false_positive_rate")
        assert spec.outcome({"y": "0", "y_hat": "1"}, 1) == (1, 0)  # false positive
        assert spec.outcome({"y": "0", "y_hat": "0"}, 2) == (0, 1)  # true negative
        assert spec.outcome({"y": "1", "y_hat": "1"}, 3) == (0, 0)  # y=1 rows count as neither

    def test_explicit_spec(self):
        spec = MetricSpec("explicit")
        assert spec.required_columns() == ("alpha", "beta")
        assert spec.outcome({"alpha": "1", "beta": "0"}, 1) == (1, 0)
        assert spec.outcome({"alpha": "0", "beta": "0"}, 2) == (0, 0)
        with pytest.raises(DataError, match="row 3: alpha"):
            spec.outcome({"alpha": "1", "beta": "1"}, 3)

    def test_malformed_row_reports_row_number(self):
        with pytest.raises(DataError, match="row 2"):
            MetricSpec().outcome({"y": "oops", "y_hat": "1"}, 2)
        with pytest.raises(DataError, match="row 5: column 'y_hat' must be 0 or 1"):
            MetricSpec().outcome({"y": "1", "y_hat": "2"}, 5)

    def test_values_other_than_the_exact_texts_take_the_parse(self):
        spec = MetricSpec()
        assert spec.outcome({"y": "1.0", "y_hat": " 1"}, 1) == (1, 0)
        assert spec.outcome({"y": 1, "y_hat": "0.0"}, 2) == (0, 1)
        assert spec.outcome({"y": 1.0, "y_hat": 0}, 3) == (0, 1)
        for value in (True, False, [1], None, "1 1"):
            with pytest.raises(DataError, match="^row 4: column 'y' is not a 0/1 value$"):
                spec.outcome({"y": value, "y_hat": "1"}, 4)
        with pytest.raises(DataError, match="^row 5: column 'y_hat' is not a 0/1 value$"):
            spec.outcome({"y": "1"}, 5)
        with pytest.raises(DataError, match="^row 6: column 'y' must be 0 or 1, got ' 2'$"):
            spec.outcome({"y": " 2", "y_hat": "1"}, 6)
        with pytest.raises(DataError, match="^row 7: column 'y_hat' must be 0 or 1, got 2$"):
            spec.outcome({"y": "1", "y_hat": 2}, 7)

    @pytest.fixture()
    def artifact(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("g\nm\nf\nm\nf\n")
        path = tmp_path / "catalog.json"
        assert main(["mine", "--input", str(ref), "--min-support", "0.1", "--out", str(path)]) == 0
        return path

    def _monitor(self, tmp_path, artifact, name, text):
        data = tmp_path / name
        data.write_text(text)
        out = tmp_path / "reports"
        return main(["monitor", "--catalog", str(artifact), "--input", str(data), "--out", str(out)])

    def test_missing_column_error(self, tmp_path, artifact, caplog):
        assert self._monitor(tmp_path, artifact, "data.csv", "g,y\nm,1\n") == 2
        assert "missing required column(s): y_hat" in caplog.text

    @pytest.mark.parametrize("metric,missing", [("accuracy", "y_hat"), ("explicit", "alpha, beta")])
    def test_bench_missing_column_error(self, tmp_path, caplog, metric, missing):
        data = tmp_path / "data.csv"
        data.write_text("g,y\nm,1\n")
        args = ["bench", "--detector", "fet", "--window-size", "100", "--metric", metric, "--input", str(data)]
        assert main(args) == 2
        assert f"missing required column(s): {missing}" in caplog.text

    def test_jsonl_input_and_skip_stats(self, tmp_path, artifact, caplog):
        caplog.set_level(logging.INFO, logger="driftscope")
        lines = [
            json.dumps({"g": "m", "y": 1, "y_hat": 1}),
            json.dumps({"g": "novel", "y": 0, "y_hat": 1}),
        ]
        assert self._monitor(tmp_path, artifact, "data.jsonl", "\n".join(lines) + "\n") == 0
        assert "ingested 2 rows in 1 batches (1 skipped values)" in caplog.text


# --- table-driven encoder against the label-based encoder it replaced -------


def _label_encode_with_stats(cat, record):
    """Oracle: format the value's bin label, then look (attribute, label) up."""

    def bin_label(disc, x):
        if x < disc.lo or x > disc.hi:
            return None
        bounds = (disc.lo, *disc.edges, disc.hi)
        for i in range(len(bounds) - 1):
            left, right = bounds[i], bounds[i + 1]
            if (x >= left if i == 0 else x > left) and x <= right:
                return f"{'[' if i == 0 else '('}{_fmt_number(left)},{_fmt_number(right)}]"
        return None

    by_key = {(it.attribute, it.value): it.id for it in cat.items}
    ids, skipped = [], 0
    for attr, raw in record.items():
        if attr in RESERVED_COLUMNS:
            continue
        if isinstance(raw, (list, dict, bool)):  # a JSON array, object or boolean: its text
            raw = str(raw)
        if raw in MISSING_VALUES or (isinstance(raw, str) and raw.strip() in MISSING_VALUES):
            continue
        disc = cat.discretizers.get(attr)
        if disc is None:
            skipped += 1
            continue
        if disc.kind == "quantile":
            try:
                value = bin_label(disc, float(raw))
            except (TypeError, ValueError):
                skipped += 1
                continue
        else:
            value = str(raw).strip()
        item_id = by_key.get((attr, value)) if value is not None else None
        if item_id is None:
            skipped += 1
        else:
            ids.append(item_id)
    return tuple(sorted(ids)), skipped


def _random_catalogs():
    rng = random.Random(11)
    records = [
        {
            "x": rng.gauss(0, 10),
            "ties": rng.choice([0, 0, 0, 1, 2, 2.5, 7]),  # duplicate edges collapse, e1 == lo
            "const": 4,  # one bin [4,4]
            "small": rng.choice([1e-13, 2e-13, 3.5e-13, 1e-12]),
            "cat": rng.choice([" a", "b ", "c", "d d"]),
            "y": rng.randint(0, 1),
        }
        for _ in range(300)
    ]
    full = build_catalog(records, binning_config={"x": ("quantile", 5), "ties": ("quantile", 6)})
    # the same rules with one bin's item and one categorical item dropped
    dropped = {full.id_of("x", full.discretizers["x"].labels()[2]), full.id_of("cat", "c")}
    kept = [it for it in full.items if it.id not in dropped]
    partial = ItemCatalog(
        [Item(it.attribute, it.value, k) for k, it in enumerate(kept)], full.discretizers
    )
    # as a hand-edited artifact may be: item values that no stripped, present
    # value matches, texts of JSON values, and an outcome column with items
    values = {"cat": ["?", " x", "x", "NA ", "", "[1, 2]", "True", "5", "2.5", "d d"], "y": ["1"]}
    edited = ItemCatalog(
        [Item(a, v, k) for k, (a, v) in enumerate((a, v) for a, vs in values.items() for v in vs)]
        + [Item("x", label, len(values["cat"]) + 1 + i) for i, label in enumerate(full.discretizers["x"].labels())],
        {"cat": _Discretizer("categorical"), "y": _Discretizer("categorical"), "x": full.discretizers["x"]},
    )
    return full, partial, edited


def test_encode_matches_label_oracle_on_random_values():
    rng = random.Random(5)
    for cat in _random_catalogs():
        probes = {}
        for attr, disc in cat.discretizers.items():
            if disc.kind == "quantile":
                bounds = [disc.lo, *disc.edges, disc.hi]
                near = [math.nextafter(b, d) for b in bounds for d in (-math.inf, math.inf)]
                probes[attr] = [
                    *bounds, *near, *(repr(b) for b in bounds), f"  {disc.lo!r} ",
                    "nan", "inf", "-inf", "NaN", float("nan"), float("inf"), -float("inf"),
                    "abc", "1,5", "?", " ", "", None, True,
                    *(rng.uniform(disc.lo - 1, disc.hi + 1) for _ in range(20)),
                ]
                probes[attr] += [int(b) for b in bounds if float(b).is_integer()]
            else:
                probes[attr] = [" a", "a", "b", " b ", "c", "d d", " d d ", "e", 5, "?", "NA", "", None]
                probes[attr] += [" x", "x", " ? ", "NA ", "[1, 2]", [1, 2], True, False, 2.5, 0, {"k": 1}, "True"]
            probes[attr] += [7, -3, 1.25, True, False, [1, 2], [], {"k": 1}]
        probes["unknown"] = ["u", 1.5, "?", None, [1], True]
        probes["y_hat"] = ["1", "zz"]
        probes["y"] = ["1", " 1", [1]]
        for _ in range(3000):
            record = {
                attr: rng.choice(values)
                for attr, values in probes.items()
                if rng.random() < 0.85
            }
            assert cat.encode_with_stats(record) == _label_encode_with_stats(cat, record), record


def test_point_matrix_and_encode_agree_on_a_hand_edited_catalog():
    """Item values that no stripped, present value matches ("", "?", " x")
    collect nothing in either encoder, missing cells included."""
    _, _, edited = _random_catalogs()
    cells = ["?", "", " ? ", "x", " x", "NA ", "[1, 2]", "True", "d d", "u", None]
    stream = [{"cat": c, "y": "1"} for c in cells]
    table = ColumnData.from_columns({"cat": cells, "y": ["1"] * len(cells)}, categorical=frozenset({"cat"}))
    P = table.point_matrix(np.arange(table.n), edited).toarray()
    for r, rec in enumerate(stream):
        row = np.zeros(edited.n_items)
        row[list(edited.encode_with_stats(rec)[0])] = 1
        assert np.array_equal(P[r], row), rec
    assert P[:3].sum() == 0  # the missing cells


@pytest.mark.parametrize(
    "edit",
    [
        {"edges": ["50.0", "25.0"]},  # descending
        {"edges": ["25.0", "25.0"]},  # repeated
        {"edges": ["25.0", "99.0"]},  # last edge at hi
        {"edges": ["25.0", "120.0"]},  # edge past hi
        {"lo": "40.0"},  # first edge (33) below lo
        {"edges": ["25.0", "nan"]},
        {"edges": [], "lo": "100.0", "hi": "1.0"},  # no edges, lo > hi
    ],
)
def test_from_dict_rejects_unordered_quantile_bounds(edit):
    cat = build_catalog([{"age": v} for v in range(1, 100)], binning_config={"age": ("quantile", 3)})
    d = json.loads(json.dumps(cat.to_dict()))
    assert d["discretizers"]["age"]["lo"] == "1.0" and d["discretizers"]["age"]["hi"] == "99.0"
    d["discretizers"]["age"].update(edit)
    with pytest.raises(DataError, match="lo <= e1 < ... < ek < hi"):
        ItemCatalog.from_dict(d)


def test_from_dict_accepts_edge_at_lo_and_single_value_bin():
    records = [{"flag": v, "const": 3} for v in [0, 0, 0, 1]]
    cat = build_catalog(records, binning_config={"flag": ("quantile", 4)})
    assert cat.discretizers["flag"].edges == (0.0,)  # e1 == lo: the singleton bin [0,0]
    assert cat.discretizers["const"].lo == cat.discretizers["const"].hi
    clone = ItemCatalog.from_dict(json.loads(json.dumps(cat.to_dict())))
    for rec in records:
        assert clone.encode(rec) == cat.encode(rec)


def _rowwise_build_catalog(records, binning_config=None, default_bins=4):
    """Reference: the record-at-a-time builder that the column-wise one
    replaced (it took NaN as a value; the inputs here have none)."""
    from driftscope.catalog import _Discretizer

    def is_numeric(values):
        for v in values:
            if isinstance(v, (int, float)):
                continue
            try:
                float(str(v))
            except (TypeError, ValueError):
                return False
        return True

    def quantile_edges(values, bins):
        srt = sorted(values)
        edges = []
        for k in range(1, bins):
            e = float(srt[(len(srt) - 1) * k // bins])
            if (not edges or e > edges[-1]) and e < srt[-1]:
                edges.append(e)
        return tuple(edges)

    def present(rec, a):
        v = rec.get(a)
        return v not in MISSING_VALUES and not (isinstance(v, str) and v.strip() in MISSING_VALUES)

    binning_config = dict(binning_config or {})
    attrs = []
    for rec in records:
        attrs += [a for a in rec if a not in attrs and a not in RESERVED_COLUMNS]
    discretizers, observed = {}, {}
    for a in attrs:
        vals = observed[a] = [rec[a] for rec in records if present(rec, a)]
        if not vals:
            raise DataError(f"attribute {a!r} has no non-missing values")
        cfg = binning_config.get(a)
        if cfg is None:
            cfg = "quantile" if is_numeric(vals) else "categorical"
        if cfg == "categorical":
            discretizers[a] = _Discretizer(kind="categorical")
            continue
        bins = default_bins if cfg == "quantile" else int(cfg[1])
        nums = [float(str(v)) for v in vals]
        discretizers[a] = _Discretizer(
            kind="quantile", bins=bins, edges=quantile_edges(nums, bins), lo=min(nums), hi=max(nums)
        )
    items = []
    for a in attrs:
        disc = discretizers[a]
        values = disc.labels() if disc.kind == "quantile" else sorted({str(v).strip() for v in observed[a]})
        items += [Item(a, v, len(items) + i) for i, v in enumerate(values)]
    return ItemCatalog(items, discretizers)


def test_column_builder_matches_rowwise_builder_on_random_columns():
    rng = random.Random(31)
    numbers = [0.0, -0.0, 1.0, 2.5, -3.0, 7.0, 1e-300, math.inf, -math.inf, 12, -4, 10**20]
    texts = ["1e3", " 2.5 ", "1_000", "-0", "+3", "0.0", " -0.0 ", "inf", "-Infinity", "4"]
    missing = ["", "?", "NA", "N/A", None, " ? ", "  "]
    words = ["x", " x ", "y", "Zed", "12", " 3 ", "a b", "x,y"]
    for trial in range(150):
        n = rng.randint(1, 40)
        pools = {
            "num": numbers + texts,
            "few": rng.sample(numbers, 2),
            "tie": [rng.choice([0.0, -0.0]) for _ in range(3)] + [5.0],
            "cat": words,
            "mixed": numbers[:4] + ["x"],
            "forced": numbers + texts,
        }
        records = []
        for _ in range(n):
            rec = {}
            for attr, pool in pools.items():
                r = rng.random()
                if r < 0.1:
                    continue  # attribute absent from this record
                rec[attr] = rng.choice(missing) if r < 0.25 else rng.choice(pool)
            rec["y"] = rng.randint(0, 1)
            records.append(rec)
        binning = {"forced": rng.choice(["categorical", ("quantile", rng.randint(1, 6))])}
        bins = rng.randint(1, 6)
        try:
            expected = _rowwise_build_catalog(records, binning, bins).to_dict()
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc).split()[1]):
                build_catalog(records, binning, bins)
            continue
        assert build_catalog(records, binning, bins).to_dict() == expected, trial


@pytest.mark.parametrize("nan", ["nan", "NaN", " nan ", float("nan")])
def test_nan_is_missing_in_a_numeric_reference_column(nan):
    values = [float(v) for v in range(1, 41)]
    first = build_catalog([{"age": nan}] + [{"age": v} for v in values])
    middle = build_catalog([{"age": v} for v in values[:20]] + [{"age": nan}] + [{"age": v} for v in values[20:]])
    without = build_catalog([{"age": v} for v in values])
    assert first.to_dict() == middle.to_dict() == without.to_dict()
    disc = first.discretizers["age"]
    assert (disc.lo, disc.hi) == (1.0, 40.0)
    assert first.encode({"age": nan}) == ()
    with pytest.raises(DataError, match="'age' has no non-missing values"):
        build_catalog([{"age": nan, "g": "m"}, {"age": "?", "g": "f"}])


# --- the columnar table against the per-value paths it replaced -------------

_NUMBERS = [0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, math.inf, -math.inf, 12, -4, 10**20, 0, 1]
_TEXTS = ["1e3", " 2.5 ", "1_000", "-0", "-0.0", "0.0", "+3", "inf", "-Infinity", "nan", " 4 ", "12"]
_TYPED = [True, False, 1, 1.0, 0, -0.0, 0.0, 2.5]
_WORDS = ["x", " x ", "y", "Zed", "a b", "x,y", "True", "1"]
_MISSING = ["", "?", "NA", "N/A", None]


def _random_rows(rng, n, pools, missing, absent=0.0):
    rows = []
    for i in range(n):
        row = {}
        for attr, pool in pools.items():
            r = rng.random()
            if i and r < absent:
                continue  # attribute absent from this row (never the first)
            row[attr] = rng.choice(missing) if r < absent + 0.15 else rng.choice(pool)
        row["y"] = rng.randint(0, 1)
        rows.append(row)
    return rows


def _random_pools(rng):
    return {
        "num": _NUMBERS + _TEXTS,
        "few": rng.sample(_NUMBERS, 2),
        "tie": [rng.choice([0.0, -0.0]) for _ in range(3)] + [5.0],
        "typed": _TYPED,
        "cat": _WORDS,
        "mixed": _NUMBERS[:4] + ["x"],
        "forced": _NUMBERS + _TEXTS,
    }


def test_column_table_matches_per_value_table_on_random_columns():
    rng = random.Random(41)
    for trial in range(200):
        rows = _random_rows(rng, rng.randint(1, 40), _random_pools(rng), _MISSING, absent=0.1)
        categorical = frozenset(rng.sample(["num", "tie", "typed", "forced"], rng.randint(0, 2)))
        rowpath.assert_same_table(ColumnData(rows, categorical), rowpath.column_data(rows, categorical))


@pytest.mark.parametrize("categorical", [frozenset(), frozenset({"x"})])
def test_float_column_matches_its_text_round_trip(categorical):
    values = [-0.0, 0.0, float("nan"), math.inf, None, -math.inf, 2.5, 0.0, None, -0.0]
    rows = [{"x": v, "y": i % 2} for i, v in enumerate(values)]
    cols = ColumnData(rows, categorical)
    rowpath.assert_same_table(cols, rowpath.column_data(rows, categorical))
    assert ("x" in cols.numeric) == (not categorical)
    idx = list(range(len(rows)))
    binning = {"x": "categorical"} if categorical else None
    assert cols.build_catalog(idx).to_dict() == rowpath.build_catalog(rows, binning).to_dict()


def test_padded_missing_token_is_missing_in_every_column():
    # the strip comes before the missing test, as in the catalog's encoder
    rows = [{"g": " ? ", "y": 0}, {"g": "a", "y": 1}, {"g": " NA", "y": 0}, {"g": "  ", "y": 1}]
    cols = ColumnData(rows)
    assert cols.uniques["g"].tolist() == ["", "a"]
    assert cols.codes["g"].tolist() == [0, 1, 0, 0]
    assert cols.build_catalog([0, 1, 2, 3]).to_dict() == build_catalog(rows).to_dict()
    assert [it.label for it in build_catalog(rows).items] == ["g=a"]


def test_build_catalog_matches_its_detecting_row_version_on_random_records():
    rng = random.Random(43)
    missing = _MISSING + [" ? ", "  ", " NA "]
    for trial in range(200):
        records = _random_rows(rng, rng.randint(1, 40), _random_pools(rng), missing, absent=0.1)
        rule = rng.choice(["categorical", "quantile", ("quantile", rng.randint(1, 6))])
        binning = {rng.choice(["forced", "typed", "cat", "num"]): rule}
        bins = rng.randint(1, 6)
        try:
            expected = rowpath.build_catalog(records, binning, bins).to_dict()
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)):
                build_catalog(records, binning, bins)
            continue
        assert build_catalog(records, binning, bins).to_dict() == expected, trial


def test_forced_quantile_over_text_raises_value_error():
    with pytest.raises(ValueError, match="'g' has non-numeric values"):
        build_catalog([{"g": "a"}, {"g": "2"}], binning_config={"g": ("quantile", 2)})
    with pytest.raises(ValueError, match="bin count must be >= 1"):
        build_catalog([{"g": "1"}, {"g": "2"}], binning_config={"g": ("quantile", 0)})


# --- read_columns against read_rows ------------------------------------------


def _columns_of_rows(path):
    rows = list(read_rows(path))
    return {k: [r.get(k) for r in rows] for k in dict.fromkeys(k for r in rows for k in r)}


_INGEST_INPUTS = [
    ("quoted.csv", 'a,b,c\n"1,5",x,"two\nlines"\n3,"say ""hi""",\n'),
    ("blank.csv", "a,b\n\n1,2\n\n\n3,4\n"),
    ("short.csv", "a,b,c\n1\n2,3\n4,5,6\n,,\n"),
    ("spaces.csv", "a, b\n 1 , x \n?,NA\n"),
    ("keys.jsonl", '{"a": 1, "b": "x"}\n\n{"b": null, "c": -0.0}\n{"c": true, "a": [1, 2]}\n'),
    ("typed.ndjson", '{"a": 1}\n{"a": 1.0}\n{"a": "1"}\n'),
]


# JSON values that are one dict key or one text, each repeated in a later
# block, and a key that first appears in a later block
_MIXED = ["1", "1.0", "true", '"1"', "null", "[1]", '{"k": 1}', "-0.0", "0.0"]
_MIXED_INPUT = (
    "mixed.jsonl",
    "".join(f'{{"v": {v}, "w": {w}}}\n' for v, w in zip(_MIXED * 2, _MIXED[::-1] * 2))
    + "".join(f'{{"late": {v}}}\n' for v in _MIXED),
)


def _first_seen(values):
    """The distinct values in first-seen order, 1, 1.0 and True (or 0.0 and -0.0) apart."""
    seen: dict = {}
    for v in values:
        seen.setdefault((type(v), repr(v)), v)
    return list(seen.values())


@pytest.mark.parametrize("block", [2, catalog.BLOCK])
@pytest.mark.parametrize("name, text", _INGEST_INPUTS + [_MIXED_INPUT])
def test_read_columns_matches_read_rows(tmp_path, monkeypatch, block, name, text):
    """Each column holds its distinct raw values in first-seen order, its
    codes index them, and the columns, ``ColumnData(rows)`` and
    ``build_catalog(rows)`` are those of the factorizer with two dict probes
    per new value (``rowpath.Factorizer``)."""
    monkeypatch.setattr(catalog, "BLOCK", block)
    path = tmp_path / name
    path.write_text(text)
    columns, expected = read_columns(path), _columns_of_rows(path)
    got = {k: list(v) for k, v in columns.items()}
    assert got == expected
    assert all(len(v) == len(next(iter(got.values()))) for v in got.values())
    rows = list(read_rows(path))
    oracle = rowpath.columns_of_records(rows, block)
    assert list(columns) == list(oracle)
    for attr, column in columns.items():
        assert _typed(column.values) == _typed(_first_seen(expected[attr])), attr
        assert _typed(column.values[c] for c in column.codes.tolist()) == _typed(expected[attr]), attr
        assert _typed(column.values) == _typed(oracle[attr].values), attr
        assert column.codes.tolist() == oracle[attr].codes.tolist(), attr
    table = ColumnData.from_columns(oracle)
    rowpath.assert_same_table(ColumnData(rows), table)
    assert build_catalog(rows).to_dict() == table.build_catalog(np.arange(len(rows))).to_dict()


@pytest.mark.parametrize(
    "text, error",
    [
        ("a,b\n\n1,2\n\n\n3,4\n", None),  # blank lines
        ("a,b,c\n1\n2,3\n\n4,5,6\n,,\n", None),  # short rows
        ('a,b,c\n"1,5",x,"two\nlines"\n\n"",", ",\n', None),  # quoted commas and newlines
        ("a,b\n", None),  # header only
        ("a,b\n1,2\n\n3,4\n5,6,7\n", "row 3: more fields than header columns"),  # a long row
        ("\na,b\n1,2\n", "row 1: more fields than header columns"),  # a blank first line is the header
        ("", "{path}: empty file, expected a header row"),
        ("a,b,a\n1,2,3\n", "{path}: column name(s) repeated in the header: 'a'"),
    ],
)
def test_read_rows_and_read_columns_follow_one_record_rule(tmp_path, text, error):
    """Both readers give the same cells, or the same DataError naming the
    same 1-based row among the non-blank ones."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    if error is not None:
        for read in (lambda: list(read_rows(path)), lambda: read_columns(path)):
            with pytest.raises(DataError) as exc:
                read()
            assert str(exc.value) == error.format(path=path)
        return
    rows, columns = list(read_rows(path)), read_columns(path)
    assert list(columns) == next(csv.reader(io.StringIO(text)))
    assert rows == [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    assert all(list(row) == list(columns) for row in rows)


def test_read_columns_of_a_header_only_csv_has_empty_columns(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n")
    assert {k: list(v) for k, v in read_columns(path).items()} == {"a": [], "b": []}


# --- read_columns block by block ------------------------------------------------

# Inputs whose records cross blocks of 2 and 3 rows.
_BLOCK_INPUTS = [
    # values first seen in a later block, numbers turning to text there
    ("later.csv", "a,b\n1,x\n2,x\n3,y\n1,z\n5,x\nfive,w\n"),
    # short rows padded in a later block
    ("late_short.csv", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n10\n11,12\n13,14,15\n"),
    # blank lines across the boundaries
    ("blank_blocks.csv", "a,b\n1,2\n\n\n3,4\n\n5,6\n\n7,8\n\n\n"),
    # a key first seen in a later block, None before it
    ("late_key.jsonl", '{"a": 1}\n{"a": 2}\n\n{"a": 3}\n{"a": 4, "b": "x"}\n{"b": 2.5}\n'),
    # numbers, texts and bools that are one dict key or one text, in every block
    ("typed.jsonl", "".join(
        f'{{"v": {v}, "w": {w}, "x": {x}}}\n'
        for v, w, x in [("1", "0.0", "1.0"), ('"1"', "-0.0", '"1.0"'), ("1.0", "0", "true"), ("true", "false", '"True"'),
                        ("0.0", "-0.0", "-0.0"), ("-0.0", '"0"', '"-0.0"'), ("1", "0.0", '"True"'),
                        ("0", "true", "1.0"), ("false", "1", '"1.0"'), ("-0.0", "null", "true")]
    )),
]


def _typed(values):
    """Values with their types, so that 1, 1.0 and True, or 0.0 and -0.0, differ."""
    return [(type(v), repr(v)) for v in values]


@pytest.mark.parametrize("block", [2, 3, catalog.BLOCK])
@pytest.mark.parametrize("name, text", _INGEST_INPUTS + _BLOCK_INPUTS)
def test_read_columns_in_blocks_gives_the_values_and_table_of_read_rows(tmp_path, monkeypatch, block, name, text):
    monkeypatch.setattr(catalog, "BLOCK", block)
    path = tmp_path / name
    path.write_text(text)
    columns, expected = read_columns(path), _columns_of_rows(path)
    assert list(columns) == list(expected)
    for attr, values in expected.items():
        assert _typed(columns[attr]) == _typed(values), attr
    rowpath.assert_same_table(ColumnData.from_columns(columns), ColumnData(list(read_rows(path))))


def test_read_columns_keeps_a_value_that_a_later_block_brings_in_a_new_type(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "BLOCK", 2)
    path = tmp_path / "t.jsonl"
    path.write_text('{"v": 1}\n{"v": 0}\n{"v": true}\n{"v": 1.0}\n{"v": "1"}\n{"v": 1}\n')
    column = read_columns(path)["v"]
    assert _typed(column.values) == _typed([1, 0, True, 1.0, "1"])
    assert column.codes.tolist() == [0, 1, 2, 3, 4, 0]


@pytest.mark.parametrize("block", [2, 3])
def test_a_long_row_in_a_later_block_names_its_row_in_the_file(tmp_path, monkeypatch, block):
    monkeypatch.setattr(catalog, "BLOCK", block)
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,4\n5\n\n\n6,7\n8,9,10\n11,12\n")
    for read in (lambda: list(read_rows(path)), lambda: read_columns(path)):
        with pytest.raises(DataError) as exc:
            read()
        assert str(exc.value) == "row 5: more fields than header columns"


def test_read_columns_of_a_header_and_blank_lines_has_empty_columns(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "BLOCK", 2)
    path = tmp_path / "h.csv"
    path.write_text("a,b\n\n\n\n\n")
    columns = read_columns(path)
    assert {k: list(v) for k, v in columns.items()} == {"a": [], "b": []}
    assert ColumnData.from_columns(columns).n == 0


def _traced_peak(build):
    """``build()`` and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_read_columns_and_typing_hold_few_bytes_per_cell(tmp_path):
    """The file is read BLOCK records at a time and kept as distinct values
    and codes. Reading a 20k-row census CSV into typed columns peaked at ~68
    traced bytes per cell when the reader held every row as a list and every
    cell as its own str; a first block reader (4,096-record blocks) peaked at
    25-31, and 1,024-record blocks peak at ~21. Typing the same rows held as
    dicts, ``ColumnData(rows)``, peaked at ~17.0 while every raw column was
    kept until all were typed, and at ~15.9 since each is dropped once typed."""
    rows = census_sample(n=20_000, seed=0)
    cells = len(rows) * len(rows[0])
    table, peak = _traced_peak(lambda: ColumnData(rows))
    assert table.n == 20_000
    assert peak / cells <= 16.5, peak / cells
    path = tmp_path / "census.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    del rows, table
    table, peak = _traced_peak(lambda: ColumnData.from_columns(read_columns(path)))
    assert table.n == 20_000
    assert peak / cells <= 40, peak / cells


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("empty.csv", "", "empty file, expected a header row"),
        ("long.csv", "a,b\n1,2\n\n3,4,5\n", "row 2: more fields than header columns"),
        ("bad.jsonl", '{"a": 1}\n{"a": \n', r"row 2: invalid JSON"),
        ("list.jsonl", '{"a": 1}\n\n[1, 2]\n', "row 2: expected a JSON object"),
        ("repeated.csv", "a,b,a,y\n1,2,3,0\n", "column name\\(s\\) repeated in the header: 'a'"),
    ],
)
def test_read_columns_and_read_rows_raise_the_same_errors(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        list(read_rows(path))
    with pytest.raises(DataError, match=message):
        read_columns(path)
