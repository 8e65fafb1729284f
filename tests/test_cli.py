import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import driftscope
import rowpath
from driftscope import catalog, cli, evaluation
from driftscope.catalog import DataError, ItemCatalog
from driftscope.cli import _csv_text, _parse_subgroup, main
from driftscope.datasets import census_sample
from driftscope.streams import ConceptStreamConfig, gen_concept_stream


def run_cli(*args):
    return main([str(a) for a in args])


def write_sample_csv(path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["color", "size", "y", "y_hat"])
        for i in range(n):
            color = rng.choice(["red", "green", "blue"])
            size = int(rng.integers(1, 100))
            y = int(rng.integers(0, 2))
            y_hat = y if rng.random() < 0.85 else 1 - y
            w.writerow([color, size, y, y_hat])


def test_mine_help_exits_zero(capsys):
    assert run_cli("mine", "--help") == 0
    assert "min-support" in capsys.readouterr().out


def test_invalid_min_support_exits_one(tmp_path, capsys):
    src = tmp_path / "d.csv"
    write_sample_csv(src)
    code = run_cli("mine", "--input", src, "--min-support", "1.5", "--out", tmp_path / "c.json")
    assert code == 1
    assert "fraction" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path):
    assert run_cli("mine", "--nonsense") == 1


def test_missing_file_exits_two(tmp_path):
    code = run_cli(
        "mine", "--input", tmp_path / "absent.csv", "--min-support", "0.1",
        "--out", tmp_path / "c.json",
    )
    assert code == 2


def test_mine_monitor_report_pipeline(tmp_path):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=600)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli(
        "mine", "--input", src, "--min-support", "0.05", "--max-len", "2",
        "--out", catalog_path,
    ) == 0
    artifact = json.loads(catalog_path.read_text())
    assert {"item_catalog", "subgroup_catalog"} <= set(artifact)
    assert (tmp_path / "catalog.json.manifest.json").exists()

    reports_dir = tmp_path / "reports"
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", src,
        "--window", "2", "--batch-size", "100", "--out", reports_dir,
    ) == 0
    lines = (reports_dir / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first["warming_up"] is True
    assert (reports_dir / "monitor_state.json").exists()
    assert (reports_dir / "manifest.json").exists()

    out_md = tmp_path / "summary.md"
    assert run_cli(
        "report", "--reports", reports_dir, "--catalog", catalog_path,
        "--prune-t", "1.0", "--top", "5", "--out", out_md,
    ) == 0
    assert out_md.read_text().startswith("| subgroup_id |")

    out_csv = tmp_path / "summary.csv"
    assert run_cli(
        "report", "--reports", reports_dir, "--catalog", catalog_path,
        "--top", "5", "--format", "csv", "--shapley", "--out", out_csv,
    ) == 0
    table = list(csv.DictReader(open(out_csv)))
    assert len(table) == 5
    attribution = list(csv.DictReader(open(tmp_path / "summary.attribution.csv")))
    assert attribution and {"item_id", "item", "contribution"} <= set(attribution[0])


def test_gen_inject_bench_pipeline(tmp_path):
    stream = tmp_path / "stream.csv"
    train = tmp_path / "train.csv"
    assert run_cli(
        "gen", "--dataset", "sea", "--concepts", "0,2", "--drift-center", "500",
        "--drift-width", "100", "--n-batches", "10", "--batch-size", "100",
        "--train-size", "300", "--seed", "7", "--out", stream, "--train-out", train,
    ) == 0
    rows = list(csv.DictReader(open(stream)))
    assert len(rows) == 1000
    assert {"att1", "att2", "att3", "y", "batch"} <= set(rows[0])

    # determinism: regenerating gives byte-identical output
    stream2 = tmp_path / "stream2.csv"
    run_cli(
        "gen", "--dataset", "sea", "--concepts", "0,2", "--drift-center", "500",
        "--drift-width", "100", "--n-batches", "10", "--batch-size", "100",
        "--train-size", "300", "--seed", "7", "--out", stream2,
    )
    assert stream.read_bytes() == stream2.read_bytes()

    catalog_path = tmp_path / "catalog.json"
    assert run_cli(
        "mine", "--input", train, "--min-support", "0.05", "--max-len", "2",
        "--out", catalog_path,
    ) == 0

    injected = tmp_path / "injected.csv"
    mask = tmp_path / "mask.csv"
    artifact = json.loads(catalog_path.read_text())
    item = artifact["item_catalog"]["items"][0]
    sub = f"{item['attribute']}={item['value']}"
    assert run_cli(
        "inject", "--input", stream, "--catalog", catalog_path, "--subgroup", sub,
        "--p-max", "0.9", "--normal", "3", "--transition", "3", "--drift", "4",
        "--out", injected, "--mask", mask,
    ) == 0
    mask_rows = list(csv.DictReader(open(mask)))
    assert len(mask_rows) == 1000
    assert any(r["altered"] == "1" for r in mask_rows)
    out_text, mask_text = rowpath.inject_texts(stream, catalog_path, sub, 0.9, normal=3, transition=3, drift=4)
    assert injected.read_text() == out_text and mask.read_text() == mask_text

    code = run_cli("bench", "--detector", "ddm", "--input", _with_predictions(tmp_path, stream))
    assert code == 0

    # the stream carries a batch column: monitor groups by it, not batch-size
    pred = _with_predictions(tmp_path, stream)
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", pred,
        "--window", "3", "--out", tmp_path / "mreports",
    ) == 0
    lines = (tmp_path / "mreports" / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == 10  # one report per generated batch


@pytest.mark.parametrize("dataset", ["agrawal", "led"])
def test_gen_csvs_read_back_equal_the_generator_arrays(tmp_path, dataset):
    stream, train = tmp_path / "stream.csv", tmp_path / "train.csv"
    assert run_cli(
        "gen", "--dataset", dataset, "--concepts", "0,2", "--drift-center", "300",
        "--drift-width", "100", "--n-batches", "7", "--batch-size", "90",
        "--train-size", "250", "--seed", "5", "--out", stream, "--train-out", train,
    ) == 0
    config = ConceptStreamConfig(
        generator=dataset, concept_a=0, concept_b=2, drift_center=300, drift_width=100,
        train_size=250, n_batches=7, batch_size=90, seed=5,
    )
    want_train, want_stream = gen_concept_stream(config)
    for path, want, batch in (
        (stream, want_stream, np.arange(7 * 90) // 90 + 1),
        (train, want_train, np.ones(250, dtype=int)),
    ):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["batch", *want.feature_names, "y"]
        assert [int(r[0]) for r in rows] == batch.tolist()
        X = np.array([[float(v) for v in r[1:-1]] for r in rows])
        assert X.tobytes() == want.X.tobytes()
        assert [int(r[-1]) for r in rows] == want.y.tolist()
        for j, kind in enumerate(want.feature_kinds):
            if kind == "categorical":  # written as integers
                assert all(r[1 + j].lstrip("-").isdigit() for r in rows)


def _with_predictions(tmp_path, stream):
    rows = list(csv.DictReader(open(stream)))
    out = tmp_path / "stream_pred.csv"
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()) + ["y_hat"], lineterminator="\n")
        w.writeheader()
        for r in rows:
            r["y_hat"] = r["y"]
            w.writerow(r)
    return out


def test_monitor_groups_rows_by_batch_column_in_length_then_text_order(tmp_path):
    from driftscope.catalog import ItemCatalog

    src = tmp_path / "data.csv"
    write_sample_csv(src, n=300, seed=3)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--max-len", "2", "--out", catalog_path) == 0
    rows = list(csv.DictReader(open(src)))
    keys = ["10", "9", "2", "11", "1"]  # interleaved; (len, s) order is 1, 2, 9, 10, 11
    order = ["1", "2", "9", "10", "11"]
    groups = {k: [r for i, r in enumerate(rows) if keys[i % 5] == k] for k in keys}

    def write(path, table, with_batch):
        with open(path, "w", newline="") as fh:
            cols = ["batch", *rows[0]] if with_batch else list(rows[0])
            w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
            w.writeheader()
            w.writerows(table)

    keyed = tmp_path / "keyed.csv"
    write(keyed, [dict(r, batch=keys[i % 5]) for i, r in enumerate(rows)], True)
    presorted = tmp_path / "presorted.csv"
    write(presorted, [r for k in order for r in groups[k]], False)
    for name, path in (("keyed", keyed), ("presorted", presorted)):
        assert run_cli(
            "monitor", "--catalog", catalog_path, "--input", path, "--window", "2",
            "--batch-size", "60", "--out", tmp_path / name,
        ) == 0
    # the same reports as the groups in key order, cut as fixed slices
    assert (tmp_path / "keyed" / "reports.jsonl").read_text() == (
        tmp_path / "presorted" / "reports.jsonl"
    ).read_text()

    artifact = json.loads(catalog_path.read_text())
    catalog = ItemCatalog.from_dict(artifact["item_catalog"])
    subgroups = [set(e["items"]) for e in artifact["subgroup_catalog"]["subgroups"]]

    def counts(group):
        alpha, beta = [0] * len(subgroups), [0] * len(subgroups)
        for r in group:
            ids = set(catalog.encode(r))
            hit = r["y"] == r["y_hat"]
            for j, items in enumerate(subgroups):
                if items <= ids:
                    alpha[j] += hit
                    beta[j] += not hit
        return {"alpha": alpha, "beta": beta, "n": len(group)}

    state = json.loads((tmp_path / "keyed" / "monitor_state.json").read_text())
    assert state["current_ring"] == [counts(groups["10"]), counts(groups["11"])]
    assert state["reference_stats"] == counts(groups["1"] + groups["2"])


def test_bad_subgroup_item_exits_two(tmp_path):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=200)
    catalog_path = tmp_path / "catalog.json"
    run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path)
    code = run_cli(
        "inject", "--input", src, "--catalog", catalog_path,
        "--subgroup", "color=purple", "--p-max", "0.5",
        "--out", tmp_path / "x.csv", "--mask", tmp_path / "m.csv",
    )
    assert code == 2


@pytest.mark.parametrize(
    "labels, message",
    [(None, "row 1: no integer label in column 'y' (got None)"),
     (["1", "0", "yes"], "row 3: no integer label in column 'y' (got 'yes')"),
     (["1", "1e300", "yes"], "row 2: label flipping requires binary labels, got y='1e300'")],
)
def test_inject_needs_an_integer_label_column(tmp_path, caplog, labels, message):
    rng = np.random.default_rng(4)
    src = tmp_path / "data.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["color", "size"] + (["y"] if labels else []))
        for i in range(60):
            row = [rng.choice(["red", "blue"]), int(rng.integers(1, 9))]
            w.writerow(row + ([labels[i] if i < len(labels) else i % 2] if labels else []))
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    code = run_cli(
        "inject", "--input", src, "--catalog", catalog_path, "--subgroup", "color=red",
        "--p-max", "0.5", "--normal", "1", "--transition", "1", "--drift", "1",
        "--out", tmp_path / "x.csv", "--mask", tmp_path / "m.csv",
    )
    assert code == 2
    assert message in caplog.text
    assert not (tmp_path / "x.csv").exists()


_COLORS = ["red", "green", "blue", " red", "blue ", "purple", "", "?", "NA", " N/A "]
_NUMBERS = ["nan", "inf", "-inf", "", "?", " 7 ", "-1e9", "1e9", "1_0"]
_TEXTS = ["abc", "forty", "1.2.3"]


def _write_noisy_stream(path, rng, n, numbers, shape, batch):
    """A stream CSV over the columns of ``_write_reference`` with padded,
    missing and unseen categories, out-of-range and odd ``numbers``, short
    rows, a blank line, quoted text and, as asked, a ``shape`` and a
    ``batch`` column."""
    header = ["y", "color", "size", "weight", "note"] + ["shape"] * shape + ["batch"] * batch
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)

        def pick(pool):
            return pool[rng.integers(len(pool))]

        def number(value):
            return pick(numbers) if rng.random() < 0.15 else value

        for i in range(n):
            row = [
                pick(["0", "1", " 1", "1.0", "0.0"]),
                pick(_COLORS) if rng.random() < 0.3 else pick(["red", "green", "blue"]),
                number(str(int(rng.integers(1, 100)))),
                number(f"{rng.uniform(0, 10):.2f}"),
                pick(["plain", "a,b", 'say "hi"', "two\nlines", ""]),
            ] + [pick(["circle", "square", "?", "oval"])] * shape + [str(i // 40 + 1)] * batch
            if rng.random() < 0.05:
                row = row[: rng.integers(1, len(row))]
            w.writerow(row)
            if i == n // 2:
                fh.write("\n")


def _write_reference(path, rng, n=300):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["color", "size", "weight", "shape", "y"])
        for _ in range(n):
            w.writerow([["red", "green", "blue"][rng.integers(3)], int(rng.integers(1, 100)),
                        f"{rng.uniform(0, 10):.2f}", ["circle", "square"][rng.integers(2)], int(rng.integers(2))])


@pytest.mark.parametrize("seed", range(8))
def test_inject_matches_the_record_path_byte_for_byte(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ref, stream, catalog_path = tmp_path / "ref.csv", tmp_path / "stream.csv", tmp_path / "catalog.json"
    _write_reference(ref, rng)
    binning = ["--binning", "size=categorical"] * (seed % 4 == 3)
    assert run_cli("mine", "--input", ref, "--min-support", "0.05", "--max-len", "3", *binning,
                   "--out", catalog_path) == 0
    numbers = _NUMBERS + _TEXTS * (seed % 2)
    _write_noisy_stream(stream, rng, 240, numbers, shape=seed % 3 != 0, batch=seed % 2 == 0)
    artifact = json.loads(catalog_path.read_text())
    labels = {e["id"]: f"{e['attribute']}={e['value']}" for e in artifact["item_catalog"]["items"]}
    subgroups = [e["items"] for e in artifact["subgroup_catalog"]["subgroups"] if e["items"]]
    single = [items for items in subgroups if len(items) == 1]
    multi = [items for items in subgroups if len(items) >= 2]
    picks = [single[rng.integers(len(single))]] + [multi[k] for k in rng.choice(len(multi), 3, replace=False)]
    for k, items in enumerate(picks):
        spec = ",".join(labels[i] for i in items)
        ramp = ["linear", "sigmoid"][k % 2]
        out, mask = tmp_path / f"out{k}.csv", tmp_path / f"mask{k}.csv"
        code = run_cli(
            "inject", "--input", stream, "--catalog", catalog_path, "--subgroup", spec, "--p-max", "0.7",
            "--normal", "2", "--transition", "2", "--drift", "2", "--ramp", ramp, "--seed", seed + k,
            "--out", out, "--mask", mask,
        )
        try:
            out_text, mask_text = rowpath.inject_texts(
                stream, catalog_path, spec, 0.7, normal=2, transition=2, drift=2, ramp=ramp, seed=seed + k
            )
        except DataError:
            assert code == 2 and not out.exists()
            continue
        assert code == 0
        assert out.read_bytes() == out_text.encode() and mask.read_bytes() == mask_text.encode()


def test_inject_of_typed_jsonl_labels_in_blocks_matches_the_record_path(tmp_path, monkeypatch):
    # labels of one value in several types, read 3 records at a time: each
    # unflipped one is written back as it was read
    monkeypatch.setattr(catalog, "BLOCK", 3)
    rng = np.random.default_rng(6)
    labels = [1, "1", 1.0, 0, "0", 0.0, -0.0, " 1 "]
    stream = tmp_path / "stream.jsonl"
    with open(stream, "w") as fh:
        for _ in range(200):
            rec = {"color": str(rng.choice(["red", "blue"])), "size": [1, 2.0, "3", None][rng.integers(4)]}
            fh.write(json.dumps({**rec, "y": labels[rng.integers(len(labels))]}) + "\n")
    catalog_path, out, mask = tmp_path / "catalog.json", tmp_path / "x.csv", tmp_path / "m.csv"
    assert run_cli("mine", "--input", stream, "--min-support", "0.1", "--out", catalog_path) == 0
    assert run_cli(
        "inject", "--input", stream, "--catalog", catalog_path, "--subgroup", "color=red", "--p-max", "0.9",
        "--normal", "1", "--transition", "1", "--drift", "2", "--out", out, "--mask", mask,
    ) == 0
    out_text, mask_text = rowpath.inject_texts(stream, catalog_path, "color=red", 0.9, normal=1, transition=1, drift=2)
    assert out.read_bytes() == out_text.encode() and mask.read_bytes() == mask_text.encode()
    assert {"-0.0", "1.0", " 1 "} <= {r["y"] for r in csv.DictReader(io.StringIO(out_text))}


@pytest.mark.parametrize(
    "label, message",
    [("yes", "row 8: no integer label in column 'y' (got 'yes')"),
     (2, "row 8: label flipping requires binary labels, got y=2")],
)
def test_inject_names_a_bad_label_in_a_later_block_by_its_row(tmp_path, caplog, monkeypatch, label, message):
    monkeypatch.setattr(catalog, "BLOCK", 3)
    stream = tmp_path / "stream.jsonl"
    labels = [1, 0, "1", 0, 1, 1, 0, label, 1, label]
    stream.write_text("".join(json.dumps({"color": ["red", "blue"][i % 2], "y": y}) + "\n" for i, y in enumerate(labels)))
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", stream, "--min-support", "0.1", "--out", catalog_path) == 0
    assert run_cli(
        "inject", "--input", stream, "--catalog", catalog_path, "--subgroup", "color=red", "--p-max", "0.5",
        "--normal", "1", "--transition", "1", "--drift", "1", "--out", tmp_path / "x.csv", "--mask", tmp_path / "m.csv",
    ) == 2
    assert message in caplog.text


def test_inject_encodes_no_row_on_its_own(tmp_path, monkeypatch):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=200)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0

    def refuse(self, record):
        raise AssertionError("inject encoded a row on its own")

    monkeypatch.setattr(ItemCatalog, "encode_with_stats", refuse)
    assert run_cli(
        "inject", "--input", src, "--catalog", catalog_path, "--subgroup", "color=red", "--p-max", "0.5",
        "--out", tmp_path / "x.csv", "--mask", tmp_path / "m.csv",
    ) == 0


def test_inject_keeps_every_jsonl_key(tmp_path):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=300)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    rows = list(csv.DictReader(open(src)))
    for i, r in enumerate(rows):
        r["race"] = ["a", "b"][i % 2]
    del rows[0]["race"]
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "x.csv"
    assert run_cli(
        "inject", "--input", stream, "--catalog", catalog_path, "--subgroup", "color=red", "--p-max", "0.5",
        "--out", out, "--mask", tmp_path / "m.csv",
    ) == 0
    written = list(csv.DictReader(open(out)))
    assert len(written) == 300
    assert [r.get("race") for r in written] == [""] + [r["race"] for r in rows[1:]]
    assert [r["color"] for r in written] == [r["color"] for r in rows]


@pytest.mark.parametrize("command", ["monitor", "bench"])
@pytest.mark.parametrize("value", ["inf", "0.7", "nan"])
def test_outcome_columns_take_only_0_or_1(tmp_path, caplog, command, value):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    rows = list(csv.DictReader(open(src)))
    stream = tmp_path / "stream.csv"
    if command == "monitor":
        args = ["monitor", "--catalog", catalog_path, "--input", stream, "--out", tmp_path / "out"]
    else:
        args = ["bench", "--detector", "ddm", "--input", stream]
    rows[5]["y_hat"] = "1.0"  # a float equal to 1 is valid
    for y_hat, code in ((value, 2), ("0", 0)):
        rows[4]["y_hat"] = y_hat
        with open(stream, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        assert run_cli(*args) == code
    assert "row 5: column 'y_hat' must be 0 or 1" in caplog.text


def test_monitor_csv_format_writes_each_scored_batch(tmp_path):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    out = tmp_path / "csv"
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", src, "--window", "2", "--batch-size", "100",
        "--format", "csv", "--out", out,
    ) == 0
    reports = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    scored = [r["batch_id"] for r in reports if not r["warming_up"]]
    assert scored == [3, 4]
    assert sorted(p.name for p in out.glob("batch_*.csv")) == [f"batch_{b:04d}.csv" for b in scored]
    items = json.loads(catalog_path.read_text())["item_catalog"]["items"]
    label = {str(e["id"]): f"{e['attribute']}={e['value']}" for e in items}
    assert any("," in text and text.startswith("size=") for text in label.values())
    columns = ["subgroup_id", "items", "support", "h_ref", "h_cur", "delta_h", "t", "drifted"]
    for report in reports[2:]:
        with open(out / f"batch_{report['batch_id']:04d}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == columns
        want = []
        for sg in report["subgroups"]:
            ids = sg["items"].split(",") if sg["items"] and sg["items"] != "(global)" else []
            sg = {**sg, "items": ",".join(label[i] for i in ids) if ids else sg["items"]}
            want.append(["" if sg[c] is None else str(sg[c]) for c in columns])
        assert table[1:] == want
    decoded = {item for report in reports[2:] for sg in report["subgroups"] for item in sg["items"].split(",")}
    assert any(label[i].startswith("size=") for i in decoded if i in label)


def _mined_and_monitored(tmp_path):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=400)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli(
        "mine", "--input", src, "--min-support", "0.05", "--max-len", "2",
        "--out", catalog_path,
    ) == 0
    reports_dir = tmp_path / "reports"
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", src,
        "--window", "2", "--batch-size", "100", "--out", reports_dir,
    ) == 0
    return src, catalog_path, reports_dir


def test_monitor_rejects_an_infinite_tau_t(tmp_path, caplog):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=200)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    for tau_t in ("inf", "-inf"):
        out = tmp_path / f"reports{tau_t}"
        assert run_cli("monitor", "--catalog", catalog_path, "--input", src, f"--tau-t={tau_t}", "--out", out) == 2
        assert f"tau_t must be finite, got {tau_t}" in caplog.text
        assert not (out / "reports.jsonl").exists()


def test_eval_results_do_not_depend_on_where_the_data_file_lies(tmp_path):
    rows = census_sample(n=3000, seed=4)
    texts = []
    for where in ("one", "two/deeper"):
        data = tmp_path / where / "census.csv"
        data.parent.mkdir(parents=True)
        with open(data, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        out = tmp_path / where / "results.csv"
        code = run_cli(
            "eval", "--suite", "inject", "--data", data, "--supports", "0.1", "--n-exp", "1", "--out", out,
        )
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert {r["dataset"] for r in csv.DictReader(io.StringIO(texts[0].decode()))} == {"adult:census.csv"}


def _edit_artifact(path, edit):
    artifact = json.loads(path.read_text())
    edit(artifact["subgroup_catalog"]["subgroups"])
    path.write_text(json.dumps(artifact))


def test_nan_in_a_numeric_reference_column_is_missing(tmp_path):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=200)
    lines = src.read_text().splitlines()
    color, _, y, y_hat = lines[1].split(",")
    lines[1] = ",".join([color, "nan", y, y_hat])
    src.write_text("\n".join(lines) + "\n")
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    size = json.loads(catalog_path.read_text())["item_catalog"]["discretizers"]["size"]
    assert all(np.isfinite(float(b)) for b in [size["lo"], *size["edges"], size["hi"]])
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", src,
        "--batch-size", "100", "--out", tmp_path / "reports",
    ) == 0


def test_out_of_range_catalog_item_exits_two(tmp_path, caplog):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=200)
    catalog_path = tmp_path / "catalog.json"
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    n_items = json.loads(catalog_path.read_text())["subgroup_catalog"]["n_items"]
    _edit_artifact(catalog_path, lambda sgs: sgs[-1].update(items=[n_items]))
    code = run_cli(
        "monitor", "--catalog", catalog_path, "--input", src,
        "--batch-size", "100", "--out", tmp_path / "reports",
    )
    assert code == 2
    assert "not strictly ascending" in caplog.text


def test_report_shapley_on_catalog_missing_a_subset_exits_two(tmp_path, caplog):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    # swap a singleton that mined pairs contain for an unmined pair: those
    # pairs lose a subset while the subgroup count stays the same
    subgroups = json.loads(catalog_path.read_text())["subgroup_catalog"]["subgroups"]
    mined = {tuple(e["items"]) for e in subgroups}
    item = next(e["items"][0] for e in subgroups if len(e["items"]) == 2)
    singles = [e["items"][0] for e in subgroups if len(e["items"]) == 1 and e["items"] != [item]]
    pair = next(
        [a, b] for a in singles for b in singles if a < b and (a, b) not in mined
    )

    def edit(sgs):
        kept = [e for e in sgs[1:] if e["items"] != [item]]
        kept.append({"items": pair, "support": 0.0, "count": 0})
        sgs[1:] = sorted(kept, key=lambda e: e["items"])

    _edit_artifact(catalog_path, edit)
    for flags in (["--shapley"], ["--prune-t", "2"]):
        caplog.clear()
        code = run_cli(
            "report", "--reports", reports_dir, "--catalog", catalog_path, *flags, "--out", tmp_path / "r.md",
        )
        assert code == 2, flags
        assert f"itemset [{item}] is not a mined subgroup" in caplog.text, flags


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("catalog.json", lambda d: [], "not a driftscope catalog artifact (not a JSON object)"),
        ("catalog.json", lambda d: {**d, "item_catalog": None}, "item_catalog is not a JSON object"),
        ("catalog.json", lambda d: {**d, "subgroup_catalog": []}, "subgroup_catalog is not a JSON object"),
        ("reports/monitor_state.json", lambda d: [], "monitor state is not a JSON object"),
    ],
)
def test_report_on_a_json_document_of_the_wrong_shape_exits_two(tmp_path, caplog, name, edit, message):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    path = tmp_path / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert run_cli("report", "--reports", reports_dir, "--catalog", catalog_path) == 2
    assert message in caplog.text


def test_report_state_for_another_catalog_exits_two(tmp_path, caplog):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    _edit_artifact(catalog_path, lambda sgs: sgs.pop())
    n = len(json.loads(catalog_path.read_text())["subgroup_catalog"]["subgroups"])
    code = run_cli("report", "--reports", reports_dir, "--catalog", catalog_path)
    assert code == 2
    assert f"monitor state has {n + 1} subgroups" in caplog.text


def test_report_state_missing_a_field_exits_two(tmp_path, caplog):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    state_path = reports_dir / "monitor_state.json"
    state = json.loads(state_path.read_text())
    del state["current_ring"]
    state_path.write_text(json.dumps(state))
    code = run_cli("report", "--reports", reports_dir, "--catalog", catalog_path)
    assert code == 2
    assert "no field 'current_ring'" in caplog.text


def test_monitor_on_unordered_quantile_edges_exits_two(tmp_path, caplog):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    artifact = json.loads(catalog_path.read_text())
    size = artifact["item_catalog"]["discretizers"]["size"]
    size["edges"] = size["edges"][::-1]
    catalog_path.write_text(json.dumps(artifact))
    code = run_cli(
        "monitor", "--catalog", catalog_path, "--input", src,
        "--batch-size", "100", "--out", tmp_path / "again",
    )
    assert code == 2
    assert "lo <= e1 < ... < ek < hi" in caplog.text


def test_config_file_supplies_defaults_but_flags_win(tmp_path):
    src = tmp_path / "d.csv"
    write_sample_csv(src, n=300)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"min-support": 0.2, "max-len": 2}))

    out1 = tmp_path / "c1.json"
    assert run_cli("--config", cfg, "mine", "--input", src, "--out", out1) == 0
    art = json.loads(out1.read_text())
    assert art["subgroup_catalog"]["min_support"] == 0.2

    out2 = tmp_path / "c2.json"
    assert run_cli(
        "--config", cfg, "mine", "--input", src, "--min-support", "0.5", "--out", out2
    ) == 0
    assert json.loads(out2.read_text())["subgroup_catalog"]["min_support"] == 0.5

    # without config or flag, the missing required value is a usage error
    assert run_cli("mine", "--input", src, "--out", tmp_path / "c3.json") == 1

    # the file is read in every form argparse takes the flag in
    for i, form in enumerate([f"--config={cfg}", f"--conf={cfg}"]):
        out = tmp_path / f"c{4 + i}.json"
        assert run_cli(form, "mine", "--input", src, "--out", out) == 0
        assert json.loads(out.read_text())["subgroup_catalog"]["min_support"] == 0.2


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("monitor", {"batch-size": 0}, "argument --batch-size: expected a positive integer, got 0"),
        ("mine", {"bins": 0, "min-support": 0.2}, "argument --bins: expected a positive integer, got 0"),
        ("monitor", {"top-k": 0}, "argument --top-k: expected a positive integer, got 0"),
        ("mine", {"max-len": 2.5, "min-support": 0.2}, "argument --max-len: invalid _positive_int value: '2.5'"),
        ("monitor", {"format": "md"}, "argument --format: invalid choice: 'md'"),
    ],
)
def test_config_value_fails_like_its_flag(tmp_path, capsys, command, config, message):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    args = {
        "mine": ["--input", src, "--out", tmp_path / "c.json"],
        "monitor": ["--catalog", catalog_path, "--input", src, "--out", tmp_path / "mon"],
    }[command]
    capsys.readouterr()
    assert run_cli("--config", cfg, command, *args) == 1
    assert f"driftscope {command}: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "mon").exists()


def test_config_value_is_checked_only_by_the_command_that_runs(tmp_path):
    # report takes --format md; monitor, which the file also configures, would refuse it
    src, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "md", "batch-size": 100}))
    out = tmp_path / "r.md"
    assert run_cli("--config", cfg, "report", "--reports", reports_dir, "--catalog", catalog_path, "--out", out) == 0
    assert out.read_text().startswith("| subgroup_id |")


@pytest.mark.parametrize(
    "text,message",
    [
        (None, "No such file or directory"),
        ('{"min-support": 0.2', "Expecting ',' delimiter"),
        ("[0.2]", "expected an object of flag defaults"),
        ('{"min_suport": 0.2}', "no flag takes 'min_suport'"),
    ],
)
def test_bad_config_file_is_a_data_error(tmp_path, caplog, text, message):
    src = tmp_path / "d.csv"
    write_sample_csv(src, n=100)
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "c.json"
    assert run_cli("--config", cfg, "mine", "--input", src, "--min-support", "0.2", "--out", out) == 2
    assert f"--config {cfg}: " in caplog.text and message in caplog.text
    assert not out.exists()


def test_config_file_in_another_format_is_a_data_error(tmp_path, caplog):
    src = tmp_path / "d.csv"
    write_sample_csv(src, n=100)
    cfg = tmp_path / "run.toml"
    cfg.write_text("min-support = 0.2\n")
    out = tmp_path / "c.json"
    assert run_cli("--config", cfg, "mine", "--input", src, "--out", out) == 2
    assert f"--config {cfg}: Expecting value" in caplog.text
    assert not out.exists()


def _run_python(script, cwd):
    package_root = str(Path(driftscope.__file__).resolve().parents[1])
    paths = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")[0]


def test_mine_monitor_report_eval_never_import_scipy(tmp_path):
    # scipy is importable here, so a guarded optional import would load it,
    # which the test with scipy unimportable cannot see
    src, _, _ = _mined_and_monitored(tmp_path)
    script = f"""
import importlib.util
import sys
from driftscope.cli import main
args = [
    ["mine", "--input", {str(src)!r}, "--min-support", "0.05", "--out", "c.json"],
    ["monitor", "--catalog", "c.json", "--input", {str(src)!r}, "--window", "2",
     "--batch-size", "100", "--out", "mon"],
    ["report", "--reports", "mon", "--catalog", "c.json", "--prune-t", "1", "--shapley",
     "--out", "r.md"],
    ["eval", "--suite", "inject", "--data", "surrogate", "--rows", "2000",
     "--supports", "0.1", "--n-exp", "1", "--out", "inject.csv"],
]
codes = [main(a) for a in args[:3]]
# mine, monitor and report load neither the experiment code nor the process pool
unused = ("driftscope.evaluation", "driftscope.streams", "concurrent.futures", "multiprocessing")
loaded = [m for m in unused if m in sys.modules]
codes.append(main(args[3]))  # a one-thread eval runs without the pool
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), importlib.util.find_spec("scipy") is not None,
      loaded, "concurrent.futures" in sys.modules)
"""
    assert _run_python(script, tmp_path) == "[0, 0, 0, 0] [] True [] False"


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    # scipy is a test oracle only: a finder ahead of all others refuses it
    src, _, _ = _mined_and_monitored(tmp_path)
    script = f"""
import contextlib
import io
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
from driftscope.cli import main
src = {str(src)!r}
args = [
    ["mine", "--input", src, "--min-support", "0.05", "--out", "c.json"],
    ["monitor", "--catalog", "c.json", "--input", src, "--window", "2", "--batch-size", "100", "--out", "mon"],
    ["report", "--reports", "mon", "--catalog", "c.json", "--prune-t", "1", "--shapley", "--out", "r.md"],
    ["gen", "--dataset", "sea", "--n-batches", "4", "--batch-size", "100", "--train-size", "200",
     "--drift-center", "200", "--drift-width", "50", "--out", "g.csv"],
    ["inject", "--input", src, "--catalog", "c.json", "--subgroup", "color=red", "--p-max", "0.5",
     "--normal", "1", "--transition", "1", "--drift", "2", "--out", "i.csv", "--mask", "m.csv"],
    ["bench", "--detector", "ddm", "--input", src],
    ["bench", "--detector", "hddm_a", "--input", src],
    ["bench", "--detector", "page_hinkley", "--input", src],
    ["bench", "--detector", "adwin", "--input", src],
    ["bench", "--detector", "kswin", "--window-size", "100", "--input", src],
    ["bench", "--detector", "chi2", "--window-size", "100", "--input", src],
    ["bench", "--detector", "fet", "--window-size", "100", "--input", src],
    ["eval", "--suite", "sea", "--n-exp", "1", "--baselines", "kswin,chi2,fet", "--out", "sea.csv"],
    ["eval", "--suite", "inject", "--data", "surrogate", "--rows", "2000", "--supports", "0.1",
     "--n-exp", "1", "--baselines", "kswin,chi2,fet", "--out", "inject.csv"],
]
with contextlib.redirect_stdout(io.StringIO()):  # bench prints its drift points
    codes = [main(a) for a in args]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _run_python(script, tmp_path) == f"{[0] * 14} []"
    assert (tmp_path / "r.attribution.csv").exists()
    for name in ("g.csv", "i.csv", "sea.csv", "inject.csv"):
        assert (tmp_path / name).stat().st_size > 0
    assert "scipy" not in json.loads((tmp_path / "sea.csv.manifest.json").read_text())


@pytest.mark.parametrize("suite", ["inject", "sea", "timing"])
def test_eval_rejects_an_unknown_baseline_before_any_work(tmp_path, caplog, monkeypatch, suite):
    def never(*args, **kwargs):
        raise AssertionError("a suite started before the baseline kinds were checked")

    monkeypatch.setattr(cli, "resolve_tabular", never)
    for name in ("run_injection_suite", "run_concept_suite", "timing_bench"):
        monkeypatch.setattr(evaluation, name, never)
    out = tmp_path / "out.csv"
    code = run_cli(
        "eval", "--suite", suite, "--data", "surrogate", "--rows", "4000",
        "--baselines", "kswin,foo", "--out", out,
    )
    assert code == 2
    assert "unknown --baselines kind 'foo'" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("eval", "--supports", "abc", "invalid _fractions value: 'abc'"),
        ("eval", "--supports", "0", "expected a fraction in (0, 1], got 0"),
        ("eval", "--supports", "0.05,1.5", "expected a fraction in (0, 1], got 1.5"),
        ("eval", "--threads", "-2", "expected a positive integer, got -2"),
        ("eval", "--threads", "0", "expected a positive integer, got 0"),
        ("eval", "--suite", "adult-inject", "invalid choice: 'adult-inject'"),
        ("gen", "--concepts", "a,b", "expected two comma-separated integers, e.g. 0,2, got a,b"),
        ("gen", "--concepts", "0,1,2", "expected two comma-separated integers, e.g. 0,2, got 0,1,2"),
    ],
)
def test_flag_value_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, command, flag, value, message):
    def never(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli, "resolve_tabular", never)
    for name in ("run_injection_suite", "run_concept_suite", "timing_bench"):
        monkeypatch.setattr(evaluation, name, never)
    out = tmp_path / "out.csv"
    args = {
        "eval": ["eval", "--suite", "inject", "--data", "surrogate", "--rows", "4000", "--out", out],
        "gen": ["gen", "--dataset", "sea", "--out", out],
    }[command]
    assert run_cli(*args, flag, value) == 1
    assert f"driftscope {command}: error: argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,detector",
    [("--delta", "0.01", "ddm"), ("--min-samples", "50", "kswin"), ("--window-size", "50", "adwin")],
)
def test_bench_rejects_a_flag_its_detector_does_not_take(tmp_path, capsys, flag, value, detector):
    src = tmp_path / "data.csv"
    write_sample_csv(src, n=100)
    assert run_cli("bench", "--detector", detector, flag, value, "--input", src) == 1
    captured = capsys.readouterr()
    assert f"driftscope bench: error: {flag} does not apply to --detector {detector}" in captured.err
    assert captured.out == ""


def test_eval_timing_suite_small(tmp_path):
    out = tmp_path / "timing.csv"
    code = run_cli(
        "eval", "--suite", "timing", "--data", "surrogate", "--min-support", "0.2",
        "--rows", "4000", "--out", out,
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    methods = {r["method"] for r in rows}
    assert {"driftscope", "ddm"} <= methods


def test_eval_inject_suite_small(tmp_path):
    out = tmp_path / "inject.csv"
    code = run_cli(
        "eval", "--suite", "inject", "--data", "surrogate", "--rows", "3000",
        "--supports", "0.1", "--n-exp", "2", "--out", out,
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["method"] for r in rows} == {"driftscope", "ddm"}
    assert all(r["target_support"] == "0.1" for r in rows)
    di = next(r for r in rows if r["method"] == "driftscope")
    assert 0.0 <= float(di["accuracy"]) <= 1.0
    assert di["ndcg10_mean"] != ""


def test_eval_concept_suite_small(tmp_path):
    out = tmp_path / "sea.csv"
    code = run_cli(
        "eval", "--suite", "sea", "--n-exp", "2", "--baselines", "ddm,adwin",
        "--out", out,
    )
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert {r["method"] for r in rows} == {"driftscope", "ddm", "adwin"}


def test_full_pipeline_under_ten_seconds(tmp_path):
    start = time.perf_counter()
    src = tmp_path / "sample.csv"
    rows = census_sample(n=1000, seed=2)
    with open(src, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerows([r])
    catalog_path = tmp_path / "catalog.json"
    assert run_cli(
        "mine", "--input", src, "--min-support", "0.05", "--max-len", "2",
        "--out", catalog_path,
    ) == 0
    pred = _with_predictions(tmp_path, src)
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", pred,
        "--window", "2", "--batch-size", "100", "--out", tmp_path / "reports",
    ) == 0
    assert run_cli(
        "report", "--reports", tmp_path / "reports", "--catalog", catalog_path,
        "--top", "10", "--out", tmp_path / "summary.md",
    ) == 0
    assert time.perf_counter() - start < 10.0


def _census_csv(path, n, seed, columns=None):
    rows = census_sample(n=n, seed=seed)
    columns = columns or list(rows[0])
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n", extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    return rows


def test_mine_csv_and_jsonl_of_the_same_rows_write_one_artifact(tmp_path):
    rows = _census_csv(tmp_path / "ref.csv", 1500, seed=6)
    with open(tmp_path / "ref.jsonl", "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    for name in ("ref.csv", "ref.jsonl"):
        assert run_cli(
            "mine", "--input", tmp_path / name, "--min-support", "0.05", "--max-len", "3",
            "--out", tmp_path / f"{name}.json",
        ) == 0
    assert (tmp_path / "ref.csv.json").read_bytes() == (tmp_path / "ref.jsonl.json").read_bytes()


@pytest.mark.parametrize(
    "binning",
    [
        (),
        ("age=categorical",),
        ("age=quantile:3",),
        ("age=quantile:3", "sex=categorical", "hours_per_week=categorical"),
    ],
)
def test_mine_matches_the_row_path_without_a_label_and_with_binning_rules(tmp_path, binning):
    columns = ["age", "workclass", "education", "sex", "hours_per_week", "capital_gain"]
    _census_csv(tmp_path / "ref.csv", 2000, seed=8, columns=columns)
    flags = [f for spec in binning for f in ("--binning", spec)]
    out = tmp_path / "catalog.json"
    assert run_cli(
        "mine", "--input", tmp_path / "ref.csv", "--min-support", "0.02", "--max-len", "3",
        "--bins", "5", *flags, "--out", out,
    ) == 0
    rules = {}
    for spec in binning:
        attr, _, rule = spec.partition("=")
        rules[attr] = "categorical" if rule == "categorical" else ("quantile", int(rule.split(":")[1]))
    expected = rowpath.mine_artifact(tmp_path / "ref.csv", 0.02, max_len=3, bins=5, binning=rules)
    assert json.loads(out.read_text()) == expected


def test_mine_quantile_rule_over_text_exits_two(tmp_path, caplog):
    _census_csv(tmp_path / "ref.csv", 200, seed=8)
    code = run_cli(
        "mine", "--input", tmp_path / "ref.csv", "--min-support", "0.1",
        "--binning", "sex=quantile:2", "--out", tmp_path / "c.json",
    )
    assert code == 2
    assert "'sex' has non-numeric values" in caplog.text


def test_mine_rejects_a_repeated_column_name(tmp_path, caplog):
    src = tmp_path / "dup.csv"
    src.write_text("a,b,a,y\n1,x,2,0\n3,y,4,1\n")
    code = run_cli("mine", "--input", src, "--min-support", "0.1", "--out", tmp_path / "c.json")
    assert code == 2
    assert "column name(s) repeated in the header: 'a'" in caplog.text
    assert not (tmp_path / "c.json").exists()


def test_mine_header_only_file_exits_two(tmp_path, caplog):
    src = tmp_path / "empty.csv"
    src.write_text("a,b,y\n")
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", tmp_path / "c.json") == 2
    assert "no data rows" in caplog.text


def test_monitor_reads_a_jsonl_array_or_object_value_as_its_text(tmp_path, caplog):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    rows = list(csv.DictReader(open(src)))[:200]
    rows[0]["color"] = {"k": 1}  # no such item: skipped
    rows[1]["size"] = [1, 2]  # unparsable as a number: skipped
    with open(tmp_path / "stream.jsonl", "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    caplog.set_level("INFO")
    assert run_cli(
        "monitor", "--catalog", catalog_path, "--input", tmp_path / "stream.jsonl",
        "--window", "1", "--batch-size", "100", "--out", tmp_path / "out",
    ) == 0
    assert "(2 skipped values)" in caplog.text


def test_mine_then_monitor_on_jsonl_array_values_match_their_text_in_csv(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(400):
        tags = [[1, 2], [3], []][int(rng.integers(0, 3))]
        rows.append({"color": str(rng.choice(["red", "blue"])), "tags": tags,
                     "y": int(rng.integers(0, 2)), "y_hat": int(rng.integers(0, 2))})
    with open(tmp_path / "ref.jsonl", "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows({**r, "tags": str(r["tags"])} for r in rows)
    for name in ("ref.jsonl", "ref.csv"):
        assert run_cli(
            "mine", "--input", tmp_path / name, "--min-support", "0.05", "--max-len", "2",
            "--out", tmp_path / f"{name}.json",
        ) == 0
        assert run_cli(
            "monitor", "--catalog", tmp_path / f"{name}.json", "--input", tmp_path / name,
            "--window", "1", "--batch-size", "100", "--out", tmp_path / f"{name}.out",
        ) == 0
    assert (tmp_path / "ref.jsonl.json").read_bytes() == (tmp_path / "ref.csv.json").read_bytes()
    items = json.loads((tmp_path / "ref.jsonl.json").read_text())["item_catalog"]["items"]
    assert {"[1, 2]", "[3]", "[]"} <= {it["value"] for it in items if it["attribute"] == "tags"}
    assert (tmp_path / "ref.jsonl.out" / "reports.jsonl").read_text() == (
        tmp_path / "ref.csv.out" / "reports.jsonl"
    ).read_text()


def _drifting_stream(path, n=600, drift_from=400, seed=6):
    """``write_sample_csv`` rows whose predictions for red rows turn wrong
    from row ``drift_from`` on."""
    write_sample_csv(path, n=n, seed=seed)
    rows = list(csv.DictReader(open(path)))
    for i, r in enumerate(rows):
        if i >= drift_from and r["color"] == "red":
            r["y_hat"] = str(1 - int(r["y"]))
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def test_report_flags_agree_with_the_run_it_reports_on(tmp_path):
    src, catalog_path = tmp_path / "stream.csv", tmp_path / "catalog.json"
    _drifting_stream(src)
    assert run_cli("mine", "--input", src, "--min-support", "0.05", "--max-len", "2", "--out", catalog_path) == 0
    flagged = {}
    for tau_t, min_count in (("5", "0"), ("30", "0"), ("1", "0"), ("5", "100000"), ("2", "60")):
        out = tmp_path / f"run_{tau_t}_{min_count}"
        assert run_cli(
            "monitor", "--catalog", catalog_path, "--input", src, "--window", "2", "--batch-size", "100",
            "--tau-t", tau_t, "--min-count", min_count, "--out", out,
        ) == 0
        last = json.loads((out / "reports.jsonl").read_text().splitlines()[-1])
        assert last["tau_t"] == float(tau_t)
        drifted = {sg["subgroup_id"] for sg in last["subgroups"] if sg["drifted"]}
        table = out / "report.csv"
        assert run_cli(
            "report", "--reports", out, "--catalog", catalog_path, "--format", "csv", "--out", table,
        ) == 0
        rows = list(csv.DictReader(open(table)))
        assert rows
        assert [r["drifted"] == "True" for r in rows] == [int(r["subgroup_id"]) in drifted for r in rows]
        flagged[tau_t, min_count] = sum(r["drifted"] == "True" for r in rows)
    # the rules give different flags, so the check above can tell them apart
    assert flagged["5", "0"] > 0 and flagged["30", "0"] == 0 and flagged["5", "100000"] == 0
    assert 0 < flagged["2", "60"] < flagged["1", "0"]


def test_report_has_no_tau_t_flag(tmp_path, capsys):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    assert run_cli("report", "--reports", reports_dir, "--catalog", catalog_path, "--tau-t", "5") == 1
    assert "--tau-t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(version=1), "monitor state version 1, expected 2; re-run `driftscope monitor`"),
        (
            lambda d: d["current_ring"].append(d["current_ring"][0]),
            "current_ring holds 3 batches, more than 2 at window_batches 2 with reference_stats set",
        ),
        (
            lambda d: d.update(reference_stats=None),
            "current_ring holds 2 batches, more than 1 at window_batches 2 with reference_stats null",
        ),
        (lambda d: d.pop("tau_t"), "no field 'tau_t'"),
        (lambda d: d.update(tau_t="five"), "tau_t must be a number"),
        (lambda d: d.update(tau_t=float("inf")), "tau_t must be finite, got inf"),
        (lambda d: d.pop("min_count"), "no field 'min_count'"),
        (lambda d: d.update(min_count="none"), "min_count must be an integer"),
    ],
)
def test_report_rejects_a_bad_state_naming_the_field(tmp_path, caplog, edit, message):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    state_path = reports_dir / "monitor_state.json"
    state = json.loads(state_path.read_text())
    edit(state)
    state_path.write_text(json.dumps(state))
    assert run_cli("report", "--reports", reports_dir, "--catalog", catalog_path) == 2
    assert message in caplog.text


@pytest.mark.parametrize(
    "command, outputs",
    [("inject", {"out": "x.jsonl"}), ("inject", {"mask": "m.NDJSON"}),
     ("gen", {"out": "s.jsonl"}), ("gen", {"train_out": "t.ndjson"})],
)
def test_csv_writers_reject_a_jsonl_output_path(tmp_path, caplog, command, outputs):
    src, catalog_path, _ = _mined_and_monitored(tmp_path)
    paths = {"out": "x.csv", "mask": "m.csv", "train_out": "t.csv", **outputs}
    paths = {k: tmp_path / "outputs" / v for k, v in paths.items()}
    (tmp_path / "outputs").mkdir()
    if command == "inject":
        args = ["inject", "--input", src, "--catalog", catalog_path, "--subgroup", "color=red",
                "--p-max", "0.5", "--out", paths["out"], "--mask", paths["mask"]]
    else:
        args = ["gen", "--dataset", "sea", "--n-batches", "2", "--batch-size", "50", "--train-size", "50",
                "--out", paths["out"], "--train-out", paths["train_out"]]
    assert run_cli(*args) == 2
    flag = next(iter(outputs))
    assert f"--{flag.replace('_', '-')} {paths[flag]}: {command} writes CSV, not JSONL" in caplog.text
    assert list((tmp_path / "outputs").iterdir()) == []


@pytest.mark.parametrize(
    "spec, attributes, items",
    [
        ("city=Paris, FR", ["city"], ["city=Paris, FR"]),
        ("city=Paris, FR,size=(25,36]", ["city", "size"], ["city=Paris, FR", "size=(25,36]"]),
        ("age=(25,36],sex=Female", ["age", "sex"], ["age=(25,36]", "sex=Female"]),
        ("age=[-inf,25],sex=Female", ["age", "sex"], ["age=[-inf,25]", "sex=Female"]),
        ("education=HS, grad,education_num=(9,13]", ["education", "education_num"],
         ["education=HS, grad", "education_num=(9,13]"]),
        ("education_num=(9,13],education=Bachelors", ["education", "education_num"],
         ["education_num=(9,13]", "education=Bachelors"]),
        ("sex=Female,  age=(25,36], workclass=Private", ["age", "sex", "workclass"],
         ["sex=Female", "age=(25,36]", "workclass=Private"]),
    ],
)
def test_parse_subgroup_splits_only_before_a_catalog_attribute(spec, attributes, items):
    assert _parse_subgroup(spec, attributes) == items


def test_inject_targets_a_categorical_value_holding_a_comma(tmp_path):
    rng = np.random.default_rng(2)
    src, catalog_path = tmp_path / "data.csv", tmp_path / "catalog.json"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["city", "size", "y"])
        for _ in range(200):
            w.writerow([["Paris, FR", "Lyon, FR"][rng.integers(2)], int(rng.integers(1, 100)), int(rng.integers(2))])
    assert run_cli("mine", "--input", src, "--min-support", "0.1", "--out", catalog_path) == 0
    out, mask = tmp_path / "x.csv", tmp_path / "m.csv"
    spec = "city=Paris, FR"
    assert run_cli(
        "inject", "--input", src, "--catalog", catalog_path, "--subgroup", spec, "--p-max", "0.9",
        "--normal", "1", "--transition", "1", "--drift", "2", "--out", out, "--mask", mask,
    ) == 0
    rows = list(csv.DictReader(open(src)))
    altered = [r["altered"] == "1" for r in csv.DictReader(open(mask))]
    assert any(altered) and all(r["city"] == "Paris, FR" for r, a in zip(rows, altered) if a)
    out_text, mask_text = rowpath.inject_texts(src, catalog_path, spec, 0.9, normal=1, transition=1, drift=2)
    assert out.read_text() == out_text and mask.read_text() == mask_text


def test_csv_text_matches_a_dict_writer():
    rng = np.random.default_rng(9)
    values = [None, "", "a", "a,b", 'say "hi"', "two\nlines", 0, -3, 1.5, float("nan"), 1e-300, True, "(25,36]"]
    columns = ["subgroup_id", "items", "t", "drifted"]
    for _ in range(50):
        rows = [
            {c: values[rng.integers(len(values))] for c in columns if rng.random() < 0.8}
            for _ in range(int(rng.integers(0, 6)))
        ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({c: ("" if r.get(c) is None else r.get(c)) for c in columns})
        assert _csv_text(rows, columns) == buf.getvalue()
