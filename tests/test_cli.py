import csv
import json
import time

import numpy as np
import pytest

from driftscope.cli import main
from driftscope.datasets import census_sample


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


def _edit_artifact(path, edit):
    artifact = json.loads(path.read_text())
    edit(artifact["subgroup_catalog"]["subgroups"])
    path.write_text(json.dumps(artifact))


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
    code = run_cli(
        "report", "--reports", reports_dir, "--catalog", catalog_path,
        "--shapley", "--out", tmp_path / "r.md",
    )
    assert code == 2
    assert f"itemset [{item}]" in caplog.text


def test_report_state_for_another_catalog_exits_two(tmp_path, caplog):
    _, catalog_path, reports_dir = _mined_and_monitored(tmp_path)
    _edit_artifact(catalog_path, lambda sgs: sgs.pop())
    n = len(json.loads(catalog_path.read_text())["subgroup_catalog"]["subgroups"])
    code = run_cli("report", "--reports", reports_dir, "--catalog", catalog_path)
    assert code == 2
    assert f"monitor state has {n + 1} subgroups" in caplog.text


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
