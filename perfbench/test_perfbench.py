"""Self-test of the benchmark: its declared schema and its oracle.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import instrument  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, tail  # noqa: E402

import driftscope.cli as cli  # noqa: E402
from driftscope.catalog import ItemCatalog, build_catalog  # noqa: E402
from driftscope.datasets import ADULT_COLUMNS, census_sample  # noqa: E402
from driftscope.mining import MiningConfig, mine_frequent  # noqa: E402
from driftscope.sgmetrics import EncodedBatch, aggregate, build_point_matrix, membership  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for w in bench["workloads"]:
        assert NAME.match(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200


@pytest.mark.parametrize("units", [workloads.END_TO_END_UNITS, workloads.PER_LAYER_UNITS])
def test_result_line_schema(units):
    result = {"metrics": {n: (1.5, u) for n, u in units.items()}, "attempted": 7, "failures": ["x"]}
    line = json.loads(json.dumps(run.result_line(result, units)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 7, 1)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_result_line_rejects_a_missing_metric():
    units = workloads.END_TO_END_UNITS
    result = {"metrics": {n: (1.0, u) for n, u in list(units.items())[1:]}, "attempted": 1, "failures": []}
    with pytest.raises(RuntimeError):
        run.result_line(result, units)


def _small_batch(seed: int):
    rng = np.random.default_rng(seed)
    records = [
        {"a": str(rng.integers(3)), "b": str(rng.integers(2)), "c": float(rng.integers(10))}
        for _ in range(300)
    ]
    catalog = build_catalog(records, default_bins=3)
    items = [catalog.encode(r) for r in records]
    P = build_point_matrix(items, catalog.n_items)
    sgcat = mine_frequent(P, MiningConfig(0.02, max_len=3), item_attrs=catalog.item_attributes())
    alpha = rng.integers(0, 2, len(records))
    beta = (1 - alpha) * rng.integers(0, 2, len(records))
    batch = EncodedBatch(P, alpha, beta)
    return items, alpha, beta, sgcat, aggregate(batch, membership(batch, sgcat))


def test_oracle_agrees_with_the_program_and_flags_a_perturbed_count():
    items, alpha, beta, sgcat, stats = _small_batch(3)
    sample = np.arange(len(sgcat))
    expected = oracle.subset_counts(items, alpha, beta, [sg.item_ids for sg in sgcat.subgroups])
    assert oracle.mismatches(expected, stats.alpha_counts, stats.beta_counts, sample) == []
    assert expected[0][0] == alpha.sum()  # the global subgroup covers every row

    j = len(sgcat) // 2
    perturbed = stats.alpha_counts.copy()
    perturbed[j] += 1
    assert oracle.mismatches(expected, perturbed, stats.beta_counts, sample) == [j]
    perturbed = stats.beta_counts.copy()
    perturbed[0] -= 1
    assert oracle.mismatches(expected, stats.alpha_counts, perturbed, sample) == [0]


def test_oracle_sample_keeps_global_and_drifted():
    picked = oracle.sample_subgroups(1000, [17, 999], 5, seed=1)
    assert {0, 17, 999} <= set(picked.tolist())
    assert len(picked) <= 8


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("root"):
        with tr.span("child", batch=4):
            with tr.span("leaf"):
                pass
        with tr.span("child"):
            pass
    own = tr.self_ns()
    dur = [s[4] - s[3] for s in tr.spans]
    assert sum(own) == dur[0]
    assert own[1] == dur[1] - dur[2]
    assert tr.spans[2][2] == 4  # batch id inherited from the parent
    assert len(tr.durations_s("child", root="root")) == 2


def test_tail_has_ten_samples_beyond_it():
    value, n = tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 3)


def test_open_span_ends_with_its_parent():
    tr = Tracer()
    with tr.span("loop"):
        tr.begin("batch", batch=1)
        with tr.span("work"):
            pass
        tr.end("other")  # not innermost: stays open
        tr.begin("batch2")
    names = [s[0] for s in tr.spans]
    assert names == ["loop", "batch", "work", "batch2"]
    assert all(s[4] > 0 for s in tr.spans) and tr.innermost() == (None, None)
    assert tr.spans[3][1] == 1 and tr.spans[3][2] == 1  # nested in the batch, inherits its id


def test_traced_cli_run_has_program_batches_and_restores_the_program(tmp_path):
    rows = census_sample(n=900, seed=4)
    for i, r in enumerate(rows):
        r["y_hat"] = (r["y"] + (i % 7 == 0)) % 2
    workloads.inputs.write_csv(tmp_path / "ref.csv", rows[:500], [*ADULT_COLUMNS, "y"])
    workloads.inputs.write_csv(tmp_path / "stream.csv", rows[500:], [*ADULT_COLUMNS, "y", "y_hat"])
    art, mon = tmp_path / "cat.json", tmp_path / "mon"
    originals = (cli.membership, cli.read_rows, ItemCatalog.__dict__["from_dict"])

    ops, tr = workloads.Ops(), Tracer()
    seen = workloads.BatchObserver(ops, tr)
    args = ["mine", "--input", str(tmp_path / "ref.csv"), "--min-support", "0.1", "--max-len", "2", "--out", str(art)]
    workloads.in_process(ops, args, tr)
    args = ["monitor", "--catalog", str(art), "--input", str(tmp_path / "stream.csv"), "--batch-size", "100",
            "--window", "2", "--out", str(mon)]
    workloads.in_process(ops, args, tr, seen)
    seen.check_batch_ids()
    assert ops.attempted == 3 and not ops.failures

    assert (cli.membership, cli.read_rows, ItemCatalog.__dict__["from_dict"]) == originals
    batches = [s for s in tr.spans if s[0] == "cli.batch"]
    assert [s[2] for s in batches] == [1, 2, 3, 4]
    assert all(tr.spans[s[1]][0] == "cli.monitor" for s in batches)
    member = [s for s in tr.spans if s[0] == "sgmetrics.membership"]
    assert [tr.spans[s[1]][0] for s in member] == ["cli.batch"] * 4
    assert len(tr.durations_s("catalog.encode_with_stats", "cli.monitor")) == 400
    assert len(seen.member_pairs) == 4 and len(seen.drifted) == 2
