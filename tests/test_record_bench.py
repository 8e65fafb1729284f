"""The BENCH file schema of tools/record_bench.py, on hand-written documents;
no benchmark runs here."""

import ast
import copy
import importlib.metadata
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def _perfbench_units() -> dict:
    """perfbench's PER_LAYER_UNITS, read from its source without importing it."""
    tree = ast.parse((_PATH.parents[1] / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PER_LAYER_UNITS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py has no PER_LAYER_UNITS")


def _side(runs):
    return {"median": sorted(runs)[1], "q1": min(runs), "q3": max(runs), "runs": runs}


BENCH = {
    "schema": 2,
    "workload": "monitor-shallow",
    "base": {"commit": "a" * 40, "src_sha256": "b" * 64},
    "head": {"commit": "a" * 40, "uncommitted_changes": True, "src_sha256": "c" * 64},
    "machine": {
        "nproc": 2, "numba": False, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
        "pythondontwritebytecode": False,
    },
    "protocol": {
        "pairs": 3, "seconds": 6, "seeds": [1, 2, 3], "first": "base on odd seeds, head on even seeds",
        "bootstrap": {"resamples": 5000, "seed": 0, "level": 0.9},
    },
    "end_to_end": {
        "monitor_rows_per_s": {
            "unit": "rows/s", "better": "higher", "bound": 0.25,
            "base": _side([40000.0, 40000.0, 50000.0]), "head": _side([44000.0, 40000.0, 45000.0]),
            "pairs": 3, "head_wins": 1,
            # each of the 3 ratios is a resample's median with probability >= 7/27,
            # so the 5th and 95th percentiles of those medians are the extremes
            "ratios": [1.1, 1.0, 0.9], "ratio_median": 1.0, "ratio_interval": [0.9, 1.1], "verdict": "within bound",
        },
    },
    "traced": {
        side: {
            "seed": 1,
            "metrics": {
                "catalog.read_rows_s": {"value": 0.8, "unit": "s"},
                "catalog.build_catalog_s": {"value": None, "unit": "s", "source": "span catalog.build_catalog"},
            },
        }
        for side in ("base", "head")
    },
    "runs": [
        {"side": side, "seed": seed, "trace": 0, "correct": True} for seed in (1, 2, 3) for side in ("base", "head")
    ] + [{"side": side, "seed": 1, "trace": 1, "correct": True} for side in ("base", "head")],
}


@pytest.mark.parametrize("scipy", ["1.17.1", None])
def test_the_machine_facts_are_the_usable_cores_and_the_scipy_version(monkeypatch, scipy):
    def version(name):
        if scipy is None:
            raise importlib.metadata.PackageNotFoundError(name)
        return {"scipy": scipy}[name]

    monkeypatch.setattr(record_bench.os, "sched_getaffinity", lambda pid: {0, 3, 5})
    monkeypatch.setattr(record_bench.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(record_bench.importlib.metadata, "version", version)
    facts = record_bench.machine_facts()
    assert (facts["nproc"], facts["scipy"]) == (3, scipy)
    assert "cpu_count" not in facts


def test_a_hand_written_bench_file_passes_the_schema(tmp_path):
    path = tmp_path / "BENCH_monitor-shallow.json"
    path.write_text(json.dumps(BENCH, indent=1))
    record_bench.check_bench(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["runs"][3].update(correct=False), "not correct"),
        (lambda d: d["machine"].pop("numba"), "machine: no numba"),
        (lambda d: d["machine"].pop("nproc"), "machine: no nproc"),
        (lambda d: d["machine"].pop("scipy"), "machine: no scipy"),
        (lambda d: d["head"].pop("commit"), "head: no commit"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"].update(head_wins=4), "monitor_rows_per_s: head_wins"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"]["base"]["runs"].pop(), "monitor_rows_per_s: base runs"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"]["head"].update(q1=1e9), "head quartiles out of order"),
        (lambda d: d["traced"]["base"]["metrics"]["catalog.build_catalog_s"].pop("source"), "null without a source"),
        (lambda d: d.update(schema=1), "schema is not 2"),
        (lambda d: d["protocol"].update(bootstrap={"resamples": 1000, "seed": 0, "level": 0.9}), "protocol: bootstrap"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"].pop("bound"), "monitor_rows_per_s: no bound"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"].update(verdict="better"),
         "monitor_rows_per_s: verdict does not follow from the runs"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"].update(ratio_interval=[0.95, 1.1]),
         "monitor_rows_per_s: ratio_interval does not follow"),
        (lambda d: d["end_to_end"]["monitor_rows_per_s"]["head"]["runs"].__setitem__(1, 41000.0),
         "monitor_rows_per_s: ratios does not follow"),
    ],
)
def test_the_schema_rejects_an_incomplete_file(edit, message):
    doc = copy.deepcopy(BENCH)
    edit(doc)
    with pytest.raises(ValueError, match=message):
        record_bench.check_bench(doc)


def test_a_time_size_or_delay_that_reads_zero_is_null_with_its_source():
    # perfbench fills a layer the workload does not measure with 0, also
    # where the span ran (the eval-only column metrics in a monitor workload)
    metrics = {
        "catalog.build_catalog_s": {"value": 0.0, "unit": "s"},
        "evaluation.columns_build_catalog_s": {"value": 0.0, "unit": "s"},
        "mining.artifact_mb": {"value": 0.0, "unit": "MB"},
        "detector.detection_delay_batches": {"value": 0.0, "unit": "batches"},
        "cli.batch_ms_p50": {"value": 11.8, "unit": "ms"},
        "catalog.skipped_values": {"value": 0.0, "unit": "count"},
    }
    assert record_bench.traced_metrics(metrics) == {
        "catalog.build_catalog_s": {"value": None, "unit": "s", "source": "span catalog.build_catalog"},
        "evaluation.columns_build_catalog_s": {
            "value": None, "unit": "s", "source": "span evaluation.ColumnData.build_catalog in the eval workload",
        },
        "mining.artifact_mb": {"value": None, "unit": "MB", "source": "file of the catalog artifact"},
        "detector.detection_delay_batches": {
            "value": None, "unit": "batches", "source": "reports.jsonl after the workload's drift onset",
        },
        "cli.batch_ms_p50": {"value": 11.8, "unit": "ms"},
        "catalog.skipped_values": {"value": 0.0, "unit": "count"},
    }


def test_every_time_size_and_delay_metric_has_a_source():
    # the per-layer metrics in a unit of time, size or batches are exactly those the null rule covers
    units = ("s", "ms", "us", "MB", "KiB", "batches")
    assert set(record_bench.METRIC_SOURCES) == {name for name, u in _perfbench_units().items() if u in units}


def test_compare_counts_the_pairs_the_head_wins_in_the_declared_direction():
    declared = {
        "monitor_rows_per_s": {"unit": "rows/s", "better": "higher", "bound": 0.25},
        "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    }

    def results(rows, setup):
        return [{"metrics": {"monitor_rows_per_s": {"value": r}, "setup_s": {"value": s}}} for r, s in zip(rows, setup)]

    got = record_bench.compare(
        {"base": results([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]),
         "head": results([2.0, 1.0, 4.0, 4.0], [0.5, 2.0, 0.9, 1.0])},
        declared,
    )
    assert got["monitor_rows_per_s"]["head_wins"] == 2 and got["setup_s"]["head_wins"] == 2
    assert got["monitor_rows_per_s"]["ratios"] == [2.0, 0.5, 4 / 3, 1.0]
    assert got["monitor_rows_per_s"]["ratio_median"] == pytest.approx(7 / 6)
    assert got["setup_s"]["ratios"] == [0.5, 2.0, 0.9, 1.0] and got["setup_s"]["ratio_median"] == 0.95
    assert got["monitor_rows_per_s"]["pairs"] == 4
    base = got["monitor_rows_per_s"]["base"]
    assert (base["q1"], base["median"], base["q3"]) == (1.75, 2.5, 3.25)  # numpy's default percentiles


@pytest.mark.parametrize(
    "interval, better, expected",
    [
        ([1.01, 1.2], "higher", "better"),
        ([0.8, 0.99], "lower", "better"),
        ([0.75, 1.1], "higher", "within bound"),  # the worse end on the 25 % bound is inside it
        ([0.9, 1.25], "lower", "within bound"),
        ([1.0, 1.2], "higher", "within bound"),  # touching 1 is not better
        ([0.74, 1.1], "higher", "unresolved"),
        ([0.9, 1.26], "lower", "unresolved"),
        ([0.5, 0.74], "higher", "beyond bound"),
        ([1.26, 1.5], "lower", "beyond bound"),
    ],
)
def test_the_verdict_reads_the_interval_against_the_bound(interval, better, expected):
    assert record_bench.verdict(interval, better, 0.25) == expected


@pytest.mark.parametrize(
    "base, head, better, ratio, interval, expected",
    [
        # every pair reads the same ratio, so every resample's median is that ratio
        ([2.0] * 10, [1.8] * 10, "lower", 0.9, [0.9, 0.9], "better"),
        ([1.0] * 10, [1.3] * 10, "lower", 1.3, [1.3, 1.3], "beyond bound"),
        ([100.0] * 10, [80.0] * 10, "higher", 0.8, [0.8, 0.8], "within bound"),
        # five pairs at 0.7 and five at 1.0: a resample's median is 0.7 when it
        # draws six or more of the 0.7s (probability 0.377), 1.0 when it draws
        # four or fewer (0.377), so the 90 % interval spans [0.7, 1.0]
        ([100.0] * 10, [70.0, 100.0] * 5, "higher", 0.85, [0.7, 1.0], "unresolved"),
    ],
)
def test_paired_runs_give_their_known_ratios_interval_and_verdict(base, head, better, ratio, interval, expected):
    got = record_bench.paired(base, head, better, 0.25)
    assert got["ratios"] == pytest.approx([h / b for b, h in zip(base, head)])
    assert got["ratio_median"] == pytest.approx(ratio)
    assert got["ratio_interval"] == pytest.approx(interval)
    assert got["verdict"] == expected


def test_the_interval_is_reproducible_from_the_runs():
    ratios = [0.93, 1.02, 0.97, 1.10, 0.99, 1.05, 0.96, 1.01, 0.98, 1.04]
    lo, hi = record_bench.ratio_interval(ratios)
    assert record_bench.ratio_interval(ratios) == [lo, hi]  # a fixed seed and resample count
    assert min(ratios) <= lo <= sorted(ratios)[4] and sorted(ratios)[5] <= hi <= max(ratios)


_BENCHMARK = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in _BENCHMARK["workloads"]])
def test_each_checked_in_bench_file_is_complete_and_reads_the_declared_metrics(workload):
    doc = json.loads((_PATH.parents[1] / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    record_bench.check_bench(doc)
    assert doc["workload"] == workload
    fields = ("unit", "better", "bound")
    declared = {m["name"]: {k: m[k] for k in fields} for m in _BENCHMARK["end_to_end"]}
    assert {name: {k: m[k] for k in fields} for name, m in doc["end_to_end"].items()} == declared
    per_layer = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
    for side in record_bench.SIDES:
        assert {name: m["unit"] for name, m in doc["traced"][side]["metrics"].items()} == per_layer


def test_a_compiled_cache_under_src_stops_the_recording_before_any_export(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK), encoding="utf-8")
    caches = [tmp_path / "src" / "driftscope" / "__pycache__", tmp_path / "src" / "__pycache__"]
    for cache in caches:
        cache.mkdir(parents=True)
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)

    def no_export(*args):
        raise AssertionError("exported a revision")

    monkeypatch.setattr(record_bench, "export", no_export)
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--base", "HEAD"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(str(cache) in err for cache in caches)
