"""Record a benchmark comparison of two driftscope revisions as BENCH_<workload>.json.

Each side runs its own, unchanged ``perfbench/run.py`` as a subprocess: the
base revision from a ``git archive`` export in a temporary directory, and the
head from this checkout's working tree. Per workload the sides alternate over
``PAIRS`` seeds at ``--trace 0`` (the seed-s pair runs base first when s is
odd, head first when s is even), then each side runs once at ``--trace 1``
for the per-layer numbers. Every workload of ``BENCHMARK.json`` is recorded,
each run for its ``run_seconds``. Each end-to-end metric is also read as
paired head/base ratios: their median, a percentile-bootstrap 90 % interval
of that median (Kalibera & Jones, ISMM 2013) and a verdict against the
metric's bound (``verdict``). Run from anywhere inside the checkout:

    python tools/record_bench.py --base HEAD            # the working tree against the last commit
    python tools/record_bench.py --base HEAD~1

It refuses to start while a ``__pycache__`` directory lies under the
working tree's ``src/``: the base export has none, so with
``PYTHONDONTWRITEBYTECODE=1`` only the head would skip compiling. A run
whose result line is not ``"correct": true`` fails the recording, and
no file is written for its workload. A traced time, size or detection delay
that reads 0 is recorded as ``null`` with what it is read from
(``METRIC_SOURCES``): a timed span, a written file and a delay (at least one
batch) are never 0, so that 0 is perfbench's fill for what the workload does
not measure, and it measures nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 2
SIDES = ("base", "head")
PAIRS = 10  # alternated untraced pairs per workload
BOOTSTRAP = {"resamples": 5000, "seed": 0, "level": 0.9}  # of the median head/base ratio

# What each time, size and delay metric of a traced run is read from
# (perfbench/workloads.py). The other per-layer metrics are counts, fractions
# and percentages, for which 0 is a measured value.
METRIC_SOURCES = {
    "catalog.read_rows_s": "span catalog.read_rows",
    "catalog.encode_us_per_row": "span catalog.encode_with_stats",
    "catalog.build_catalog_s": "span catalog.build_catalog",
    "sgmetrics.point_matrix_ms_p50": "span sgmetrics.build_point_matrix",
    "sgmetrics.membership_ms_p50": "span sgmetrics.membership",
    "sgmetrics.membership_ms_tail": "span sgmetrics.membership",
    "sgmetrics.aggregate_ms_p50": "span sgmetrics.aggregate",
    "detector.step_ms_p50": "span detector.step",
    "detector.to_dict_ms_p50": "span detector.DriftReport.to_dict",
    "detector.report_kb_per_batch": "file reports.jsonl",
    "detector.state_save_s": "span detector.MonitorState.save",
    "detector.state_mb": "file monitor_state.json",
    "detector.detection_delay_batches": "reports.jsonl after the workload's drift onset",
    "mining.catalog_load_s": "span mining.catalog_load",
    "mining.artifact_mb": "file of the catalog artifact",
    "mining.mine_s": "span mining.mine_frequent",
    "explain.rank_s": "span explain.rank",
    "explain.prune_s": "span explain.redundancy_prune",
    "explain.shapley_s": "span explain.shapley_global",
    "evaluation.experiment_s_p50": "span evaluation.experiment",
    "evaluation.columns_build_catalog_s": "span evaluation.ColumnData.build_catalog in the eval workload",
    "evaluation.columns_point_matrix_ms": "span evaluation.ColumnData.point_matrix in the eval workload",
    "streams.fit_tree_s": "span streams.fit_tree",
    "baselines.ddm_s": "span baselines.run",
    "cli.batch_ms_p50": "span cli.batch or evaluation.batch",
    "cli.batch_ms_tail": "span cli.batch or evaluation.batch",
}


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)
    return out.stdout if binary else out.stdout.decode().strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` written under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, binary=True))) as tar:
        tar.extractall(dest, filter="data")


def src_sha256(root: Path) -> str:
    """One digest of every file under ``root/src`` but caches: the program a side measures."""
    h = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_facts() -> dict:
    """The facts that change the numbers; ``nproc`` is the cores the runs may
    use, as perfbench counts them."""
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in the checkout ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        failed = [line for line in lines if line.startswith("failed: ")]
        raise RuntimeError(f"{workload} seed {seed} trace {trace} in {root} is not correct: {failed[:5]}")
    return result


def traced_metrics(metrics: dict) -> dict:
    """A traced run's metrics, each time, size or delay that reads 0
    replaced by ``null`` with what it is read from."""
    out = {}
    for name, m in metrics.items():
        if m["value"] == 0 and name in METRIC_SOURCES:
            out[name] = {"value": None, "unit": m["unit"], "source": METRIC_SOURCES[name]}
        else:
            out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive, as numpy's default percentile) of the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def head_wins(base: list[float], head: list[float], better: str) -> int:
    """The pairs in which the head's value is better than the base's."""
    return sum((h > b) if better == "higher" else (h < b) for b, h in zip(base, head))


def ratio_interval(ratios: list[float]) -> list[float]:
    """The percentile-bootstrap interval of the median ratio: the pairs are
    resampled with replacement ``BOOTSTRAP["resamples"]`` times by numpy's
    ``default_rng(BOOTSTRAP["seed"])``, and the interval spans the central
    ``BOOTSTRAP["level"]`` of the resamples' medians."""
    r = np.asarray(ratios, dtype=np.float64)
    draws = np.random.default_rng(BOOTSTRAP["seed"]).integers(0, len(r), (BOOTSTRAP["resamples"], len(r)))
    tail = 50 * (1 - BOOTSTRAP["level"])
    return np.percentile(np.median(r[draws], axis=1), [tail, 100 - tail]).tolist()


def verdict(interval: list[float], better: str, bound: float) -> str:
    """``better`` when the whole interval is on the better side of 1,
    ``beyond bound`` when it is all worse than the bound allows, ``within
    bound`` when its worse end stays inside the bound, else ``unresolved``
    (the interval straddles the bound)."""
    lo, hi = interval
    if better == "higher":
        good, beyond, inside = lo > 1, hi < 1 - bound, lo >= 1 - bound
    else:
        good, beyond, inside = hi < 1, lo > 1 + bound, hi <= 1 + bound
    return "better" if good else "beyond bound" if beyond else "within bound" if inside else "unresolved"


def paired(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric's paired reading: the per-pair head/base ratios, their
    median, its bootstrap interval and the verdict against ``bound``."""
    ratios = [h / b for b, h in zip(base, head)]
    interval = ratio_interval(ratios)
    return {
        "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "ratio_interval": interval,
        "verdict": verdict(interval, better, bound),
    }


def compare(results: dict[str, list[dict]], declared: dict) -> dict:
    """The end-to-end block of a BENCH file from each side's untraced
    results, in seed order (pair i is the i-th result of each side)."""
    out = {}
    for name, spec in declared.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **{side: summary(values[side]) for side in SIDES},
            "pairs": len(values["head"]),
            "head_wins": head_wins(values["base"], values["head"], spec["better"]),
            **paired(values["base"], values["head"], spec["better"], spec["bound"]),
        }
    return out


def check_bench(doc: dict) -> None:
    """Raise ValueError unless ``doc`` is a complete BENCH file."""

    def need(cond, what):
        if not cond:
            raise ValueError(what)

    need(doc.get("schema") == SCHEMA, f"schema is not {SCHEMA}")
    need(isinstance(doc.get("workload"), str), "no workload")
    for side in SIDES:
        rev = doc.get(side)
        need(isinstance(rev, dict) and isinstance(rev.get("commit"), str), f"{side}: no commit")
        need(isinstance(rev.get("src_sha256"), str), f"{side}: no src_sha256")
    machine = doc.get("machine", {})
    for fact in ("nproc", "numba", "python", "numpy", "scipy", "pythondontwritebytecode"):
        need(fact in machine, f"machine: no {fact}")
    runs = doc.get("runs")
    need(isinstance(runs, list) and runs, "no runs")
    for run in runs:
        need(run.get("side") in SIDES and run.get("trace") in (0, 1), f"run {run}: side or trace")
        need(run.get("correct") is True, f"run {run}: not correct")
    pairs = doc.get("protocol", {}).get("pairs")
    need(isinstance(pairs, int) and pairs > 0, "protocol: no pairs")
    need(doc["protocol"].get("bootstrap") == BOOTSTRAP, f"protocol: bootstrap is not {BOOTSTRAP}")
    e2e = doc.get("end_to_end")
    need(isinstance(e2e, dict) and e2e, "no end_to_end metrics")
    for name, m in e2e.items():
        need(m.get("better") in ("higher", "lower"), f"{name}: better")
        need(isinstance(m.get("bound"), (int, float)), f"{name}: no bound")
        need(m.get("pairs") == pairs, f"{name}: {m.get('pairs')} pairs, protocol has {pairs}")
        need(isinstance(m.get("head_wins"), int) and 0 <= m["head_wins"] <= pairs, f"{name}: head_wins")
        for side in SIDES:
            s = m.get(side, {})
            need(len(s.get("runs", ())) == pairs, f"{name}: {side} runs")
            need(s.get("q1") <= s.get("median") <= s.get("q3"), f"{name}: {side} quartiles out of order")
        derived = paired(m["base"]["runs"], m["head"]["runs"], m["better"], m.get("bound"))
        for key, value in derived.items():
            need(m.get(key) == value, f"{name}: {key} does not follow from the runs")
    for side in SIDES:
        traced = doc.get("traced", {}).get(side, {})
        need(isinstance(traced.get("metrics"), dict) and traced["metrics"], f"traced: no {side} metrics")
        for name, m in traced["metrics"].items():
            sourced = m.get("value") is not None or isinstance(m.get("source"), str)
            need(sourced, f"traced {side} {name}: null without a source")


def record(workload: str, roots: dict[str, Path], revs: dict, pairs: int, seconds: float, declared: dict) -> dict:
    runs, results = [], {side: [] for side in SIDES}
    for seed in range(1, pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            print(f"{workload}: seed {seed} {side}", file=sys.stderr, flush=True)
            results[side].append(run_side(roots[side], workload, seed, seconds, 0))
            runs.append({"side": side, "seed": seed, "trace": 0, "correct": True})
    traced = {}
    for side in SIDES:
        print(f"{workload}: traced {side}", file=sys.stderr, flush=True)
        result = run_side(roots[side], workload, 1, seconds, 1)
        runs.append({"side": side, "seed": 1, "trace": 1, "correct": True})
        traced[side] = {"seed": 1, "metrics": traced_metrics(result["metrics"])}
    doc = {
        "schema": SCHEMA,
        "workload": workload,
        **revs,
        "machine": machine_facts(),
        "protocol": {"pairs": pairs, "seconds": seconds, "seeds": list(range(1, pairs + 1)),
                     "first": "base on odd seeds, head on even seeds", "bootstrap": BOOTSTRAP},
        "end_to_end": compare(results, declared),
        "traced": traced,
        "runs": runs,
    }
    check_bench(doc)
    return doc


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare the working tree with")
    args = parser.parse_args(argv)
    caches = sorted(str(p) for p in (ROOT / "src").rglob("__pycache__") if p.is_dir())
    if caches:
        parser.error(f"remove the compiled module caches under src/ first: {', '.join(caches)}")
    declared = {m["name"]: m for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="driftscope-base-") as tmp:
        roots = {"base": Path(tmp), "head": ROOT}
        export(args.base, roots["base"])
        revs = {
            "base": {"commit": git("rev-parse", args.base), "src_sha256": src_sha256(roots["base"])},
            "head": {
                "commit": git("rev-parse", "HEAD"),
                "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "perfbench")),
                "src_sha256": src_sha256(ROOT),
            },
        }
        for workload in (w["name"] for w in bench["workloads"]):
            doc = record(workload, roots, revs, PAIRS, bench["run_seconds"], declared)
            path = ROOT / f"BENCH_{workload}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
