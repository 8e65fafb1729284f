"""The three benchmark workloads: timed CLI runs, checks and traced runs.

Every workload is a closed loop over the ``driftscope`` CLI: one command at a
time, each in a fresh process that runs over its input file to completion,
the next one starting when the previous one has exited. The CLI never gets
more than one thread of work (``eval --threads 1``).

Why these workloads:

* monitor-deep: a deep lattice (max length 7) and 1000-row batches, with a
  label flip in one mined subgroup after a stationary lead-in. Membership,
  aggregation, window, state and explanation do nearly all the work;
  encoding is a small share. Mined at 0.03 support (about 20k subgroups)
  rather than 0.01 (about 105k), so that the set-ups and a monitor and
  report pass over 15 batches (10 scored) fit in one run's time budget.
* monitor-shallow: about 2k short subgroups over hundreds of stationary
  200-row batches. Per-row ingest and encoding take about half the monitor
  time and explanation almost nothing: the bypass workload for counting and
  explanation changes, and the one that shows per-batch fixed costs.
* eval-inject: the injection suite, where each experiment rebuilds the
  catalog, mines, fits the tree, streams 30 batches and runs DDM. Set-up
  work is paid again per experiment and rows are encoded by the second
  encoder, ``ColumnData.point_matrix``. The eval command has no set-up step
  of its own, so its ``setup_s`` is a stand-in: ``driftscope mine`` on a
  half of the same data at the eval's support and maximum length.

The traced run (``--trace 1``) runs the same commands in this process
through ``driftscope.cli.main``, with the program's layer functions wrapped
in spans (``instrument.py``).
"""

from __future__ import annotations

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import inputs
import instrument
import oracle
from spans import Tracer, median, tail

WINDOW = 5
PRUNE_T = 5.0
# Set-up (``mine``) repeats for at least the run's seconds and at least
# SETUP_MIN_REPS times. The measured commands repeat until the run's seconds
# have passed; at the seconds BENCHMARK.json sets, one repetition (10-17 s
# on a 2-core VM) is already longer, so there every run times exactly one
# and the repetition count does not depend on how fast the first one was.
SETUP_MIN_REPS = 3
# the traced run alternates this many untraced and traced runs of the
# streaming command in one process, for trace.overhead_pct
OVERHEAD_REPS = 3
ORACLE_SAMPLE = 256


@dataclass(frozen=True)
class MonitorWorkload:
    min_support: float
    max_len: int
    batch_size: int
    n_batches: int
    # label-flip injection: batches before onset, or None for a stationary stream
    normal_batches: int | None = None
    p_max: float = 0.8
    target_band: tuple[float, float] = (0.04, 0.08)


@dataclass(frozen=True)
class EvalWorkload:
    n_exp: int  # positives; the suite adds as many negatives
    support: float = 0.01
    max_len: int = 3


WORKLOADS = {
    "monitor-deep": MonitorWorkload(
        min_support=0.03, max_len=7, batch_size=1000, n_batches=15, normal_batches=9
    ),
    "monitor-shallow": MonitorWorkload(min_support=0.05, max_len=3, batch_size=200, n_batches=500),
    "eval-inject": EvalWorkload(n_exp=1),
}


class Ops:
    """Attempted and failed operations; each failure is kept with a reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Cli:
    """Runs ``driftscope`` subcommands from the checkout's ``src``."""

    def __init__(self, root: Path, work: Path, ops: Ops) -> None:
        self.work = work
        self.ops = ops
        path = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=path + (os.pathsep + old if old else ""))

    def __call__(self, *args: str) -> tuple[float, float]:
        """Wall seconds and peak RSS (MB) of one command; a non-zero exit
        counts as a failed operation."""
        log_path = self.work / "cli.log"
        with open(log_path, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "driftscope.cli", *args],
                env=self.env,
                stdout=log,
                stderr=log,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.ops.check(proc.returncode == 0, f"driftscope {args[0]} exited {proc.returncode}"):
            sys.stderr.write(log_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        return wall, usage.ru_maxrss / 1024.0


def in_process(ops: Ops, args: list[str], tr: Tracer | None = None, observe=None) -> float:
    """Wall seconds of ``driftscope.cli.main(args)`` in this process, traced
    into ``tr`` when given; a non-zero return counts as a failed operation."""
    from driftscope import cli

    # the CLI's own logging.basicConfig is then a no-op: warnings only
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    with instrument.patched(tr, observe) if tr is not None else nullcontext():
        t0 = time.perf_counter()
        code = cli.main(list(args))
        wall = time.perf_counter() - t0
    ops.check(code == 0, f"in-process driftscope {args[0]} returned {code}")
    return wall


def timed_reps(seconds: float, rep, min_reps: int = 1) -> list:
    """Start ``rep(i)`` again until ``seconds`` have passed and at least
    ``min_reps`` have run."""
    out = []
    start = time.perf_counter()
    while len(out) < min_reps or time.perf_counter() - start < seconds:
        out.append(rep(len(out)))
    return out


def overhead_pct(untraced_s: list[float], traced_s: list[float]) -> float:
    """Rate lost to tracing: 1 - traced rate / untraced rate, in percent,
    from the medians of the alternated runs."""
    return (1.0 - median(untraced_s) / median(traced_s)) * 100.0


def n_subgroups(artifact: Path) -> int:
    with open(artifact, encoding="utf-8") as fh:
        return len(json.load(fh)["subgroup_catalog"]["subgroups"])


def read_reports(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quality(reports: list[dict], onset: int | None) -> tuple[float, float | None]:
    """False-alarm rate over scored batches before onset (all scored batches
    on a stationary stream), and the detection delay: post-onset batches up
    to and including the first global alarm, or all of them + 1 if none."""
    scored = [r for r in reports if not r["warming_up"]]
    before = [r for r in scored if onset is None or r["batch_id"] < onset]
    rate = sum(r["global_drift"] for r in before) / len(before) if before else 0.0
    if onset is None:
        return rate, None
    after = [r for r in scored if r["batch_id"] >= onset]
    alarms = [r["batch_id"] for r in after if r["global_drift"]]
    return rate, float(alarms[0] - onset + 1 if alarms else len(after) + 1)


# ---------------------------------------------------------------------------
# monitor-deep / monitor-shallow
# ---------------------------------------------------------------------------


class MonitorRun:
    def __init__(self, wl: MonitorWorkload, seed: int, cli: Cli, ops: Ops, work: Path):
        self.wl, self.seed, self.cli, self.ops, self.work = wl, seed, cli, ops, work
        self.ref = work / "ref.csv"
        self.artifact = work / "catalog.json"
        self.stream = work / "stream.csv"
        self.clean = work / "stream_clean.csv" if wl.normal_batches is not None else self.stream
        self.onset = None if wl.normal_batches is None else wl.normal_batches + 1
        self.rows = wl.batch_size * wl.n_batches

    def mine_args(self) -> list[str]:
        return [
            "mine", "--input", str(self.ref), "--min-support", str(self.wl.min_support),
            "--max-len", str(self.wl.max_len), "--out", str(self.artifact),
        ]

    def monitor_args(self, out: Path) -> list[str]:
        return [
            "monitor", "--catalog", str(self.artifact), "--input", str(self.stream),
            "--batch-size", str(self.wl.batch_size), "--window", str(WINDOW), "--out", str(out),
        ]

    def report_args(self, mon: Path) -> list[str]:
        return [
            "report", "--reports", str(mon), "--catalog", str(self.artifact),
            "--prune-t", str(PRUNE_T), "--shapley", "--out", str(self.work / "report.md"),
        ]

    def inject(self) -> None:
        """Untimed label flip in a seed-chosen mined subgroup (it needs the
        mined catalog); a stationary stream is left as it is."""
        wl = self.wl
        if wl.normal_batches is None:
            return
        spec = inputs.pick_target(self.seed, self.artifact, wl.target_band)
        self.cli(
            "inject", "--input", str(self.clean), "--catalog", str(self.artifact), "--subgroup", spec,
            "--p-max", str(wl.p_max), "--normal", str(wl.normal_batches), "--transition", "0",
            "--drift", str(wl.n_batches - wl.normal_batches), "--seed", str(self.seed),
            "--out", str(self.stream), "--mask", str(self.work / "mask.csv"),
        )
        with open(self.work / "mask.csv", encoding="utf-8") as fh:
            altered = sum(int(r["altered"]) for r in csv.DictReader(fh))
        self.ops.check(altered > 0, "injection altered no label")

    def encoded_stream(self):
        """Oracle view of the stream: item sets via ``ItemCatalog.encode``,
        the accuracy outcome of every row, and the count of skipped values."""
        from driftscope.catalog import ItemCatalog, read_rows

        with open(self.artifact, encoding="utf-8") as fh:
            catalog = ItemCatalog.from_dict(json.load(fh)["item_catalog"])
        items, alpha, skipped = [], [], 0
        for row in read_rows(self.stream):
            ids, n = catalog.encode_with_stats(row)
            items.append(ids)
            skipped += n
            alpha.append(int(row["y"]) == int(row["y_hat"]))
        alpha = np.array(alpha, dtype=np.int64)
        return items, alpha, 1 - alpha, skipped

    @cached_property
    def subgroup_items(self) -> list[tuple[int, ...]]:
        with open(self.artifact, encoding="utf-8") as fh:
            return [tuple(e["items"]) for e in json.load(fh)["subgroup_catalog"]["subgroups"]]

    def check_counts(self, label: str, enc, batches: list[int], alpha_counts, beta_counts, sample) -> None:
        """Counts over the 1-based ``batches`` of the stream against the oracle."""
        items, alpha, beta, _ = enc
        size = self.wl.batch_size
        rows = [i for b in batches for i in range((b - 1) * size, b * size)]
        expected = oracle.subset_counts(
            [items[i] for i in rows], alpha[rows], beta[rows], [self.subgroup_items[j] for j in sample]
        )
        bad = oracle.mismatches(expected, alpha_counts, beta_counts, sample)
        self.ops.check(not bad, f"{label}: counts differ from the oracle for subgroups {bad[:10]}")

    def check_state(self, mon: Path, enc) -> None:
        """The saved window counts of a monitor run against the oracle, on
        the global subgroup, every subgroup drifted in the last batch and a
        sample."""
        reports = read_reports(mon / "reports.jsonl")
        with open(mon / "monitor_state.json", encoding="utf-8") as fh:
            state = json.load(fh)
        drifted = [r["subgroup_id"] for r in reports[-1]["subgroups"] if r["drifted"]]
        sample = oracle.sample_subgroups(state["n_subgroups"], drifted, ORACLE_SAMPLE, self.seed)
        n = len(reports)
        ref = state["reference_stats"]
        self.check_counts(
            f"{mon.name} reference window", enc, list(range(1, WINDOW + 1)), ref["alpha"], ref["beta"], sample
        )
        for k, part in enumerate(state["current_ring"]):
            b = n - len(state["current_ring"]) + k + 1
            self.check_counts(f"{mon.name} batch {b}", enc, [b], part["alpha"], part["beta"], sample)

    # -- untraced ----------------------------------------------------------

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        inputs.monitor_inputs(self.seed, self.rows, self.ref, self.clean)
        setup = timed_reps(seconds, lambda i: self.cli(*self.mine_args())[0], SETUP_MIN_REPS)
        self.inject()
        mon = self.work / "monitor"
        first: list[str] = []

        def rep(i):
            mon_s, rss = self.cli(*self.monitor_args(mon))
            report_s = self.cli(*self.report_args(mon))[0]
            text = (mon / "reports.jsonl").read_text(encoding="utf-8")
            if first:
                self.ops.check(text == first[0], f"repetition {i}: reports.jsonl differs")
            first.append(text)
            return mon_s, report_s, rss

        reps = timed_reps(seconds, rep)
        self.check_state(mon, self.encoded_stream())
        mon_s = median([r[0] for r in reps])
        report_s = median([r[1] for r in reps])
        far, delay = quality(read_reports(mon / "reports.jsonl"), self.onset)
        metrics = end_to_end(
            median(setup), self.rows / mon_s, median([r[0] + r[1] for r in reps]), median([r[2] for r in reps])
        )
        extra = {
            "setup_repetitions": len(setup),
            "repetitions": len(reps),
            "n_subgroups": len(self.subgroup_items),
            "report_s": report_s,
            "experiments_per_s": None,
            "false_alarm_rate": far,
            "detection_delay_batches": delay,
        }
        return metrics, extra

    # -- traced ------------------------------------------------------------

    def traced(self, spans_path: Path) -> tuple[dict, dict]:
        inputs.monitor_inputs(self.seed, self.rows, self.ref, self.clean)
        tr = Tracer()
        in_process(self.ops, self.mine_args(), tr)
        self.inject()

        untraced_dir, traced_dir = self.work / "monitor", self.work / "monitor-traced"
        untraced_s, traced_s = [], []
        seen = BatchObserver(self.ops, tr)
        for i in range(OVERHEAD_REPS):
            untraced_s.append(in_process(self.ops, self.monitor_args(untraced_dir)))
            # the first traced run feeds the metrics; the others only time
            run_tr = tr if i == 0 else Tracer()
            run_seen = seen if i == 0 else BatchObserver(self.ops, run_tr)
            traced_s.append(in_process(self.ops, self.monitor_args(traced_dir), run_tr, run_seen))
        in_process(self.ops, self.report_args(traced_dir), tr, seen)
        tr.write(spans_path)

        enc = self.encoded_stream()
        self.check_state(traced_dir, enc)
        reports_text = (traced_dir / "reports.jsonl").read_text(encoding="utf-8")
        self.ops.check(
            reports_text == (untraced_dir / "reports.jsonl").read_text(encoding="utf-8"),
            "traced and untraced monitor runs wrote different reports.jsonl",
        )
        seen.check_batch_ids()

        far, delay = quality(read_reports(traced_dir / "reports.jsonl"), self.onset)
        report_bytes = [len(line) + 1 for line in reports_text.splitlines()]
        layer = common_layers(tr, seen.member_pairs, seen.drifted)
        layer.update(
            {
                "catalog.read_rows_s": (sum(tr.self_s("catalog.read_rows", "cli.monitor")), "s"),
                "catalog.encode_us_per_row": (
                    sum(tr.durations_s("catalog.encode_with_stats", "cli.monitor")) / self.rows * 1e6, "us"),
                "catalog.skipped_values": (enc[3], "count"),
                "catalog.build_catalog_s": (sum(tr.durations_s("catalog.build_catalog")), "s"),
                "sgmetrics.point_matrix_ms_p50": (
                    median(tr.durations_s("sgmetrics.build_point_matrix", "cli.monitor")) * 1e3, "ms"),
                "detector.to_dict_ms_p50": (
                    median(scored_durations_s(tr, "detector.DriftReport.to_dict")) * 1e3, "ms"),
                "detector.report_kb_per_batch": (float(np.mean(report_bytes)) / 1024, "KiB"),
                "detector.state_save_s": (sum(tr.durations_s("detector.MonitorState.save")), "s"),
                "detector.state_mb": ((traced_dir / "monitor_state.json").stat().st_size / 1e6, "MB"),
                "detector.false_alarm_rate": (far, "fraction"),
                "detector.detection_delay_batches": (delay or 0.0, "batches"),
                "mining.catalog_load_s": (median(tr.durations_s("mining.catalog_load")), "s"),
                "mining.artifact_mb": (self.artifact.stat().st_size / 1e6, "MB"),
                "mining.n_subgroups": (len(self.subgroup_items), "count"),
                "explain.rank_s": (sum(tr.durations_s("explain.rank")), "s"),
                "explain.prune_s": (sum(tr.durations_s("explain.redundancy_prune")), "s"),
                "explain.prune_kept": (seen.prune_kept, "count"),
                "explain.shapley_s": (sum(tr.durations_s("explain.shapley_global")), "s"),
                "trace.overhead_pct": (overhead_pct(untraced_s, traced_s), "%"),
            }
        )
        return layer, {"n_subgroups": len(self.subgroup_items), "batch_time_in_layers": batch_cover(tr)}


class BatchObserver:
    """What the per-layer metrics and checks need from a traced run's
    calls: members per batch, drifted subgroups per scored batch, the pruned
    ranking size, and whether every batch span carries the program's own
    ``EncodedBatch.batch_id``."""

    def __init__(self, ops: Ops, tr: Tracer | None = None) -> None:
        self.ops = ops
        self.member_pairs: list[int] = []
        self.drifted: list[int] = []
        self.prune_kept = 0
        self.batch_ids: list[tuple[int, int | None]] = []
        self.tr = tr

    def __call__(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "sgmetrics.membership":
            self.member_pairs.append(int(result.nnz))
            self.batch_ids.append((args[0].batch_id, self.tr.innermost()[1] if self.tr else None))
        elif name == "detector.step" and not result.warming_up:
            self.drifted.append(int(result.drifted.sum()))
        elif name == "explain.redundancy_prune":
            self.prune_kept = len(result)

    def check_batch_ids(self) -> None:
        bad = [(want, got) for want, got in self.batch_ids if got is not None and want != got]
        self.ops.check(not bad, f"batch spans numbered unlike the program's batches: {bad[:5]}")


# ---------------------------------------------------------------------------
# eval-inject
# ---------------------------------------------------------------------------


class ExperimentObserver(BatchObserver):
    """Also keeps, per experiment, what the oracle needs for its last batch:
    the test rows, the catalog, the mined subgroups and the batch's counts."""

    def __init__(self, ops: Ops, tr: Tracer) -> None:
        super().__init__(ops, tr)
        self.experiments: list[dict] = []
        self._cur: dict = {}

    def __call__(self, name: str, args: tuple, kwargs: dict, result) -> None:
        super().__call__(name, args, kwargs, result)
        cur = self._cur
        if name == "evaluation.ColumnData.point_matrix":
            # train, then test rows: the last call before the loop is the test set
            cur.update(cols=args[0], test_idx=args[1], catalog=args[2], offset=0)
        elif name == "mining.mine_frequent":
            cur["items"] = [sg.item_ids for sg in result.subgroups]
        elif name == "sgmetrics.aggregate":
            batch = args[0]
            n = len(batch.alpha_vec)
            cur["last"] = (cur["offset"], cur["offset"] + n, batch.alpha_vec, batch.beta_vec, result)
            cur["offset"] += n
        elif name == "detector.step":
            cur["drifted"] = result.drifted_indices()
        elif name == "evaluation.experiment":
            cur["result"] = result[0]
            self.experiments.append(cur)
            self._cur = {}


class EvalRun:
    def __init__(self, wl: EvalWorkload, seed: int, cli: Cli, ops: Ops, work: Path):
        self.wl, self.seed, self.cli, self.ops, self.work = wl, seed, cli, ops, work
        self.data = work / "data.csv"
        self.ref = work / "ref.csv"
        self.n_experiments = 2 * wl.n_exp

    def eval_args(self, out: Path) -> list[str]:
        return [
            "eval", "--suite", "inject", "--data", str(self.data), "--supports", str(self.wl.support),
            "--threads", "1", "--n-exp", str(self.wl.n_exp), "--seed", str(self.seed), "--out", str(out),
        ]

    def check_results(self, out: Path) -> None:
        with open(out, encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] == "driftscope"]
        self.ops.check(
            len(rows) == 1 and 0.0 <= float(rows[0]["accuracy"]) <= 1.0,
            "eval results lack a driftscope row with an accuracy",
        )

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        inputs.eval_inputs(self.seed, self.data, self.ref)
        mine = (
            "mine", "--input", str(self.ref), "--min-support", str(self.wl.support),
            "--max-len", str(self.wl.max_len), "--out", str(self.work / "catalog.json"),
        )
        setup = timed_reps(seconds, lambda i: self.cli(*mine)[0], SETUP_MIN_REPS)
        out = self.work / "results.csv"
        first: list[str] = []

        def rep(i):
            wall, rss = self.cli(*self.eval_args(out))
            text = out.read_text(encoding="utf-8")
            if first:
                self.ops.check(text == first[0], f"repetition {i}: eval results differ")
            else:
                self.check_results(out)
            first.append(text)
            return wall, rss

        reps = timed_reps(seconds, rep)
        wall = median([r[0] for r in reps])
        stream_rows = inputs.SURROGATE_ROWS - inputs.SURROGATE_ROWS // 2
        with open(out, encoding="utf-8") as fh:
            row = next((r for r in csv.DictReader(fh) if r["method"] == "driftscope"), {})
        # rows/s and result_s are one measurement here: a fixed row count
        # over the eval's wall time
        metrics = end_to_end(
            median(setup), self.n_experiments * stream_rows / wall, wall, median([r[1] for r in reps])
        )
        extra = {
            "setup_repetitions": len(setup),
            "repetitions": len(reps),
            "n_subgroups": n_subgroups(self.work / "catalog.json"),
            "report_s": None,
            "experiments_per_s": self.n_experiments / wall,
            "false_alarm_rate": float(row["fpr"]) if row.get("fpr") else None,
            "detection_delay_batches": None,
        }
        return metrics, extra

    def traced(self, spans_path: Path) -> tuple[dict, dict]:
        inputs.eval_inputs(self.seed, self.data)
        tr = Tracer()
        untraced_out, traced_out = self.work / "results.csv", self.work / "results-traced.csv"
        untraced_s, traced_s = [], []
        seen = ExperimentObserver(self.ops, tr)
        for i in range(OVERHEAD_REPS):
            untraced_s.append(in_process(self.ops, self.eval_args(untraced_out)))
            run_tr = tr if i == 0 else Tracer()
            run_seen = seen if i == 0 else ExperimentObserver(self.ops, run_tr)
            traced_s.append(in_process(self.ops, self.eval_args(traced_out), run_tr, run_seen))
        tr.write(spans_path)

        self.check_results(traced_out)
        self.ops.check(
            traced_out.read_text(encoding="utf-8") == untraced_out.read_text(encoding="utf-8"),
            "traced and untraced eval runs wrote different results",
        )
        self.ops.check(len(seen.experiments) == self.n_experiments, "traced eval ran a different experiment count")
        for exp in seen.experiments:
            lo, hi, alpha, beta, counts = exp["last"]
            records = exp["cols"].records(exp["test_idx"][lo:hi])
            items = [exp["catalog"].encode(r) for r in records]
            seed = exp["result"].seed
            sample = oracle.sample_subgroups(len(exp["items"]), exp["drifted"], ORACLE_SAMPLE, seed)
            expected = oracle.subset_counts(items, alpha, beta, [exp["items"][j] for j in sample])
            bad = oracle.mismatches(expected, counts.alpha_counts, counts.beta_counts, sample)
            self.ops.check(not bad, f"experiment {seed} last batch: counts differ from the oracle for {bad[:10]}")

        negatives = [e["result"].detected for e in seen.experiments if e["result"].kind == "negative"]
        n_subgroups = int(median([len(e["items"]) for e in seen.experiments]))
        layer = common_layers(tr, seen.member_pairs, seen.drifted)
        layer.update(
            {
                "detector.false_alarm_rate": (float(np.mean(negatives)), "fraction"),
                "mining.n_subgroups": (n_subgroups, "count"),
                "evaluation.experiment_s_p50": (median(tr.durations_s("evaluation.experiment")), "s"),
                "evaluation.columns_build_catalog_s": (
                    median(tr.durations_s("evaluation.ColumnData.build_catalog")), "s"),
                "evaluation.columns_point_matrix_ms": (
                    median(tr.durations_s("evaluation.ColumnData.point_matrix")) * 1e3, "ms"),
                "streams.fit_tree_s": (median(tr.durations_s("streams.fit_tree")), "s"),
                "baselines.ddm_s": (median(tr.durations_s("baselines.run")), "s"),
                "trace.overhead_pct": (overhead_pct(untraced_s, traced_s), "%"),
            }
        )
        return layer, {"n_subgroups": n_subgroups, "batch_time_in_layers": batch_cover(tr)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "monitor_rows_per_s": "rows/s",
    "result_s": "s",
    "monitor_peak_rss_mb": "MB",
}


def end_to_end(setup_s: float, rows_per_s: float, result_s: float, peak_rss_mb: float) -> dict:
    """Set-up time (``mine``), rows per second of the streaming command
    (``monitor`` or ``eval``), its start-to-result wall time (``monitor`` +
    ``report``, or ``eval``) and its peak RSS."""
    values = (setup_s, rows_per_s, result_s, peak_rss_mb)
    return {name: (v, unit) for (name, unit), v in zip(END_TO_END_UNITS.items(), values)}


# Per-layer metrics of the traced run. Times are span durations (medians
# over calls where named _p50) except catalog.read_rows_s, the self time of
# the monitor's ingest loop: CSV parsing and outcome columns, encoding
# excluded. cli.batch_* times one batch of the monitor loop or of an eval
# experiment. trace.overhead_pct is the rate (rows/s of monitor, experiments/s
# of eval) lost by traced against untraced runs of the same command in the
# same process, from the medians of OVERHEAD_REPS alternated runs of each.
PER_LAYER_UNITS = {
    "catalog.read_rows_s": "s",
    "catalog.encode_us_per_row": "us",
    "catalog.skipped_values": "count",
    "catalog.build_catalog_s": "s",
    "sgmetrics.point_matrix_ms_p50": "ms",
    "sgmetrics.membership_ms_p50": "ms",
    "sgmetrics.membership_ms_tail": "ms",
    "sgmetrics.membership_tail_samples": "count",
    "sgmetrics.member_pairs_per_batch": "count",
    "sgmetrics.aggregate_ms_p50": "ms",
    "detector.step_ms_p50": "ms",
    "detector.to_dict_ms_p50": "ms",
    "detector.report_kb_per_batch": "KiB",
    "detector.drifted_per_batch": "count",
    "detector.state_save_s": "s",
    "detector.state_mb": "MB",
    "detector.false_alarm_rate": "fraction",
    "detector.detection_delay_batches": "batches",
    "mining.catalog_load_s": "s",
    "mining.artifact_mb": "MB",
    "mining.mine_s": "s",
    "mining.n_subgroups": "count",
    "explain.rank_s": "s",
    "explain.prune_s": "s",
    "explain.prune_kept": "count",
    "explain.shapley_s": "s",
    "evaluation.experiment_s_p50": "s",
    "evaluation.columns_build_catalog_s": "s",
    "evaluation.columns_point_matrix_ms": "ms",
    "streams.fit_tree_s": "s",
    "baselines.ddm_s": "s",
    "cli.batch_ms_p50": "ms",
    "cli.batch_ms_tail": "ms",
    "cli.batch_tail_samples": "count",
    "trace.overhead_pct": "%",
}


def common_layers(tr: Tracer, member_pairs: list[int], drifted: list[int]) -> dict:
    """Per-layer metrics every workload has; a layer the workload never
    calls reads 0."""
    batches = tr.durations_s("cli.batch") + tr.durations_s("evaluation.batch")
    member = tr.durations_s("sgmetrics.membership")
    member_tail, member_n = tail(member)
    batch_tail, batch_n = tail(batches)
    out = {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}
    out.update(
        {
            "sgmetrics.membership_ms_p50": (median(member) * 1e3, "ms"),
            "sgmetrics.membership_ms_tail": (member_tail * 1e3, "ms"),
            "sgmetrics.membership_tail_samples": (member_n, "count"),
            "sgmetrics.member_pairs_per_batch": (float(np.mean(member_pairs)), "count"),
            "sgmetrics.aggregate_ms_p50": (median(tr.durations_s("sgmetrics.aggregate")) * 1e3, "ms"),
            "detector.step_ms_p50": (median(scored_durations_s(tr, "detector.step")) * 1e3, "ms"),
            "detector.drifted_per_batch": (float(np.mean(drifted)) if drifted else 0.0, "count"),
            "mining.mine_s": (median(tr.durations_s("mining.mine_frequent")), "s"),
            "cli.batch_ms_p50": (median(batches) * 1e3, "ms"),
            "cli.batch_ms_tail": (batch_tail * 1e3, "ms"),
            "cli.batch_tail_samples": (batch_n, "count"),
        }
    )
    return out


def scored_durations_s(tr: Tracer, name: str) -> list[float]:
    """Durations of the ``name`` spans in batches after the reference
    window, where every subgroup is scored (warm-up batches are cheap)."""
    return [(s[4] - s[3]) / 1e9 for s in tr.spans if s[0] == name and (s[2] or 0) > WINDOW]


def batch_cover(tr: Tracer) -> float:
    """Share of per-batch time spent in the named layer calls inside the
    batch, as opposed to the batch span's own self time."""
    own = tr.self_ns()
    total = covered = 0
    for i, s in enumerate(tr.spans):
        if s[0] in ("cli.batch", "evaluation.batch"):
            dur = s[4] - s[3]
            total += dur
            covered += dur - own[i]
    return covered / total if total else 0.0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def run(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = root / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    cli = Cli(root, work, ops)
    wl = WORKLOADS[workload]
    runner = (MonitorRun if isinstance(wl, MonitorWorkload) else EvalRun)(wl, seed, cli, ops, work)
    if traced:
        metrics, extra = runner.traced(root / ".perfbench_out" / f"{workload}.spans.jsonl")
    else:
        metrics, extra = runner.untraced(seconds)
    if not ops.failures:
        shutil.rmtree(work, ignore_errors=True)
    return {"metrics": metrics, "extra": extra, "attempted": ops.attempted, "failures": ops.failures}
