"""Command-line entry point: mine, monitor, gen, inject, bench, eval, report.

Exit codes: 0 success, 1 usage error, 2 data error. All artifacts are written
atomically (temp file + rename) and every run leaves a manifest (config,
seeds, versions) next to its outputs so results can be reproduced
byte-for-byte. Config precedence: CLI flags > --config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import DETECTOR_KINDS, make_detector
from .catalog import (
    Column,
    ColumnData,
    DataError,
    ItemCatalog,
    MetricSpec,
    _bit,
    _is_jsonl,
    atomic_open,
    build_catalog,  # not called here; perfbench/instrument.py traces cli.build_catalog
    read_columns,
    read_file,
    read_json,
    read_rows,
)
from .detector import MonitorState, ReportWriter, WindowConfig, score_windows, step  # perfbench traces cli.score_windows
from .explain import rank, redundancy_prune, shapley_global
from .mining import MiningConfig, SubgroupCatalog, mine_frequent
from .sgmetrics import EncodedBatch, aggregate, build_point_matrix, membership
from .datasets import resolve_tabular

# gen, inject and eval import `streams` and `evaluation` themselves, so that
# mine, monitor and report never load them

log = logging.getLogger("driftscope")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors, so usage problems exit 1. ``config_tokens`` are a
    ``--config`` file's values as flags, parsed before the arguments given,
    so a flag on the command line wins."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config_tokens: list[str] = []

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        return super().parse_known_args([*self.config_tokens, *args], namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ranged(name: str, cast, ok, expected: str):
    """A flag type: ``cast`` the value, then hold it to ``ok``."""

    def check(value: str):
        x = cast(value)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return x

    check.__name__ = name  # argparse names it in "invalid <name> value"
    return check


_fraction = _ranged("_fraction", float, lambda x: 0.0 < x <= 1.0, "a fraction in (0, 1]")
_unit_interval = _ranged("_unit_interval", float, lambda x: 0.0 <= x <= 1.0, "a value in [0, 1]")
_half_open_unit_interval = _ranged("_half_open_unit_interval", float, lambda x: 0.0 <= x < 1.0, "a value in [0, 1)")
_open_unit_interval = _ranged("_open_unit_interval", float, lambda x: 0.0 < x < 1.0, "a value in (0, 1)")
_positive_int = _ranged("_positive_int", int, lambda x: x >= 1, "a positive integer")
_non_negative_int = _ranged("_non_negative_int", int, lambda x: x >= 0, "a non-negative integer")
# NaN fails both tests
_finite_non_negative = _ranged("_finite_non_negative", float, lambda x: 0.0 <= x < math.inf, "a finite value >= 0")


# The list types below check a value and keep its text, which the manifest
# records as given.


def _fractions(value: str) -> str:
    """A comma-separated list of fractions in (0, 1]."""
    for part in value.split(","):
        _fraction(part)
    return value


def _binning_rule(value: str) -> str:
    """ATTR=categorical or ATTR=quantile:K, K a positive integer."""
    attr, _, rule = value.partition("=")
    kind, _, k = rule.partition(":")
    try:
        if attr and (rule == "categorical" or kind == "quantile" and int(k) >= 1):
            return value
    except ValueError:  # K is no integer
        pass
    raise argparse.ArgumentTypeError(f"expected ATTR=categorical or ATTR=quantile:K with K >= 1, got {value}")


def _detector_kinds(value: str) -> str:
    """A comma-separated list of detector kinds; empty for the suite's default."""
    for kind in value.split(",") if value else ():
        if kind not in DETECTOR_KINDS:
            raise argparse.ArgumentTypeError(f"unknown kind {kind!r}, expected one of {', '.join(DETECTOR_KINDS)}")
    return value


def _index_pair(value: str) -> str:
    """Two comma-separated integers."""
    try:
        _, _ = map(int, value.split(","))
    except ValueError:  # a part that is no integer, or not two parts
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, e.g. 0,2, got {value}") from None
    return value


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(text)


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    manifest = {
        "tool": "driftscope",
        "version": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "argv": sys.argv[1:],
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
    }
    target = out / "manifest.json" if out.is_dir() else out.with_suffix(out.suffix + ".manifest.json")
    _atomic_write(target, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _columns_text(columns: dict) -> str:
    """``columns`` (name -> values in row order) as CSV text, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    return buf.getvalue()


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    """The ``columns`` of ``rows`` as CSV text; a key a row lacks is an empty cell."""
    return _columns_text({c: [r.get(c) for r in rows] for c in columns})


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------


def _cmd_mine(args) -> int:
    binning = {}
    for spec in args.binning or []:
        attr, _, rule = spec.partition("=")
        binning[attr] = "categorical" if rule == "categorical" else ("quantile", int(rule.partition(":")[2]))
    categorical = frozenset(a for a, rule in binning.items() if rule == "categorical")
    _, table = _read_table(args.input, categorical)
    every_row = np.arange(table.n)
    catalog = table.build_catalog(every_row, args.bins, binning)
    sgcat = mine_frequent(
        table.point_matrix(every_row, catalog),
        MiningConfig(min_support=args.min_support, max_len=args.max_len),
        item_attrs=catalog.item_attributes(),
    )
    out = Path(args.out)
    artifact = {"item_catalog": catalog.to_dict(), "subgroup_catalog": sgcat.to_dict()}
    # compact, so that json's C encoder writes it (indent forces the Python one)
    _atomic_write(out, json.dumps(artifact, sort_keys=True, separators=(",", ":")) + "\n")
    _write_manifest(out, args)
    log.info("mined %d subgroups over %d items from %d rows", len(sgcat), catalog.n_items, table.n)
    return 0


def _read_table(path, categorical: frozenset) -> tuple[dict[str, Column], ColumnData]:
    """The columns of the data file ``path`` and their table, which may not be empty."""
    columns = read_columns(path)
    table = ColumnData.from_columns(columns, categorical=categorical)
    if not table.n:
        raise DataError(f"{path}: no rows")
    return columns, table


def _load_artifact(path: str) -> tuple[ItemCatalog, SubgroupCatalog, str]:
    """The artifact's item and subgroup catalogs, and the hex SHA-256 of the
    very bytes they were parsed from: the artifact's fingerprint."""

    def build(data: bytes):
        d = json.loads(data.decode("utf-8"))
        if not isinstance(d, dict):
            raise DataError("not a JSON object")
        for name in ("item_catalog", "subgroup_catalog"):
            if not isinstance(d[name], dict):
                raise DataError(f"{name} is not a JSON object")
        items, subgroups = ItemCatalog.from_dict(d["item_catalog"]), SubgroupCatalog.from_dict(d["subgroup_catalog"])
        return items, subgroups, hashlib.sha256(data).hexdigest()

    return read_file(path, "catalog artifact", build)


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def _labeled_rows(path, spec):
    """The rows of the data file ``path`` as (row number from 1, row,
    (alpha, beta) outcome under ``spec``). Row 1 must hold ``spec``'s
    columns, and a file with no rows is a DataError."""
    i = 0
    for i, row in enumerate(read_rows(path), start=1):
        if i == 1:
            spec.check_columns(row)
        yield i, row, spec.outcome(row, i)
    if not i:
        raise DataError(f"{path}: no rows")


def _batched_records(path, catalog, spec, batch_size):
    """The rows of ``path`` as batches of (item-id tuples, (n, 2) int64
    alpha/beta rows); also the row and skipped-value counts. If row 1 has a
    'batch' value, every row must have one, and the batches are its values
    in (length, text) order; otherwise row i falls in slice
    (i - 1) // ``batch_size``."""
    groups = defaultdict(lambda: ([], []))
    skipped_values = 0
    for i, row, outcome in _labeled_rows(path, spec):
        b = row.get("batch")
        if i == 1:
            by_column = b is not None
        if not by_column:
            key = (i - 1) // batch_size
        elif b is None:
            raise DataError(f"row {i}: no 'batch' value, but row 1 has one")
        else:
            key = (len(text := str(b)), text)
        ids, skipped = catalog.encode_with_stats(row)
        skipped_values += skipped
        item_sets, outcomes = groups[key]
        item_sets.append(ids)
        outcomes.append(outcome)
    batches = [(sets, np.array(outs, dtype=np.int64)) for _, (sets, outs) in sorted(groups.items())]
    return batches, i, skipped_values


def _cmd_monitor(args) -> int:
    config = WindowConfig(args.window, args.tau_t, args.min_count)
    out_dir = Path(args.out)
    # refused before the stream is read, but made only once it has been read
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"--out {out_dir}: {existing} is not a directory")
    catalog, sgcat, catalog_sha256 = _load_artifact(args.catalog)
    spec = MetricSpec(kind=args.metric)
    batches, n_rows, skipped_values = _batched_records(args.input, catalog, spec, args.batch_size)
    log.info("ingested %d rows in %d batches (%d skipped values)", n_rows, len(batches), skipped_values)

    out_dir.mkdir(parents=True, exist_ok=True)
    monitor = MonitorState(n_subgroups=len(sgcat), config=config, catalog_sha256=catalog_sha256)
    writer = ReportWriter(sgcat, args.top_k)
    lines = []
    csv_columns = ["subgroup_id", "items", "support", "h_ref", "h_cur", "delta_h", "t", "drifted"]
    for item_sets, outcomes in batches:
        batch = EncodedBatch(
            point_matrix=build_point_matrix(item_sets, catalog.n_items),
            alpha_vec=outcomes[:, 0],
            beta_vec=outcomes[:, 1],
            batch_id=monitor.batches_seen + 1,
        )
        M = membership(batch, sgcat)
        report = step(monitor, aggregate(batch, M))
        lines.append(writer.line(report))
        if args.format == "csv" and not report.warming_up:
            rows = json.loads(lines[-1])["subgroups"]
            for row, sg in zip(rows, sgcat.subgroups_at([row["subgroup_id"] for row in rows])):
                row["items"] = sg.label(catalog)
            _atomic_write(out_dir / f"batch_{report.batch_id:04d}.csv", _csv_text(rows, csv_columns))
        if report.global_drift:
            log.info("batch %d: drift (max t = %.2f)", report.batch_id, report.max_t())
    _atomic_write(out_dir / "reports.jsonl", "\n".join(lines) + "\n")
    monitor.save(out_dir / "monitor_state.json")
    _write_manifest(out_dir, args)
    return 0


# ---------------------------------------------------------------------------
# gen / inject
# ---------------------------------------------------------------------------


def _csv_outputs(args, *dests: str) -> None:
    """Reject a JSONL path among a command's CSV outputs, before any is written."""
    for dest in dests:
        path = getattr(args, dest)
        if path is not None and _is_jsonl(path):
            raise DataError(f"--{dest.replace('_', '-')} {path}: {args.command} writes CSV, not JSONL")


def _stream_csv(table, batch_size: int, path: Path) -> None:
    """Write a generated ``StreamBatch`` with its 1-based batch number per row."""
    batch = (np.arange(len(table.y)) // batch_size + 1).tolist()
    _atomic_write(path, _columns_text({"batch": batch, **table.columns()}))


def _cmd_gen(args) -> int:
    from .streams import ConceptStreamConfig, gen_concept_stream

    _csv_outputs(args, "out", "train_out")
    concept_a, concept_b = map(int, args.concepts.split(","))
    config = ConceptStreamConfig(
        generator=args.dataset,
        concept_a=concept_a,
        concept_b=concept_b,
        drift_center=args.drift_center,
        drift_width=args.drift_width,
        label_noise=args.label_noise,
        train_size=args.train_size,
        n_batches=args.n_batches,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    train, stream = gen_concept_stream(config)
    out = Path(args.out)
    _stream_csv(stream, config.batch_size, out)
    if args.train_out:
        _stream_csv(train, config.train_size, Path(args.train_out))
    _write_manifest(out, args)
    log.info("wrote %d stream batches to %s", config.n_batches, out)
    return 0


def _parse_subgroup(spec: str, attributes) -> list[str]:
    """Split "a=x,b=(25,36],c=y" into items. A comma separates two items only
    where the text after it, leading spaces stripped, starts with a catalog
    attribute and "=", so values may hold commas ("city=Paris, FR")."""
    heads = tuple(f"{a}=" for a in attributes)
    first, *rest = spec.split(",")
    parts = [first]
    for piece in rest:
        if piece.lstrip().startswith(heads):
            parts.append(piece)
        else:
            parts[-1] += "," + piece
    return [p.strip() for p in parts if p.strip()]


def _binary_labels(labels: Column) -> np.ndarray:
    """The label column ``y`` as 0/1 ints, read by the outcome rule once per
    distinct value at its first row; values are in first-seen order, so the
    DataError of the first value that is not 0 or 1 names the first such row."""
    codes, first = np.unique(labels.codes, return_index=True)
    y = np.zeros(len(labels.values), dtype=np.int64)
    for code, row in zip(codes.tolist(), first.tolist()):
        y[code] = _bit(labels.values[code], "y", row + 1)
    return y[labels.codes]


def _cmd_inject(args) -> int:
    from .streams import DriftSchedule, _even_bounds, _inject_flips_columns, _target_cover

    total = args.normal + args.transition + args.drift
    if total < 1:
        print("driftscope inject: error: --normal, --transition and --drift total 0 batches", file=sys.stderr)
        return 1
    _csv_outputs(args, "out", "mask")
    catalog, _, _ = _load_artifact(args.catalog)
    item_ids = []
    for part in _parse_subgroup(args.subgroup, catalog.attributes):
        attr, _, value = part.partition("=")
        item_id = catalog.id_of(attr, value)
        if item_id is None:
            raise DataError(f"subgroup item {part!r} not found in the catalog")
        item_ids.append(item_id)
    categorical = frozenset(a for a, d in catalog.discretizers.items() if d.kind == "categorical")
    columns, table = _read_table(args.input, categorical)
    schedule = DriftSchedule(
        target_subgroup=tuple(sorted(item_ids)),
        p_max=args.p_max,
        normal_batches=args.normal,
        transition_batches=args.transition,
        drift_batches=args.drift,
        ramp=args.ramp,
    )
    bounds = _even_bounds(table.n, total)
    labels = columns["y"] if "y" in columns else Column([None], np.zeros(table.n, dtype=np.intp))
    y = _binary_labels(labels)
    cover = _target_cover(table.point_matrix(np.arange(table.n), catalog), schedule.target_subgroup)
    y, mask = _inject_flips_columns(y, cover, bounds, schedule, args.seed)
    # an unflipped label keeps its raw value; a flipped one is the int 0 or 1
    columns["y"] = Column([*labels.values, 0, 1], np.where(mask, len(labels.values) + y, labels.codes))
    batch = np.repeat(np.arange(1, total + 1), [hi - lo for lo, hi in bounds]).tolist()
    _atomic_write(Path(args.out), _columns_text(columns))
    mask_columns = {"row": range(table.n), "batch": batch, "altered": mask.astype(int).tolist()}
    _atomic_write(Path(args.mask), _columns_text(mask_columns))
    _write_manifest(Path(args.out), args)
    log.info("flipped %d labels across %d batches", int(mask.sum()), total)
    return 0


# ---------------------------------------------------------------------------
# bench / eval / report
# ---------------------------------------------------------------------------


# each bench flag: the detectors that take it -> their parameter name
_BENCH_PARAMS = {
    "min_samples": {"ddm": "min_samples", "page_hinkley": "min_instances"},
    "delta": {"adwin": "delta"},
    "window_size": {"kswin": "window_size", "chi2": "window_size", "fet": "window_size"},
}


def _cmd_bench(args) -> int:
    params = {}
    for flag, takers in _BENCH_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if args.detector not in takers:
            option = "--" + flag.replace("_", "-")
            print(f"driftscope bench: error: {option} does not apply to --detector {args.detector}", file=sys.stderr)
            return 1
        params[takers[args.detector]] = value
    det = make_detector(args.detector, **params)
    spec = MetricSpec(kind=args.metric)
    drifts = [i for i, _, (_, beta) in _labeled_rows(args.input, spec) if det.update(beta) == "drift"]
    print(json.dumps({"detector": args.detector, "params": params, "drift_points": drifts}))
    return 0


# eval's suites and the flags each reads, the only ones besides command,
# suite, config, verbose and out that its manifest records
_EVAL_SUITE_FLAGS = {
    "inject": ("data", "rows", "supports", "n_exp", "window", "baselines", "seed", "threads"),
    **dict.fromkeys(("agrawal", "sea", "led", "hyperplane"), ("n_exp", "window", "baselines", "seed", "threads")),
    "timing": ("data", "rows", "min_support", "window", "baselines", "seed"),
}


def _cmd_eval(args) -> int:
    from .evaluation import run_concept_suite, run_injection_suite, summarize_suite, timing_bench

    if args.baselines:
        kinds = tuple(args.baselines.split(","))
    else:
        kinds = ("ddm",) if args.suite in ("inject", "timing") else ()
    methods = ("driftscope", *kinds)
    if args.suite == "inject":
        cols, source = resolve_tabular(args.data, n=args.rows)
        log.info("injection suite on %s (%d rows)", source, cols.n)
        supports = [float(s) for s in args.supports.split(",")] if args.supports else [0.01, 0.05]
        out_rows = []
        for k, support in enumerate(supports):
            # targets drawn from a narrow band around each requested support
            results, _ = run_injection_suite(
                cols,
                n_positive=args.n_exp,
                n_negative=args.n_exp,
                seed=args.seed + k,
                threads=args.threads,
                support_band=(0.8 * support, 1.25 * support),
                window=args.window,
                baseline_kinds=kinds,
            )
            out_rows += [
                dict(summarize_suite(results, m), suite=args.suite, dataset=source, target_support=support)
                for m in methods
            ]
    elif args.suite == "timing":
        cols, source = resolve_tabular(args.data, n=args.rows)
        timing = timing_bench(cols, args.min_support, args.seed, detector_kinds=kinds, window=args.window)
        out_rows = [{"suite": "timing", "dataset": source, "method": method, **vals} for method, vals in timing.items()]
    else:
        results = run_concept_suite(
            args.suite,
            n_positive=args.n_exp,
            n_negative=args.n_exp,
            seed=args.seed,
            threads=args.threads,
            window=args.window,
            baseline_kinds=kinds,
        )
        out_rows = [dict(summarize_suite(results, m), suite=args.suite, dataset=args.suite) for m in methods]

    columns = sorted({k for r in out_rows for k in r})
    text = _csv_text(out_rows, columns)
    if args.out:
        _atomic_write(Path(args.out), text)
        read = {"command", "suite", "config", "verbose", "out", *_EVAL_SUITE_FLAGS[args.suite]}
        _write_manifest(Path(args.out), argparse.Namespace(**{k: v for k, v in vars(args).items() if k in read}))
    else:
        print(text, end="")
    return 0


def _cmd_report(args) -> int:
    catalog, sgcat, catalog_sha256 = _load_artifact(args.catalog)
    reports_path = Path(args.reports)
    state_path = (
        reports_path / "monitor_state.json"
        if reports_path.is_dir()
        else reports_path.parent / "monitor_state.json"
    )
    if not state_path.exists():
        raise DataError(
            f"{state_path}: monitor state snapshot not found; "
            "report needs the full final-window statistics"
        )
    state = MonitorState.load(state_path)
    if state.n_subgroups != len(sgcat):
        raise DataError(f"monitor state has {state.n_subgroups} subgroups, catalog has {len(sgcat)}")
    if state.catalog_sha256 != catalog_sha256:
        raise DataError(f"{state_path} was written by a monitor run on another catalog than {args.catalog}")
    if not state.reference_frozen or not state.current_ring:
        raise DataError("monitoring never left the warming-up phase")
    full = state.score()
    order = rank(full, sgcat)
    if args.prune_t > 0:
        order = redundancy_prune(order, full, sgcat, args.prune_t)
    top = order[: args.top]
    entries = [
        {
            "subgroup_id": sg.index,
            "items": sg.label(catalog),
            "support": round(sg.support, 6),
            "delta_h": None if d != d else round(d, 6),
            "t": round(t, 4),
            "drifted": drifted,
        }
        for sg, t, d, drifted in zip(
            sgcat.subgroups_at(top),
            full.t_values[top].tolist(),
            full.delta_h[top].tolist(),
            full.drifted[top].tolist(),
        )
    ]
    # everything that can fail runs before the first write
    attribution = shapley_global(full, sgcat) if args.shapley else None
    columns = ["subgroup_id", "items", "support", "delta_h", "t", "drifted"]
    if args.format == "md":
        lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
        for e in entries:
            lines.append("| " + " | ".join(str(e[c]) for c in columns) + " |")
        text = "\n".join(lines) + "\n"
    else:
        text = _csv_text(entries, columns)
    if args.out:
        _atomic_write(Path(args.out), text)
    else:
        print(text, end="")

    if attribution is not None:
        rows = [
            {"item_id": item, "item": catalog.label_of(item), "contribution": value}
            for item, value in attribution.top()
        ]
        attr_text = _csv_text(rows, ["item_id", "item", "contribution"])
        if args.out:
            attr_path = Path(args.out).with_suffix(".attribution.csv")
            _atomic_write(attr_path, attr_text)
            log.info("wrote item attribution to %s", attr_path)
        else:
            print(attr_text, end="")
    if args.out:
        _write_manifest(Path(args.out), args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftscope", description=__doc__)
    parser.add_argument("--config", help="JSON file of flags, parsed before the command line's")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="build an item catalog and mine frequent subgroups")
    p.add_argument("--input", required=True)
    p.add_argument("--min-support", type=_fraction, required=True)
    p.add_argument("--max-len", type=_positive_int, default=7)
    p.add_argument("--bins", type=_positive_int, default=4)
    p.add_argument("--binning", type=_binning_rule, action="append", metavar="ATTR=RULE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("monitor", help="monitor a labeled stream for subgroup drift")
    p.add_argument("--catalog", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--tau-t", type=_finite_non_negative, default=5.0)
    p.add_argument("--batch-size", type=_positive_int, default=200)
    p.add_argument("--min-count", type=_non_negative_int, default=0)
    p.add_argument("--top-k", type=_positive_int, default=100)
    p.add_argument("--metric", choices=["accuracy", "false_positive_rate", "explicit"], default="accuracy")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("gen", help="generate a synthetic concept-drift stream")
    p.add_argument("--dataset", choices=["agrawal", "sea", "led", "hyperplane"], required=True)
    p.add_argument("--concepts", type=_index_pair, default="0,1", help="two concept indices, e.g. 0,2")
    p.add_argument("--drift-center", type=int, default=5000)
    p.add_argument("--drift-width", type=_non_negative_int, default=1000)
    p.add_argument("--label-noise", type=_half_open_unit_interval, default=0.10)
    p.add_argument("--train-size", type=_positive_int, default=5000)
    p.add_argument("--n-batches", type=_positive_int, default=50)
    p.add_argument("--batch-size", type=_positive_int, default=200)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train-out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inject", help="flip labels inside a target subgroup")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--subgroup", required=True, help='e.g. "sex=Female,workclass=Private"')
    p.add_argument("--p-max", type=_unit_interval, required=True)
    p.add_argument("--normal", type=_non_negative_int, default=10)
    p.add_argument("--transition", type=_non_negative_int, default=10)
    p.add_argument("--drift", type=_non_negative_int, default=10)
    p.add_argument("--ramp", choices=["linear", "sigmoid"], default="linear")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--mask", required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("bench", help="run one global baseline detector over a stream")
    p.add_argument("--detector", choices=list(DETECTOR_KINDS), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--metric", choices=["accuracy", "false_positive_rate", "explicit"], default="accuracy")
    p.add_argument("--min-samples", type=_positive_int)
    p.add_argument("--delta", type=_open_unit_interval)
    p.add_argument("--window-size", type=_positive_int)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="run an experiment suite and write a results table")
    p.add_argument("--suite", required=True, choices=list(_EVAL_SUITE_FLAGS))
    p.add_argument("--data", default="surrogate", help="tabular CSV path or 'surrogate' (injection/timing suites)")
    p.add_argument("--supports", type=_fractions, help="comma-separated support band, e.g. 0.01,0.05")
    p.add_argument("--min-support", type=_fraction, default=0.05, help="mining support (timing suite)")
    p.add_argument("--n-exp", type=_positive_int, default=20)
    p.add_argument("--rows", type=_positive_int, default=48842,
                   help="surrogate dataset size (ignored for file data)")
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--baselines", type=_detector_kinds, help="comma-separated detector kinds")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="rank, prune, and export drifting subgroups")
    p.add_argument("--reports", required=True, help="reports dir or reports.jsonl path")
    p.add_argument("--catalog", required=True)
    p.add_argument("--prune-t", type=_finite_non_negative, default=0.0)
    p.add_argument("--top", type=_positive_int, default=20)
    p.add_argument("--format", choices=["csv", "md"], default="md")
    p.add_argument("--shapley", action="store_true",
                   help="also write per-item drift attributions (plot-ready CSV)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of ``parser``, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Give the parser and every subparser the ``--config`` file's values as
    flags, which each parses before its own arguments. A missing,
    unreadable or malformed file, or a key that no flag defines, is a
    DataError."""
    pre = _Parser(prog="driftscope", add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config  # as the main parser reads it: --config=PATH too
    if config is None:
        return
    parsers = [parser, *_commands(parser).values()]
    flags = [
        {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")} for p in parsers
    ]

    def build(cfg):
        if not isinstance(cfg, dict):
            raise DataError("expected an object of flag defaults")
        values = {k.replace("-", "_"): v for k, v in cfg.items()}
        unknown = sorted(set(values).difference(*flags))
        if unknown:
            raise DataError(f"no flag takes {', '.join(map(repr, unknown))}")
        return values

    def tokens(action: argparse.Action, value) -> list[str]:
        # the "=" form, so that a value such as -inf is not read as a flag
        flag = action.option_strings[0]
        if value is None:
            return []
        if action.nargs == 0 and isinstance(value, bool):  # a switch
            return [flag] if value else []
        if isinstance(action, argparse._AppendAction) and isinstance(value, list):
            return [f"{flag}={v}" for v in value]
        return [f"{flag}={value}"]

    values = read_json(config, "--config", build)
    for p, actions in zip(parsers, flags):
        p.config_tokens = [t for k, v in values.items() if k in actions for t in tokens(actions[k], v)]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        log.error("%s", exc)
        return 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a DataError is a ValueError; an unwritable --out is an OSError
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
