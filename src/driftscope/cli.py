"""Command-line entry point: mine, monitor, gen, inject, bench, eval, report.

Exit codes: 0 success, 1 usage error, 2 data error. All artifacts are written
atomically (temp file + rename) and every run leaves a manifest (config,
seeds, versions) next to its outputs so results can be reproduced
byte-for-byte. Config precedence: CLI flags > --config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
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
    _is_jsonl,
    atomic_open,
    build_catalog,  # not called here; perfbench/instrument.py traces cli.build_catalog
    read_columns,
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
    data errors, so usage problems exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fraction(value: str) -> float:
    x = float(value)
    if not 0.0 < x <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1], got {value}")
    return x


def _unit_interval(value: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return x


def _positive_int(value: str) -> int:
    x = int(value)
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return x


# The list types below check a value and keep its text, which the manifest
# records as given.


def _fractions(value: str) -> str:
    """A comma-separated list of fractions in (0, 1]."""
    for part in value.split(","):
        _fraction(part)
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


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
    _write_json(target, manifest)


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
    if args.min_support is None:
        print("driftscope mine: error: --min-support is required", file=sys.stderr)
        return 1
    binning = {}
    for spec in args.binning or []:
        attr, _, rule = spec.partition("=")
        if not rule:
            raise DataError(f"bad --binning entry {spec!r}, expected attr=categorical|quantile:K")
        if rule == "categorical":
            binning[attr] = "categorical"
        elif rule.startswith("quantile:"):
            binning[attr] = ("quantile", int(rule.split(":", 1)[1]))
        else:
            raise DataError(f"unknown binning rule {rule!r}")
    categorical = frozenset(a for a, rule in binning.items() if rule == "categorical")
    table = ColumnData.from_columns(read_columns(args.input), categorical=categorical)
    if not table.n:
        raise DataError(f"{args.input}: no data rows")
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


def _load_artifact(path: str) -> tuple[ItemCatalog, SubgroupCatalog]:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise DataError(f"{path}: not a driftscope catalog artifact (not a JSON object)")
    try:
        for name in ("item_catalog", "subgroup_catalog"):
            if not isinstance(d[name], dict):
                raise DataError(f"{path}: {name} is not a JSON object")
        return ItemCatalog.from_dict(d["item_catalog"]), SubgroupCatalog.from_dict(d["subgroup_catalog"])
    except KeyError as exc:
        raise DataError(f"{path}: not a driftscope catalog artifact (missing {exc})")


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def _batched_records(path, catalog, spec, batch_size):
    """The rows of ``path`` as batches of (item-id tuples, (n, 2) int64
    alpha/beta rows), grouped by an explicit 'batch' column when present,
    otherwise by fixed-size slices; also the row and skipped-value counts."""
    item_sets: list = []
    outcomes: list = []
    batch_ids: list = []
    skipped_values = 0
    for i, row in enumerate(read_rows(path), start=1):
        if i == 1:
            missing = [c for c in spec.required_columns() if c not in row]
            if missing:
                raise DataError(f"missing required column(s): {', '.join(missing)}")
        outcomes.append(spec.outcome(row, i))
        ids, skipped = catalog.encode_with_stats(row)
        skipped_values += skipped
        item_sets.append(ids)
        batch_ids.append(row.get("batch"))
    if not item_sets:
        raise DataError(f"{path}: no rows")
    outcomes = np.array(outcomes, dtype=np.int64)
    if all(b is not None for b in batch_ids):
        groups: dict = {}
        for i, b in enumerate(batch_ids):
            groups.setdefault(str(b), []).append(i)
        rows = [groups[k] for k in sorted(groups, key=lambda s: (len(s), s))]
        batches = [([item_sets[i] for i in r], outcomes[r]) for r in rows]
    else:
        batches = [
            (item_sets[lo : lo + batch_size], outcomes[lo : lo + batch_size])
            for lo in range(0, len(item_sets), batch_size)
        ]
    return batches, len(item_sets), skipped_values


def _cmd_monitor(args) -> int:
    config = WindowConfig(args.window, args.tau_t, args.min_count)
    catalog, sgcat = _load_artifact(args.catalog)
    spec = MetricSpec(kind=args.metric)
    batches, n_rows, skipped_values = _batched_records(args.input, catalog, spec, args.batch_size)
    log.info("ingested %d rows in %d batches (%d skipped values)", n_rows, len(batches), skipped_values)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    monitor = MonitorState(n_subgroups=len(sgcat), config=config)
    writer = ReportWriter(sgcat, args.top_k)
    lines = []
    csv_columns = ["subgroup_id", "items", "support", "h_ref", "h_cur", "delta_h", "t", "drifted"]
    for b, (item_sets, outcomes) in enumerate(batches):
        batch = EncodedBatch(
            point_matrix=build_point_matrix(item_sets, catalog.n_items),
            alpha_vec=outcomes[:, 0],
            beta_vec=outcomes[:, 1],
            batch_id=b + 1,
        )
        M = membership(batch, sgcat)
        report = step(monitor, aggregate(batch, M))
        lines.append(writer.line(report))
        if args.format == "csv" and not report.warming_up:
            labeled = []
            for row in report.to_dict(sgcat, top_k=args.top_k)["subgroups"]:
                row = dict(row)
                row["items"] = ",".join(
                    catalog.label_of(int(i)) for i in row["items"].split(",") if i
                ) if row["items"] and row["items"] != "(global)" else row["items"]
                labeled.append(row)
            _atomic_write(out_dir / f"batch_{b + 1:04d}.csv", _csv_text(labeled, csv_columns))
        if report.global_drift:
            log.info("batch %d: drift (max t = %.2f)", b + 1, report.max_t())
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
    """The label column ``y`` as 0/1 ints, parsed once per distinct value; a
    DataError names the first row whose label is not an integer, or not 0
    or 1."""
    y = []
    for code, v in enumerate(labels.values):
        try:
            label = float(str(v))
        except ValueError:
            label = np.nan
        if not (label.is_integer() and label in (0.0, 1.0)):
            # values are in first-seen order, so this one's first row is the first bad row
            row = int(np.argmax(labels.codes == code)) + 1
            if not label.is_integer():
                raise DataError(f"row {row}: no integer label in column 'y' (got {v!r})")
            raise DataError(f"row {row}: label flipping requires binary labels, got y={v!r}")
        y.append(int(label))
    return np.array(y, dtype=np.int64)[labels.codes]


def _cmd_inject(args) -> int:
    from .streams import DriftSchedule, _even_bounds, _inject_flips_columns, _target_cover

    _csv_outputs(args, "out", "mask")
    catalog, _ = _load_artifact(args.catalog)
    columns = read_columns(args.input)
    categorical = frozenset(a for a, d in catalog.discretizers.items() if d.kind == "categorical")
    table = ColumnData.from_columns(columns, categorical=categorical)
    if not table.n:
        raise DataError(f"{args.input}: no rows")
    item_ids = []
    for part in _parse_subgroup(args.subgroup, catalog.attributes):
        attr, _, value = part.partition("=")
        item_id = catalog.id_of(attr, value)
        if item_id is None:
            raise DataError(f"subgroup item {part!r} not found in the catalog")
        item_ids.append(item_id)
    schedule = DriftSchedule(
        target_subgroup=tuple(sorted(item_ids)),
        p_max=args.p_max,
        normal_batches=args.normal,
        transition_batches=args.transition,
        drift_batches=args.drift,
        ramp=args.ramp,
    )
    total = args.normal + args.transition + args.drift
    if total < 1:
        raise DataError("inject needs at least one batch")
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
    drifts = []
    for i, row in enumerate(read_rows(args.input), start=1):
        _, beta = spec.outcome(row, i)
        if det.update(beta) == "drift":
            drifts.append(i)
    print(json.dumps({"detector": args.detector, "params": params, "drift_points": drifts}))
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import run_concept_suite, run_injection_suite, summarize_suite, timing_bench
    from .streams import _even_bounds

    if args.baselines:
        kinds = tuple(args.baselines.split(","))
    else:
        kinds = ("ddm",) if args.suite in ("inject", "timing") else ()
    for kind in kinds:
        if kind not in DETECTOR_KINDS:
            raise DataError(f"unknown --baselines kind {kind!r}, expected one of {', '.join(DETECTOR_KINDS)}")
    out_rows = []
    if args.suite == "inject":
        cols, source = resolve_tabular(args.data, n=args.rows)
        log.info("injection suite on %s (%d rows)", source, cols.n)
        supports = [float(s) for s in args.supports.split(",")] if args.supports else [0.01, 0.05]
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
                baseline_params={"ddm": {"min_samples": 4000}},
            )
            for method in ("driftscope", *kinds):
                row = summarize_suite(results, method)
                row["suite"] = args.suite
                row["dataset"] = source
                row["target_support"] = support
                out_rows.append(row)
    elif args.suite in ("agrawal", "sea", "led", "hyperplane"):
        results = run_concept_suite(
            args.suite,
            n_positive=args.n_exp,
            n_negative=args.n_exp,
            seed=args.seed,
            threads=args.threads,
            window=args.window,
            baseline_kinds=kinds,
        )
        for method in ("driftscope", *kinds):
            row = summarize_suite(results, method)
            row["suite"] = args.suite
            row["dataset"] = args.suite
            out_rows.append(row)
    elif args.suite == "timing":
        cols, source = resolve_tabular(args.data, n=args.rows)
        rng = np.random.default_rng(args.seed)
        perm = rng.permutation(cols.n)
        train_idx, test_idx = perm[: cols.n // 2], perm[cols.n // 2 :]
        catalog = cols.build_catalog(train_idx)
        sgcat = mine_frequent(
            cols.point_matrix(train_idx, catalog),
            MiningConfig(min_support=args.min_support, max_len=3),
            item_attrs=catalog.item_attributes(),
        )
        P = cols.point_matrix(test_idx, catalog)
        y = cols.y[test_idx]
        batches = []
        for b, (lo, hi) in enumerate(_even_bounds(len(test_idx), 30), start=1):
            alpha = np.ones(hi - lo, dtype=np.int64)  # timing only; outcomes irrelevant
            alpha[: (hi - lo) // 5] = 0
            batches.append(EncodedBatch(P[lo:hi], alpha, 1 - alpha, batch_id=b))
        timing = timing_bench(
            sgcat,
            batches,
            detector_kinds=kinds,
        )
        for method, vals in timing.items():
            out_rows.append({"suite": "timing", "dataset": source, "method": method, **vals})
    else:
        raise DataError(f"unknown suite {args.suite!r}")

    columns = sorted({k for r in out_rows for k in r})
    text = _csv_text(out_rows, columns)
    if args.out:
        _atomic_write(Path(args.out), text)
        _write_manifest(Path(args.out), args)
    else:
        print(text, end="")
    return 0


def _cmd_report(args) -> int:
    catalog, sgcat = _load_artifact(args.catalog)
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
    if not state.reference_frozen or not state.current_ring:
        raise DataError("monitoring never left the warming-up phase")
    full = state.score()
    ranked = rank(full, sgcat)
    if args.prune_t > 0:
        ranked = redundancy_prune(ranked, args.prune_t)
    entries = []
    for e in ranked.head(args.top):
        entries.append(
            {
                "subgroup_id": e.subgroup.index,
                "items": e.subgroup.label(catalog),
                "support": round(e.subgroup.support, 6),
                "delta_h": None if e.delta_h is None else round(e.delta_h, 6),
                "t": round(e.t, 4),
                "drifted": bool(full.drifted[e.subgroup.index]),
            }
        )
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

    if args.shapley:
        attribution = shapley_global(full, sgcat)
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
    parser.add_argument("--config", help="JSON file with flag defaults")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="build an item catalog and mine frequent subgroups")
    p.add_argument("--input", required=True)
    # not argparse-required so a --config file can supply it
    p.add_argument("--min-support", type=_fraction, default=None)
    p.add_argument("--max-len", type=_positive_int, default=7)
    p.add_argument("--bins", type=_positive_int, default=4)
    p.add_argument("--binning", action="append", metavar="ATTR=RULE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("monitor", help="monitor a labeled stream for subgroup drift")
    p.add_argument("--catalog", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--tau-t", type=float, default=5.0)
    p.add_argument("--batch-size", type=_positive_int, default=200)
    p.add_argument("--min-count", type=int, default=0)
    p.add_argument("--top-k", type=_positive_int, default=100)
    p.add_argument("--metric", choices=["accuracy", "false_positive_rate", "explicit"], default="accuracy")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("gen", help="generate a synthetic concept-drift stream")
    p.add_argument("--dataset", choices=["agrawal", "sea", "led", "hyperplane"], required=True)
    p.add_argument("--concepts", type=_index_pair, default="0,1", help="two concept indices, e.g. 0,2")
    p.add_argument("--drift-center", type=int, default=5000)
    p.add_argument("--drift-width", type=int, default=1000)
    p.add_argument("--label-noise", type=_unit_interval, default=0.10)
    p.add_argument("--train-size", type=_positive_int, default=5000)
    p.add_argument("--n-batches", type=_positive_int, default=50)
    p.add_argument("--batch-size", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train-out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("inject", help="flip labels inside a target subgroup")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--subgroup", required=True, help='e.g. "sex=Female,workclass=Private"')
    p.add_argument("--p-max", type=_unit_interval, required=True)
    p.add_argument("--normal", type=int, default=10)
    p.add_argument("--transition", type=int, default=10)
    p.add_argument("--drift", type=int, default=10)
    p.add_argument("--ramp", choices=["linear", "sigmoid"], default="linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--mask", required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("bench", help="run one global baseline detector over a stream")
    p.add_argument("--detector", choices=list(DETECTOR_KINDS), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--metric", choices=["accuracy", "false_positive_rate", "explicit"], default="accuracy")
    p.add_argument("--min-samples", type=_positive_int)
    p.add_argument("--delta", type=float)
    p.add_argument("--window-size", type=_positive_int)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="run an experiment suite and write a results table")
    p.add_argument("--suite", required=True,
                   choices=["inject", "agrawal", "sea", "led", "hyperplane", "timing"])
    p.add_argument("--data", default="surrogate", help="tabular CSV path or 'surrogate' (injection/timing suites)")
    p.add_argument("--supports", type=_fractions, help="comma-separated support band, e.g. 0.01,0.05")
    p.add_argument("--min-support", type=_fraction, default=0.05, help="mining support (timing suite)")
    p.add_argument("--n-exp", type=_positive_int, default=20)
    p.add_argument("--rows", type=_positive_int, default=48842,
                   help="surrogate dataset size (ignored for file data)")
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--baselines", help="comma-separated detector kinds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="rank, prune, and export drifting subgroups")
    p.add_argument("--reports", required=True, help="reports dir or reports.jsonl path")
    p.add_argument("--catalog", required=True)
    p.add_argument("--prune-t", type=float, default=0.0)
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
    """Make the ``--config`` file's values the flag defaults of the parser
    and of every subparser. A missing, unreadable or malformed file, or a
    key that no flag defines, is a DataError."""
    pre = _Parser(prog="driftscope", add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config  # as the main parser reads it: --config=PATH too
    if config is None:
        return
    path = Path(config)
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # the JSON and UTF-8 decode errors are ValueErrors
        raise DataError(f"--config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataError(f"--config {path}: expected an object of flag defaults")
    defaults = {k.replace("-", "_"): v for k, v in cfg.items()}
    # subcommands parse into a fresh namespace (argparse >= 3.7 semantics),
    # so the file defaults must reach every subparser too
    parsers = [parser, *_commands(parser).values()]
    flags = [
        {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")} for p in parsers
    ]
    unknown = sorted(set(defaults).difference(*flags))
    if unknown:
        raise DataError(f"--config {path}: no flag takes {', '.join(map(repr, unknown))}")
    for p, actions in zip(parsers, flags):
        # argparse runs a flag's type over a string default of the command
        # that runs, so a typed value passes the flag's own check, and fails
        # with its message and exit code
        p.set_defaults(**{
            k: v if actions[k].type is None else str(v) for k, v in defaults.items() if k in actions
        })


def _check_choices(command: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Hold each value to its flag's choices; argparse checks only the values
    given as flags, so this catches a --config value."""
    for action in command._actions:
        if action.choices is not None:
            try:
                command._check_value(action, getattr(args, action.dest))
            except argparse.ArgumentError as exc:
                command.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        _check_choices(_commands(parser)[args.command], args)
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
    except (ValueError, FileNotFoundError) as exc:  # a DataError is a ValueError
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
