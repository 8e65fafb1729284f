"""Command-line entry point: mine, monitor, gen, inject, bench, eval, report.

Exit codes: 0 success, 1 usage error, 2 data error. All artifacts are written
atomically (temp file + rename) and every run leaves a manifest (config,
seeds, versions) next to its outputs so results can be reproduced
byte-for-byte. Config precedence: CLI flags > --config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .baselines import DETECTOR_KINDS, make_detector
from .catalog import (
    DataError,
    IngestStats,
    ItemCatalog,
    MetricSpec,
    OutcomeRecord,
    build_catalog,
    read_rows,
)
from .detector import MonitorState, WindowConfig, score_windows, step
from .evaluation import (
    ColumnData,
    run_concept_suite,
    run_injection_suite,
    summarize_suite,
    timing_bench,
)
from .explain import rank, redundancy_prune, shapley_global
from .mining import MiningConfig, SubgroupCatalog, mine_frequent
from .sgmetrics import EncodedBatch, aggregate, build_point_matrix, membership
from .streams import ConceptStreamConfig, DriftSchedule, gen_concept_stream, inject_label_flip
from .datasets import resolve_tabular

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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    manifest = {
        "tool": "driftscope",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "argv": sys.argv[1:],
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
    }
    target = out / "manifest.json" if out.is_dir() else out.with_suffix(out.suffix + ".manifest.json")
    _write_json(target, manifest)


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({c: ("" if r.get(c) is None else r.get(c)) for c in columns})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------


def _cmd_mine(args) -> int:
    if args.min_support is None:
        print("driftscope mine: error: --min-support is required", file=sys.stderr)
        return 1
    rows = list(read_rows(args.input))
    if not rows:
        raise DataError(f"{args.input}: no data rows")
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
    catalog = build_catalog(rows, binning_config=binning, default_bins=args.bins)
    ids = [catalog.encode(r) for r in rows]
    P = build_point_matrix(ids, catalog.n_items)
    sgcat = mine_frequent(
        P,
        MiningConfig(min_support=args.min_support, max_len=args.max_len),
        item_attrs=catalog.item_attributes(),
    )
    out = Path(args.out)
    _write_json(out, {"item_catalog": catalog.to_dict(), "subgroup_catalog": sgcat.to_dict()})
    _write_manifest(out, args)
    log.info("mined %d subgroups over %d items from %d rows", len(sgcat), catalog.n_items, len(rows))
    return 0


def _load_artifact(path: str) -> tuple[ItemCatalog, SubgroupCatalog]:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    try:
        return ItemCatalog.from_dict(d["item_catalog"]), SubgroupCatalog.from_dict(d["subgroup_catalog"])
    except KeyError as exc:
        raise DataError(f"{path}: not a driftscope catalog artifact (missing {exc})")


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def _batched_records(path, catalog, spec, stats, batch_size):
    """Outcome records grouped by an explicit 'batch' column when present,
    otherwise by fixed-size slices."""
    records: list = []
    batch_ids: list = []
    for i, row in enumerate(read_rows(path), start=1):
        if i == 1:
            missing = [c for c in spec.required_columns() if c not in row]
            if missing:
                raise DataError(f"missing required column(s): {', '.join(missing)}")
        a, b = spec.outcome(row, i)
        ids, skipped = catalog.encode_with_stats(row)
        stats.rows += 1
        stats.skipped_values += skipped
        records.append(OutcomeRecord(item_ids=ids, alpha=a, beta=b))
        batch_ids.append(row.get("batch"))
    if not records:
        raise DataError(f"{path}: no rows")
    if all(b is not None for b in batch_ids):
        groups: dict = {}
        for rec, b in zip(records, batch_ids):
            groups.setdefault(str(b), []).append(rec)
        return [groups[k] for k in sorted(groups, key=lambda s: (len(s), s))]
    return [records[lo : lo + batch_size] for lo in range(0, len(records), batch_size)]


def _cmd_monitor(args) -> int:
    catalog, sgcat = _load_artifact(args.catalog)
    spec = MetricSpec(kind=args.metric)
    stats = IngestStats()
    batches = _batched_records(args.input, catalog, spec, stats, args.batch_size)
    log.info(
        "ingested %d rows in %d batches (%d skipped values)",
        stats.rows, len(batches), stats.skipped_values,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(args.window))
    lines = []
    csv_columns = ["subgroup_id", "items", "support", "h_ref", "h_cur", "delta_h", "t", "drifted"]
    for b, chunk in enumerate(batches):
        batch = EncodedBatch(
            point_matrix=build_point_matrix([r.item_ids for r in chunk], catalog.n_items),
            alpha_vec=np.array([r.alpha for r in chunk], dtype=np.int64),
            beta_vec=np.array([r.beta for r in chunk], dtype=np.int64),
            batch_id=b + 1,
        )
        M = membership(batch, sgcat)
        report = step(monitor, aggregate(batch, M), tau_t=args.tau_t, min_count=args.min_count)
        d = report.to_dict(sgcat, top_k=args.top_k)
        lines.append(json.dumps(d, sort_keys=True))
        if args.format == "csv" and not report.warming_up:
            labeled = []
            for row in d["subgroups"]:
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


def _stream_csv(batches, path: Path) -> None:
    names = batches[0].feature_names
    rows = []
    for b, sb in enumerate(batches):
        for i in range(len(sb.y)):
            row = {"batch": b + 1}
            for j, nm in enumerate(names):
                v = sb.X[i, j]
                row[nm] = int(v) if sb.feature_kinds[j] == "categorical" else float(v)
            row["y"] = int(sb.y[i])
            rows.append(row)
    _atomic_write(path, _csv_text(rows, ["batch", *names, "y"]))


def _cmd_gen(args) -> int:
    concepts = [int(c) for c in args.concepts.split(",")]
    if len(concepts) != 2:
        raise DataError("--concepts expects two comma-separated indices, e.g. 0,2")
    config = ConceptStreamConfig(
        generator=args.dataset,
        concept_a=concepts[0],
        concept_b=concepts[1],
        drift_center=args.drift_center,
        drift_width=args.drift_width,
        label_noise=args.label_noise,
        train_size=args.train_size,
        n_batches=args.n_batches,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    train, batches = gen_concept_stream(config)
    out = Path(args.out)
    _stream_csv(batches, out)
    if args.train_out:
        _stream_csv([train], Path(args.train_out))
    _write_manifest(out, args)
    log.info("wrote %d stream batches to %s", len(batches), out)
    return 0


def _parse_subgroup(spec: str) -> list[str]:
    """Split "a=x,b=(25,36],c=y" on commas outside interval brackets."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in spec:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(depth - 1, 0)
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current).strip())
    return [p for p in parts if p]


def _cmd_inject(args) -> int:
    catalog, _ = _load_artifact(args.catalog)
    rows = list(read_rows(args.input))
    if not rows:
        raise DataError(f"{args.input}: no rows")
    item_ids = []
    for part in _parse_subgroup(args.subgroup):
        attr, _, value = part.partition("=")
        item_id = catalog.id_of(attr, value)
        if item_id is None:
            raise DataError(f"subgroup item {part!r} not found in the catalog")
        item_ids.append(item_id)
    total = args.normal + args.transition + args.drift
    bounds = np.linspace(0, len(rows), total + 1).astype(int)
    batches = [rows[bounds[i] : bounds[i + 1]] for i in range(total)]
    schedule = DriftSchedule(
        target_subgroup=tuple(sorted(item_ids)),
        p_max=args.p_max,
        normal_batches=args.normal,
        transition_batches=args.transition,
        drift_batches=args.drift,
        ramp=args.ramp,
    )
    try:
        flipped, masks = inject_label_flip(batches, catalog, schedule, seed=args.seed)
    except ValueError as exc:
        raise DataError(str(exc))
    out_rows = []
    mask_rows = []
    idx = 0
    columns = list(rows[0].keys())
    for b, (batch, mask) in enumerate(zip(flipped, masks)):
        for i, rec in enumerate(batch):
            out_rows.append(rec)
            mask_rows.append({"row": idx, "batch": b + 1, "altered": int(mask[i])})
            idx += 1
    _atomic_write(Path(args.out), _csv_text(out_rows, columns))
    _atomic_write(Path(args.mask), _csv_text(mask_rows, ["row", "batch", "altered"]))
    _write_manifest(Path(args.out), args)
    log.info("flipped %d labels across %d batches", int(sum(m.sum() for m in masks)), total)
    return 0


# ---------------------------------------------------------------------------
# bench / eval / report
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    params = {}
    if args.min_samples is not None:
        key = {"ddm": "min_samples", "page_hinkley": "min_instances"}.get(args.detector)
        if key:
            params[key] = args.min_samples
    if args.delta is not None and args.detector in ("adwin",):
        params["delta"] = args.delta
    if args.window_size is not None and args.detector in ("kswin", "chi2", "fet"):
        params["window_size"] = args.window_size
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
    threads = args.threads or int(os.environ.get("DRIFTSCOPE_THREADS", "1"))
    out_rows = []
    if args.suite in ("inject", "adult-inject"):
        rows, source = resolve_tabular(args.data, n=args.rows)
        log.info("injection suite on %s (%d rows)", source, len(rows))
        supports = [float(s) for s in args.supports.split(",")] if args.supports else [0.01, 0.05]
        methods = ["driftscope"] + (args.baselines.split(",") if args.baselines else ["ddm"])
        for k, support in enumerate(supports):
            # targets drawn from a narrow band around each requested support
            results, _ = run_injection_suite(
                rows,
                n_positive=args.n_exp,
                n_negative=args.n_exp,
                seed=args.seed + k,
                threads=threads,
                support_band=(0.8 * support, 1.25 * support),
                window=args.window,
                baseline_kinds=tuple(args.baselines.split(",")) if args.baselines else ("ddm",),
                baseline_params={"ddm": {"min_samples": 4000}},
            )
            for method in methods:
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
            threads=threads,
            window=args.window,
            baseline_kinds=tuple(args.baselines.split(",")) if args.baselines else (),
        )
        methods = ["driftscope"] + (args.baselines.split(",") if args.baselines else [])
        for method in methods:
            row = summarize_suite(results, method)
            row["suite"] = args.suite
            row["dataset"] = args.suite
            out_rows.append(row)
    elif args.suite == "timing":
        rows, source = resolve_tabular(args.data, n=args.rows)
        cols = ColumnData(rows)
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
        bounds = np.linspace(0, len(test_idx), 31).astype(int)
        for b in range(30):
            lo, hi = bounds[b], bounds[b + 1]
            alpha = np.ones(hi - lo, dtype=np.int64)  # timing only; outcomes irrelevant
            alpha[: (hi - lo) // 5] = 0
            batches.append(
                EncodedBatch(P[lo:hi], alpha, 1 - alpha, batch_id=b + 1)
            )
        timing = timing_bench(
            sgcat,
            batches,
            detector_kinds=tuple(args.baselines.split(",")) if args.baselines else ("ddm",),
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
    full = score_windows(
        state.reference_stats, state.current_stats(), tau_t=args.tau_t
    )
    ranked = rank(full, sgcat)
    if args.prune_t > 0:
        ranked = redundancy_prune(ranked, args.prune_t)
    entries = []
    for e in ranked.entries[: args.top]:
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
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftscope", description=__doc__)
    parser.add_argument("--config", help="JSON (or TOML) file with flag defaults")
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
    p.add_argument("--concepts", default="0,1", help="two concept indices, e.g. 0,2")
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
                   choices=["inject", "adult-inject", "agrawal", "sea", "led", "hyperplane", "timing"])
    p.add_argument("--data", help="tabular CSV path or 'surrogate' (injection/timing suites)")
    p.add_argument("--supports", help="comma-separated support band, e.g. 0.01,0.05")
    p.add_argument("--min-support", type=_fraction, default=0.05, help="mining support (timing suite)")
    p.add_argument("--n-exp", type=_positive_int, default=20)
    p.add_argument("--rows", type=_positive_int, default=48842,
                   help="surrogate dataset size (ignored for file data)")
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--baselines", help="comma-separated detector kinds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="rank, prune, and export drifting subgroups")
    p.add_argument("--reports", required=True, help="reports dir or reports.jsonl path")
    p.add_argument("--catalog", required=True)
    p.add_argument("--prune-t", type=float, default=0.0)
    p.add_argument("--tau-t", type=float, default=5.0)
    p.add_argument("--top", type=_positive_int, default=20)
    p.add_argument("--format", choices=["csv", "md"], default="md")
    p.add_argument("--shapley", action="store_true",
                   help="also write per-item drift attributions (plot-ready CSV)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = Path(argv[i + 1])
    if path.suffix == ".toml":
        try:
            import tomllib  # py311+
        except ImportError:  # pragma: no cover
            try:
                import tomli as tomllib  # type: ignore
            except ImportError:
                raise DataError("TOML config requires Python 3.11+ or tomli; use JSON instead")
        with open(path, "rb") as fh:
            cfg = tomllib.load(fh)
    else:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    defaults = {k.replace("-", "_"): v for k, v in cfg.items()}
    parser.set_defaults(**defaults)
    # subcommands parse into a fresh namespace (argparse >= 3.7 semantics),
    # so the file defaults must reach every subparser too
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                known = {a.dest for a in sub._actions}
                sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DataError as exc:
        log.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return 2
    except ValueError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
