"""Span instrumentation of the driftscope program itself, for the traced run.

While :func:`patched` is active, the layer functions that ``driftscope.cli``
and ``driftscope.evaluation`` call (the names those modules imported, and a
few class methods) are replaced by wrappers that record one span per call;
on exit the originals are put back. Running ``driftscope.cli.main([...])``
inside it therefore traces the program's own call sequence, and nothing of
the program is copied into the benchmark.

Batches are no function of their own in the program: a batch span is opened
by the first layer call of each batch (``build_point_matrix`` in the monitor
loop of the CLI, ``membership`` in an experiment's loop) and ends at the next
batch, at the first call after the loop, or with the command or experiment.
Its self time is the loop's own code, such as building the ``EncodedBatch``
or ``json.dumps`` of the report.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from typing import Callable

import driftscope.cli as cli
import driftscope.evaluation as evaluation
from driftscope.baselines import BaselineDetector
from driftscope.catalog import ItemCatalog
from driftscope.detector import DriftReport, MonitorState
from driftscope.evaluation import ColumnData
from driftscope.mining import SubgroupCatalog
from driftscope.streams import TreeModel

from spans import Tracer

# How a call relates to the batch spans: an "open" call starts a new batch
# span when the innermost open span is the loop's owner or a batch of it; a
# "close" call (the first call after the loop) ends an open batch span first.
CLI_BATCH = ("open", "cli.batch", "cli.monitor")
EVAL_BATCH = ("open", "evaluation.batch", "evaluation.experiment")
CLOSE_CLI_BATCH = ("close", "cli.batch")
CLOSE_EVAL_BATCH = ("close", "evaluation.batch")

# (owner, attribute, span name, batch rule)
FUNCTIONS = [
    (cli, "_cmd_mine", "cli.mine", None),
    (cli, "_cmd_monitor", "cli.monitor", None),
    (cli, "_cmd_report", "cli.report", None),
    (cli, "_cmd_eval", "cli.eval", None),
    (cli, "read_rows", "catalog.read_rows", None),
    (cli, "build_catalog", "catalog.build_catalog", None),
    (cli, "build_point_matrix", "sgmetrics.build_point_matrix", CLI_BATCH),
    (cli, "mine_frequent", "mining.mine_frequent", None),
    (cli, "_load_artifact", "mining.catalog_load", None),
    (cli, "membership", "sgmetrics.membership", None),
    (cli, "aggregate", "sgmetrics.aggregate", None),
    (cli, "step", "detector.step", None),
    (cli, "_atomic_write", "cli.atomic_write", CLOSE_CLI_BATCH),
    (cli, "score_windows", "detector.score_windows", None),
    (cli, "rank", "explain.rank", None),
    (cli, "redundancy_prune", "explain.redundancy_prune", None),
    (cli, "shapley_global", "explain.shapley_global", None),
    (cli, "resolve_tabular", "datasets.resolve_tabular", None),
    (evaluation, "run_injection_experiment", "evaluation.experiment", None),
    (evaluation, "mine_frequent", "mining.mine_frequent", None),
    (evaluation, "fit_tree", "streams.fit_tree", None),
    (evaluation, "_inject_flips_columns", "streams.inject_label_flip", None),
    (evaluation, "membership", "sgmetrics.membership", EVAL_BATCH),
    (evaluation, "aggregate", "sgmetrics.aggregate", None),
    (evaluation, "step", "detector.step", None),
    (evaluation, "make_detector", "baselines.make_detector", CLOSE_EVAL_BATCH),
    (evaluation, "ndcg_at_k", "evaluation.ndcg_at_k", None),
    (evaluation, "correlations", "evaluation.correlations", None),
    (ItemCatalog, "encode_with_stats", "catalog.encode_with_stats", None),
    (ItemCatalog, "from_dict", "catalog.ItemCatalog.from_dict", None),
    (SubgroupCatalog, "from_dict", "mining.SubgroupCatalog.from_dict", None),
    (DriftReport, "to_dict", "detector.DriftReport.to_dict", None),
    (MonitorState, "save", "detector.MonitorState.save", None),
    (MonitorState, "load", "detector.MonitorState.load", None),
    (ColumnData, "__init__", "evaluation.ColumnData", None),
    (ColumnData, "feature_matrix", "evaluation.ColumnData.feature_matrix", None),
    (ColumnData, "build_catalog", "evaluation.ColumnData.build_catalog", None),
    (ColumnData, "point_matrix", "evaluation.ColumnData.point_matrix", None),
    (TreeModel, "predict", "streams.TreeModel.predict", None),
    (BaselineDetector, "run", "baselines.run", None),
]

Observer = Callable[[str, tuple, dict, object], None]


def _batch_hook(tr: Tracer, rule, args: tuple) -> None:
    if rule is None:
        return
    if rule[0] == "close":
        tr.end(rule[1])
        return
    _, batch_name, owner = rule
    name, batch = tr.innermost()
    if name == batch_name:
        tr.end(batch_name)
    elif name != owner:
        return
    if owner == "cli.monitor":  # batches are numbered from 1, as the CLI does
        batch_id = 1 if name == owner else batch + 1
    else:
        batch_id = args[0].batch_id
    tr.begin(batch_name, batch=batch_id)


def _wrap(tr: Tracer, name: str, rule, fn, observe: Observer | None):
    if inspect.isgeneratorfunction(fn):
        # the span covers the whole iteration, so the consumer's work between
        # items (outcomes and encoding, for read_rows) falls inside it

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            with tr.span(name):
                yield from fn(*args, **kwargs)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _batch_hook(tr, rule, args)
        with tr.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(name, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def patched(tr: Tracer, observe: Observer | None = None):
    """Trace every call of the listed functions into ``tr``. ``observe``,
    if given, sees each call's name, arguments and result after its span
    has ended (it must not change them)."""
    saved = []
    try:
        for owner, attr, name, rule in FUNCTIONS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tr, name, rule, raw.__func__, observe))
            else:
                new = _wrap(tr, name, rule, raw, observe)
            setattr(owner, attr, new)
        yield tr
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
