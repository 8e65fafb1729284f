"""End-to-end library flow: catalog -> mine -> monitor -> explain.

A synthetic tabular stream gets a label-flip drift injected into one known
subgroup; the monitor must flag it and the explanation pipeline must surface
that subgroup (or a refinement of it) at the top of the pruned ranking.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from driftscope.catalog import ColumnData, build_catalog
from driftscope.detector import MonitorState, WindowConfig, score_windows, step
from driftscope.explain import rank, redundancy_prune, shapley_local
from driftscope.mining import MiningConfig, mine_frequent
from driftscope.sgmetrics import EncodedBatch, aggregate, build_point_matrix, membership, merge
from driftscope.streams import DriftSchedule, _even_bounds, _inject_flips_columns, _target_cover
from rowpath import make_drift_value_fn


def make_rows(n, rng):
    rows = []
    for _ in range(n):
        city = rng.choice(["north", "south", "east"], p=[0.5, 0.3, 0.2])
        plan = rng.choice(["basic", "pro"], p=[0.7, 0.3])
        age = int(rng.integers(18, 80))
        # model is accurate everywhere; y encodes "correct label"
        rows.append({"city": str(city), "plan": str(plan), "age": age, "y": 1})
    return rows


def test_injected_subgroup_is_detected_and_ranked_first():
    rng = np.random.default_rng(42)
    reference = make_rows(3000, rng)

    catalog = build_catalog(reference, default_bins=4)
    ref_ids = [catalog.encode(r) for r in reference]
    sgcat = mine_frequent(
        build_point_matrix(ref_ids, catalog.n_items),
        MiningConfig(min_support=0.05, max_len=2),
        item_attrs=catalog.item_attributes(),
    )

    target = (catalog.id_of("city", "south"), catalog.id_of("plan", "basic"))
    target = tuple(sorted(target))
    target_index = int(sgcat.indices_of([target])[0])
    assert target_index >= 0

    # 15 batches of 200; labels flip inside the target subgroup from batch 6
    stream = [make_rows(200, rng) for _ in range(15)]
    schedule = DriftSchedule(
        target_subgroup=target, p_max=0.9,
        normal_batches=5, transition_batches=4, drift_batches=6,
    )
    rows = [r for batch in stream for r in batch]
    table = ColumnData(rows)
    bounds = _even_bounds(len(rows), 15)
    cover = _target_cover(table.point_matrix(np.arange(table.n), catalog), target)
    y, mask = _inject_flips_columns(table.y, cover, bounds, schedule, seed=7)
    flipped = [[{**r, "y": int(y[i])} for i, r in enumerate(rows[lo:hi], start=lo)] for lo, hi in bounds]
    masks = [mask[lo:hi] for lo, hi in bounds]

    monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(5, tau_t=5.0))
    batch_stats = []
    drift_seen_at = None
    for b, batch_rows in enumerate(flipped, start=1):
        ids = [catalog.encode(r) for r in batch_rows]
        # the model predicts 1 for everything; a flipped label becomes an error
        alpha = np.array([int(r["y"] == 1) for r in batch_rows])
        batch = EncodedBatch(
            build_point_matrix(ids, catalog.n_items), alpha, 1 - alpha, batch_id=b
        )
        stats = aggregate(batch, membership(batch, sgcat))
        batch_stats.append(stats)
        report = step(monitor, stats)
        if report.global_drift and drift_seen_at is None:
            drift_seen_at = b

    assert drift_seen_at is not None and drift_seen_at > 5, "drift must follow warmup"

    final = score_windows(monitor.reference_stats, monitor.current_stats(), tau_t=5.0)
    pruned = redundancy_prune(rank(final, sgcat), final, sgcat, t_threshold=5.0)
    top = sgcat.subgroup(int(pruned[0])).item_ids
    assert set(target) <= set(top) or set(top) <= set(target), (
        f"top-ranked subgroup {top} unrelated to injected target {target}"
    )

    # attribution: both target items contribute, and the drift they explain
    # together equals the subgroup's divergence (efficiency), recounted from
    # the window counts
    value_fn = make_drift_value_fn(sgcat, monitor.reference_stats, monitor.current_stats())
    phi = shapley_local(target_index, final, sgcat)
    total = sum(phi.values.values())
    assert abs(total - (value_fn(frozenset(target)) - value_fn(frozenset()))) < 1e-12
    assert value_fn(frozenset(target)) > 0.3  # large accuracy divergence

    # ground-truth sanity: altered fraction of the target in the final window
    window_masks = masks[-5:]
    window_rows = flipped[-5:]
    member = altered = 0
    for rows_, mask in zip(window_rows, window_masks):
        for r, m in zip(rows_, mask):
            if set(target) <= set(catalog.encode(r)):
                member += 1
                altered += bool(m)
    assert altered / member > 0.8  # saturates near p_max

    # the sliding current window equals the merge of the last W batch stats
    recomputed = merge(batch_stats[-5:])
    assert np.array_equal(monitor.current_stats().alpha_counts, recomputed.alpha_counts)


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import driftscope

    modules = [driftscope] + [
        importlib.import_module(f"driftscope.{m.name}") for m in pkgutil.iter_modules(driftscope.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing
    # each public class and function has one home: the module that defines it
    # lists it (constants carry no module of their own)
    elsewhere = [
        f"{mod.__name__}.{name} (from {obj.__module__})"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if callable(obj := getattr(mod, name)) and obj.__module__ != mod.__name__
    ]
    assert not elsewhere


def test_sources_parse_at_the_declared_python_floor():
    # only the newest interpreter may have numpy installed, so the declared
    # floor is held by parsing every source with the floor's grammar
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    floor = tomllib.loads((root / "pyproject.toml").read_text())["project"]["requires-python"]
    assert floor.startswith(">=")
    version = tuple(int(part) for part in floor[2:].split("."))
    sources = sorted((root / "src" / "driftscope").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)


def test_sources_read_no_environment_variable():
    # a run's settings are its flags and its --config file, which the
    # manifest records; an environment variable would be an unrecorded input
    root = Path(__file__).resolve().parents[1]
    names = {"environ", "getenv"}
    found = []
    for path in sorted((root / "src" / "driftscope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.alias) and node.name in names
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
