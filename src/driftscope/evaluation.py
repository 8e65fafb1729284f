"""Experiment suites, detection scoring, ranking quality, and timing.

Two experiment families mirror the monitoring protocol end to end:

  - Injection experiments: shuffle a tabular dataset, split 50/50, mine
    subgroups and fit a tree on the reference half, stream the other half in
    30 batches, and (for positive experiments) flip labels inside a randomly
    chosen target subgroup on the normal/transition/drift schedule.
  - Concept experiments: synthetic generator streams (50 batches of 200 by
    default) where positives mix two concepts through a sigmoid and negatives
    stay on one concept.

An experiment counts as detected when the monitor reports drift in at least
one batch; suites always pair equal numbers of positive and negative runs so
accuracy is meaningful. Ranking quality uses the true altered fraction per
subgroup (from the injection ground-truth mask) as relevance.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .baselines import DRIFT, make_detector
from .catalog import ColumnData, ItemCatalog
from .detector import DriftReport, MonitorState, ReportWriter, WindowConfig, step
from .mining import MiningConfig, SubgroupCatalog, mine_frequent
from .sgmetrics import EncodedBatch, Membership, SubgroupStats, aggregate, membership
from .streams import (
    ConceptStreamConfig,
    DriftSchedule,
    _even_bounds,
    _inject_flips_columns,
    _target_cover,
    concept_disagreement,
    fit_tree,
    gen_concept_stream,
)

__all__ = [
    "ExperimentResult",
    "InjectionExtras",
    "detection_scores",
    "ndcg_at_k",
    "correlations",
    "youden_sweep",
    "run_injection_experiment",
    "run_injection_suite",
    "run_concept_experiment",
    "run_concept_suite",
    "timing_bench",
    "summarize_suite",
]

_INJECT_SALT = 0x494E4A45
_CONCEPT_SALT = 0x434F4E43


@dataclass
class ExperimentResult:
    """Outcome of one positive or negative experiment."""

    kind: str  # "positive" | "negative"
    detected: bool
    batch_max_t: list[float]
    seed: int
    target_support: float | None = None
    target_items: tuple[int, ...] | None = None
    ndcg_at_10: float | None = None
    random_ndcg_samples: list[float] = field(default_factory=list)
    pearson: float | None = None
    spearman: float | None = None
    baseline_detected: dict[str, bool] = field(default_factory=dict)
    report_jsonl: str | None = None

    def detected_at(self, tau: float) -> bool:
        return any(t > tau for t in self.batch_max_t)


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def detection_scores(
    results: Sequence[ExperimentResult],
    outcome: Callable[[ExperimentResult], bool] | None = None,
) -> dict[str, float | None]:
    """Confusion-matrix scores over experiment outcomes.

    ``outcome`` overrides what counts as a detection (used to score baseline
    detectors saved on the same experiments). Rates whose denominator is
    empty are None rather than 0.
    """
    if not results:
        raise ValueError("no experiments to score")
    outcome = outcome or (lambda r: r.detected)
    tp = sum(1 for r in results if r.kind == "positive" and outcome(r))
    fn = sum(1 for r in results if r.kind == "positive" and not outcome(r))
    fp = sum(1 for r in results if r.kind == "negative" and outcome(r))
    tn = sum(1 for r in results if r.kind == "negative" and not outcome(r))
    n_pos, n_neg = tp + fn, fp + tn
    return {
        "accuracy": (tp + tn) / len(results),
        "f1": 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else None,
        "fpr": fp / n_neg if n_neg else None,
        "fnr": fn / n_pos if n_pos else None,
    }


def ndcg_at_k(relevance_in_ranked_order: Sequence[float], k: int) -> float:
    """Normalized discounted cumulative gain with linear gain.

    ``relevance_in_ranked_order`` lists true relevances in the order the
    scorer ranked them. Gain is the relevance itself (relevances are
    fractions), discount 1/log2(rank + 1). An all-zero relevance vector
    scores 1.0 by convention: there is nothing to rank.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = np.asarray(relevance_in_ranked_order, dtype=np.float64)
    if rel.size == 0 or rel.max() <= 0:
        return 1.0
    discounts = 1.0 / np.log2(np.arange(2, min(k, rel.size) + 2))
    dcg = float((rel[:k] * discounts).sum())
    ideal = np.sort(rel)[::-1]
    idcg = float((ideal[:k] * discounts).sum())
    return dcg / idcg


def correlations(relevance: Sequence[float], scores: Sequence[float]) -> dict[str, float | None]:
    """Pearson and Spearman correlation; None for constant inputs."""
    x = np.asarray(relevance, dtype=np.float64)
    y = np.asarray(scores, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length vectors with >= 2 entries")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return {"pearson": None, "spearman": None}
    pearson = float(np.corrcoef(x, y)[0, 1])
    rx, ry = _average_ranks(x), _average_ranks(y)
    spearman = float(np.corrcoef(rx, ry)[0, 1])
    return {"pearson": pearson, "spearman": spearman}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, ties sharing the mean of their ranks (as
    ``scipy.stats.rankdata``). Tie group g spans ranks ``count[g-1] + 1`` to
    ``count[g]``, so its mean is exact in binary floating point."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new_group = np.r_[True, xs[1:] != xs[:-1]]
    dense = np.empty(len(x), dtype=np.intp)
    dense[order] = np.cumsum(new_group)
    count = np.r_[np.flatnonzero(new_group), len(x)]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def youden_sweep(results: Sequence[ExperimentResult], tau_grid: Sequence[float]) -> float:
    """Threshold maximizing J = TPR + TNR - 1; ties go to the larger tau."""
    if not tau_grid:
        raise ValueError("empty tau grid")
    best_tau, best_j = None, -np.inf
    for tau in sorted(tau_grid):
        scores = detection_scores(results, outcome=lambda r: r.detected_at(tau))
        tpr = 1.0 - (scores["fnr"] if scores["fnr"] is not None else 0.0)
        tnr = 1.0 - (scores["fpr"] if scores["fpr"] is not None else 0.0)
        j = tpr + tnr - 1.0
        if j >= best_j:
            best_j, best_tau = j, tau
    return float(best_tau)


# ---------------------------------------------------------------------------
# Experiment core: one batch loop, one baseline scorer, one job runner
# ---------------------------------------------------------------------------


def _monitor_batches(
    monitor: MonitorState,
    sgcat: SubgroupCatalog,
    P: Membership,
    alpha: np.ndarray,
    beta: np.ndarray,
    bounds: Sequence[tuple[int, int]],
) -> Iterator[tuple[Membership, DriftReport]]:
    """Step ``monitor`` through the batches ``bounds`` of one encoded stream
    (point matrix ``P`` and outcome vectors), yielding each batch's
    membership and report."""
    for b, (lo, hi) in enumerate(bounds):
        batch = EncodedBatch(P[lo:hi], alpha[lo:hi], beta[lo:hi], batch_id=b + 1)
        M = membership(batch, sgcat)
        yield M, step(monitor, aggregate(batch, M))


def _baselines_detected(
    errors: np.ndarray, kinds: Sequence[str], params: Mapping[str, Mapping] | None
) -> dict[str, bool]:
    """Whether each global baseline detector fires on the error stream."""
    params = params or {}
    return {kind: DRIFT in make_detector(kind, **params.get(kind, {})).run(errors) for kind in kinds}


def _run_jobs(jobs: Sequence[Callable], threads: int) -> list:
    """The results of the picklable zero-argument ``jobs``, in order, over
    ``threads`` worker processes when more than one."""
    if threads <= 1:
        return [job() for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # a one-thread run never loads it

    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Injection experiments
# ---------------------------------------------------------------------------


@dataclass
class InjectionExtras:
    """Final-state artifacts of one injection run, for explanation checks."""

    catalog: ItemCatalog
    sgcat: SubgroupCatalog
    final_report: DriftReport
    ref_stats: SubgroupStats
    cur_stats: SubgroupStats
    relevance: np.ndarray


def run_injection_experiment(
    cols: ColumnData,
    kind: str,
    seed: int,
    support_band: tuple[float, float] = (0.01, 0.05),
    p_max: float = 0.8,
    mining: MiningConfig = MiningConfig(0.01, max_len=3),
    bins: int = 4,
    window: int = 5,
    tau_t: float = 5.0,
    tree_depth: int = 8,
    n_batches: int = 30,
    baseline_kinds: Sequence[str] = ("ddm",),
    baseline_params: Mapping[str, Mapping] | None = None,
    n_random_rankings: int = 100,
    keep_state: bool = False,
    feature_matrix: np.ndarray | None = None,
) -> tuple[ExperimentResult, InjectionExtras | None]:
    """One shuffled train/test split with optional targeted label flips."""
    if kind not in ("positive", "negative"):
        raise ValueError("kind must be 'positive' or 'negative'")
    ss = np.random.SeedSequence([_INJECT_SALT, seed])
    rng = np.random.default_rng(ss)

    perm = rng.permutation(cols.n)
    half = cols.n // 2
    train_idx, test_idx = perm[:half], perm[half:]

    catalog = cols.build_catalog(train_idx, bins=bins)
    P_train = cols.point_matrix(train_idx, catalog)
    sgcat = mine_frequent(P_train, mining, item_attrs=catalog.item_attributes())

    X = cols.feature_matrix() if feature_matrix is None else feature_matrix
    model = fit_tree(X[train_idx], cols.y[train_idx], max_depth=tree_depth)
    y_hat = model.predict(X[test_idx])

    P_test = cols.point_matrix(test_idx, catalog)
    bounds = _even_bounds(len(test_idx), n_batches)
    y_test = cols.y[test_idx].copy()

    target_support = None
    target_items: tuple[int, ...] | None = None
    mask = np.zeros(len(test_idx), dtype=bool)
    if kind == "positive":
        lo, hi = support_band
        support = sgcat.supports()
        band = np.flatnonzero((lo <= support) & (support <= hi))
        band = band[band > 0]  # not the global subgroup
        if not len(band):
            raise ValueError(f"no mined subgroup has support in [{lo}, {hi}]")
        target = sgcat.subgroup(int(band[int(rng.integers(len(band)))]))
        target_support = target.support
        target_items = target.item_ids
        schedule = DriftSchedule(target_subgroup=target.item_ids, p_max=p_max)
        cover = _target_cover(P_test, target.item_ids)
        y_test, mask = _inject_flips_columns(y_test, cover, bounds, schedule, seed)

    alpha = (y_test == y_hat).astype(np.int64)
    beta = 1 - alpha

    monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(window, tau_t))
    # altered counts of the scored batches, as many as the current window
    # holds; a negative experiment alters no label, so it counts none
    altered_ring: deque[np.ndarray] = deque(maxlen=window)
    batch_max_t: list[float] = []
    detected = False
    final_report = None
    batches = _monitor_batches(monitor, sgcat, P_test, alpha, beta, bounds)
    for (blo, bhi), (M, report) in zip(bounds, batches):
        if not report.warming_up:
            batch_max_t.append(report.max_t())
            detected = detected or report.global_drift
            final_report = report
            if kind == "positive":
                altered_ring.append(M.count(mask[blo:bhi]))

    result = ExperimentResult(
        kind=kind,
        detected=detected,
        batch_max_t=batch_max_t,
        seed=seed,
        target_support=target_support,
        target_items=target_items,
        baseline_detected=_baselines_detected(beta, baseline_kinds, baseline_params),
    )

    extras = None
    relevance = None
    if kind == "positive" and final_report is not None:
        # every instance has alpha + beta = 1, so their sum is the member count
        cur = monitor.current_stats()
        member = cur.alpha_counts + cur.beta_counts
        altered = np.sum(altered_ring, axis=0)
        relevance = altered / np.maximum(member, 1)  # 0 where no member: altered <= member
        t = final_report.t_values
        order = np.lexsort((np.arange(len(t)), -t))
        result.ndcg_at_10 = ndcg_at_k(relevance[order], 10)
        result.random_ndcg_samples = [
            ndcg_at_k(rng.permutation(relevance), 10) for _ in range(n_random_rankings)
        ]
        cors = correlations(relevance, t)
        result.pearson = cors["pearson"]
        result.spearman = cors["spearman"]

    if keep_state and final_report is not None:
        extras = InjectionExtras(
            catalog=catalog,
            sgcat=sgcat,
            final_report=final_report,
            ref_stats=monitor.reference_stats,
            cur_stats=monitor.current_stats(),
            relevance=relevance if relevance is not None else np.zeros(len(sgcat)),
        )
    return result, extras


def run_injection_suite(
    cols: ColumnData,
    n_positive: int = 20,
    n_negative: int = 20,
    seed: int = 0,
    threads: int = 1,
    **kwargs,
) -> tuple[list[ExperimentResult], InjectionExtras | None]:
    """Run a balanced injection suite over a labeled table; extras come from
    the first positive."""
    X = cols.feature_matrix()
    jobs = [("positive", seed * 10007 + i) for i in range(n_positive)]
    jobs += [("negative", seed * 10007 + n_positive + i) for i in range(n_negative)]
    runs = _run_jobs(
        [
            partial(run_injection_experiment, cols, kind, s, keep_state=(i == 0), feature_matrix=X, **kwargs)
            for i, (kind, s) in enumerate(jobs)
        ],
        threads,
    )
    return [r for r, _ in runs], runs[0][1] if runs else None


# ---------------------------------------------------------------------------
# Concept-drift experiments on synthetic streams
# ---------------------------------------------------------------------------

_CONCEPT_POOL = {"agrawal": 10, "sea": 4, "led": 8, "hyperplane": 8}


def run_concept_experiment(
    generator: str,
    kind: str,
    seed: int,
    mining: MiningConfig = MiningConfig(0.05, max_len=3),
    bins: int = 4,
    window: int = 5,
    tau_t: float = 5.0,
    tree_depth: int = 5,
    train_size: int = 5000,
    n_batches: int = 50,
    batch_size: int = 200,
    label_noise: float = 0.10,
    drift_center: int = 5000,
    drift_width: int = 1000,
    baseline_kinds: Sequence[str] = (),
    baseline_params: Mapping[str, Mapping] | None = None,
    keep_reports: bool = False,
    min_disagreement: float = 0.10,
) -> ExperimentResult:
    """One synthetic stream experiment: drift (positive) or stationary."""
    if kind not in ("positive", "negative"):
        raise ValueError("kind must be 'positive' or 'negative'")
    rng = np.random.default_rng(np.random.SeedSequence([_CONCEPT_SALT, seed]))
    pool = _CONCEPT_POOL[generator]
    concept_a = int(rng.integers(pool))
    if kind == "positive":
        # a positive experiment must contain a material drift: resample pairs
        # until the concepts disagree on at least min_disagreement of labels
        for _ in range(200):
            concept_b = int(rng.integers(pool - 1))
            concept_b += concept_b >= concept_a
            if concept_disagreement(generator, concept_a, concept_b, seed=seed) >= min_disagreement:
                break
            concept_a = int(rng.integers(pool))
        else:
            raise ValueError(
                f"no {generator} concept pair reaches disagreement {min_disagreement}"
            )
    else:
        concept_b = concept_a

    config = ConceptStreamConfig(
        generator=generator,
        concept_a=concept_a,
        concept_b=concept_b,
        drift_center=drift_center,
        drift_width=drift_width,
        label_noise=label_noise,
        train_size=train_size,
        n_batches=n_batches,
        batch_size=batch_size,
        seed=seed,
    )
    train, stream = gen_concept_stream(config)

    cat_attrs = frozenset(
        name for name, kind_ in zip(train.feature_names, train.feature_kinds) if kind_ == "categorical"
    )
    train_cols = ColumnData.from_columns(train.columns(), categorical=cat_attrs)
    stream_cols = ColumnData.from_columns(stream.columns(), categorical=cat_attrs)
    train_idx = np.arange(train_cols.n)
    catalog = train_cols.build_catalog(train_idx, bins=bins)
    P_train = train_cols.point_matrix(train_idx, catalog)
    sgcat = mine_frequent(P_train, mining, item_attrs=catalog.item_attributes())

    model = fit_tree(train.X, train.y, max_depth=tree_depth)
    alpha = (stream.y == model.predict(stream.X)).astype(np.int64)
    beta = 1 - alpha
    P = stream_cols.point_matrix(np.arange(stream_cols.n), catalog)
    bounds = [(b * batch_size, (b + 1) * batch_size) for b in range(n_batches)]

    monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(window, tau_t))
    batch_max_t: list[float] = []
    detected = False
    writer = ReportWriter(sgcat)
    report_lines: list[str] = []
    for _, report in _monitor_batches(monitor, sgcat, P, alpha, beta, bounds):
        if not report.warming_up:
            batch_max_t.append(report.max_t())
            detected = detected or report.global_drift
        if keep_reports:
            report_lines.append(writer.line(report))

    return ExperimentResult(
        kind=kind,
        detected=detected,
        batch_max_t=batch_max_t,
        seed=seed,
        baseline_detected=_baselines_detected(beta, baseline_kinds, baseline_params),
        report_jsonl="\n".join(report_lines) if keep_reports else None,
    )


def run_concept_suite(
    generator: str,
    n_positive: int = 20,
    n_negative: int = 20,
    seed: int = 0,
    threads: int = 1,
    **kwargs,
) -> list[ExperimentResult]:
    jobs = [("positive", seed * 20011 + i) for i in range(n_positive)]
    jobs += [("negative", seed * 20011 + n_positive + i) for i in range(n_negative)]
    return _run_jobs([partial(run_concept_experiment, generator, kind, s, **kwargs) for kind, s in jobs], threads)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def timing_bench(
    sgcat: SubgroupCatalog,
    batches: Sequence[EncodedBatch],
    detector_kinds: Sequence[str] = ("ddm",),
    detector_params: Mapping[str, Mapping] | None = None,
    reps: int = 5,
    window: int = 5,
    tau_t: float = 5.0,
) -> dict[str, dict[str, float]]:
    """Median per-batch wall time: the bitmap pipeline vs one detector/subgroup.

    Both sides start from the same encoded batches. The bitmap pipeline is
    timed over bitmap membership + count aggregation + detection. Each
    per-subgroup baseline is timed over its own full pipeline: selecting the
    subgroup's member instances (direct subset checks, the way per-subgroup
    detectors are run without shared membership) and updating that
    subgroup's detector per member error. Medians over ``reps`` repetitions,
    plus the same figure normalized by sample count.
    """
    detector_params = dict(detector_params or {})
    n_samples = sum(b.n_instances for b in batches)

    pipeline_times = []
    for _ in range(max(reps, 1)):
        monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(window, tau_t))
        t0 = time.perf_counter()
        for batch in batches:
            M = membership(batch, sgcat)
            stats = aggregate(batch, M)
            step(monitor, stats)
        pipeline_times.append((time.perf_counter() - t0) / len(batches))

    out = {
        "driftscope": {
            "seconds_per_batch": float(np.median(pipeline_times)),
            "seconds_per_sample": float(np.median(pipeline_times)) * len(batches) / n_samples,
        }
    }

    # shared, untimed representation prep for the baselines (mirrors the
    # untimed EncodedBatch construction on the bitmap side)
    prepared = []
    for batch in batches:
        instance_items = [
            frozenset(np.flatnonzero(row).tolist()) for row in batch.point_matrix.toarray()
        ]
        prepared.append((instance_items, [int(e) for e in batch.beta_vec]))
    subgroup_sets = [frozenset(sg.item_ids) for sg in sgcat.subgroups]

    for kind in detector_kinds:
        params = detector_params.get(kind, {})
        times = []
        for _ in range(max(reps, 1)):
            detectors = [make_detector(kind, **params) for _ in range(len(sgcat))]
            t0 = time.perf_counter()
            for instance_items, errs in prepared:
                for j, items in enumerate(subgroup_sets):
                    update = detectors[j].update
                    if not items:
                        for e in errs:
                            update(e)
                        continue
                    for iset, e in zip(instance_items, errs):
                        if items <= iset:
                            update(e)
            times.append((time.perf_counter() - t0) / len(batches))
        out[kind] = {
            "seconds_per_batch": float(np.median(times)),
            "seconds_per_sample": float(np.median(times)) * len(batches) / n_samples,
        }
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize_suite(results: Sequence[ExperimentResult], method: str = "driftscope") -> dict:
    """Detection scores plus ranking-metric means and stds for one suite."""
    if method == "driftscope":
        scores = detection_scores(results)
    else:
        scores = detection_scores(results, outcome=lambda r: r.baseline_detected.get(method, False))
    summary: dict = {"method": method, **scores}
    if method == "driftscope":
        ndcgs = [r.ndcg_at_10 for r in results if r.ndcg_at_10 is not None]
        rand = [v for r in results for v in r.random_ndcg_samples]
        pearsons = [r.pearson for r in results if r.pearson is not None]
        spearmans = [r.spearman for r in results if r.spearman is not None]
        if ndcgs:
            summary["ndcg10_mean"] = float(np.mean(ndcgs))
            summary["ndcg10_std"] = float(np.std(ndcgs))
        if rand:
            summary["random_ndcg10_mean"] = float(np.mean(rand))
            summary["random_ndcg10_std"] = float(np.std(rand))
        if pearsons:
            summary["pearson_mean"] = float(np.mean(pearsons))
        if spearmans:
            summary["spearman_mean"] = float(np.mean(spearmans))
    return summary
