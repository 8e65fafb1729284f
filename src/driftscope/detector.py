"""Window management and per-subgroup statistical drift detection.

The first W batches after deployment freeze a reference window. Every later
batch is pushed into a ring of the most recent W batch stats (the current
window). Per subgroup, the true metric value given (alpha, beta) counts is
Beta(alpha+1, beta+1) distributed; drift significance is the Welch statistic

    t = |mu_ref - mu_cur| / sqrt(nu_ref + nu_cur)

over the posterior means and variances, which is well defined even at zero
counts thanks to the +1 smoothing. A subgroup drifts when t exceeds tau_t,
and the batch is globally drifting when at least one subgroup drifts. No
multiple-testing correction is applied to the raw t threshold; see README.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Mapping

import numpy as np

from .catalog import DataError, atomic_open, read_json
from .mining import SubgroupCatalog
from .sgmetrics import SubgroupStats, _json_count, performance_vector

__all__ = [
    "WindowConfig",
    "MonitorState",
    "DriftReport",
    "ReportWriter",
    "beta_posterior",
    "welch_t",
    "score_windows",
    "step",
    "DEFAULT_TAU_T",
]

DEFAULT_TAU_T = 5.0
_NO_COUNTS = SubgroupStats(np.zeros((), np.int64), np.zeros((), np.int64), 0)  # the sum of no batches


def beta_posterior(alpha_count, beta_count):
    """Mean and variance of the Beta(alpha+1, beta+1) posterior.

    Accepts scalars (giving numpy float64 scalars) or numpy arrays. With zero
    counts this is the uniform prior: mean 1/2, variance 1/12.
    """
    a = np.asarray(alpha_count, dtype=np.float64)
    b = np.asarray(beta_count, dtype=np.float64)
    n2 = a + b + 2.0
    mu = (a + 1.0) / n2
    nu = (a + 1.0) * (b + 1.0) / (n2 * n2 * (a + b + 3.0))
    return mu, nu


def welch_t(ref, cur):
    """Welch statistic between two (mean, variance) posterior summaries,
    scalars or arrays of one shape."""
    mu_r, nu_r = ref
    mu_c, nu_c = cur
    return np.abs(mu_r - mu_c) / np.sqrt(nu_r + nu_c)


@dataclass(frozen=True)
class WindowConfig:
    """A run's window rule: W batches per window (the reference is the first W),
    the finite t threshold, and the reference outcomes a subgroup needs to be
    flagged."""

    window_batches: int = 5
    tau_t: float = DEFAULT_TAU_T
    min_count: int = 0

    def __post_init__(self) -> None:
        # the ranges of monitor's --window, --tau-t and --min-count
        rules = (("window_batches", Integral, int, 1), ("tau_t", Real, float, 0), ("min_count", Integral, int, 0))
        for name, kind, cast, least in rules:
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool) or value != value:
                raise ValueError(f"{name} must be {'a number' if cast is float else 'an integer'}, got {value!r}")
            if cast is float and not math.isfinite(value):  # JSON has no infinity
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
            object.__setattr__(self, name, cast(value))  # a plain Python number, as JSON holds it


@dataclass
class DriftReport:
    """Per-batch monitoring output: per-subgroup statistics and flags.

    Vectors are indexed by subgroup; h and delta values are NaN where
    undefined. ``warming_up`` reports (emitted while the reference window is
    still accumulating) carry no statistics and no flags.
    """

    batch_id: int
    warming_up: bool
    global_drift: bool
    tau_t: float
    h_ref: np.ndarray = field(default_factory=lambda: np.empty(0))
    h_cur: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta_h: np.ndarray = field(default_factory=lambda: np.empty(0))
    mu_ref: np.ndarray = field(default_factory=lambda: np.empty(0))
    mu_cur: np.ndarray = field(default_factory=lambda: np.empty(0))
    t_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    drifted: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    @property
    def n_subgroups(self) -> int:
        return len(self.t_values)

    def drifted_indices(self) -> np.ndarray:
        return np.flatnonzero(self.drifted)

    def max_t(self) -> float:
        return float(self.t_values.max()) if self.n_subgroups else 0.0

    def retained_indices(self, top_k: int = 100) -> np.ndarray:
        """Flagged subgroups plus the top-k by t, for bounded persistence.

        The top k are the first k in order of descending t, ties by
        ascending index; returned as ascending indices.
        """
        if self.warming_up or self.n_subgroups == 0:
            return np.empty(0, dtype=np.int64)
        keep = self.drifted.astype(bool)
        k = min(max(top_k, 0), self.n_subgroups)
        if k:
            kth = np.partition(self.t_values, -k)[-k]  # the k-th largest t
            ahead = self.t_values > kth
            keep |= ahead
            tied = np.flatnonzero(self.t_values == kth)
            keep[tied[: k - int(ahead.sum())]] = True
        return np.flatnonzero(keep).astype(np.int64)

    def to_dict(self, catalog: SubgroupCatalog, top_k: int = 100) -> dict:
        """The report as its JSON object: the header fields and the retained
        subgroups' rows (NaN as None), as :class:`ReportWriter` writes it."""
        return json.loads(ReportWriter(catalog, top_k).line(self))


class ReportWriter:
    """One run's report-line writer: ``line(report)`` is
    ``json.dumps(report.to_dict(catalog, top_k), sort_keys=True)``.

    A retained subgroup's fields that never change within a run (``items``,
    ``subgroup_id`` and ``support``) are formatted once, the first time it is
    retained, so the cache holds at most one text per subgroup. Per row only
    ``delta_h``, ``drifted``, ``h_cur``, ``h_ref`` and ``t`` are formatted,
    one column at a time by :func:`json.dumps`.
    """

    def __init__(self, catalog: SubgroupCatalog, top_k: int = 100):
        self.catalog = catalog
        self.top_k = top_k
        self._fixed: dict[int, str] = {}

    def _fixed_texts(self, indices: list[int]) -> list[str]:
        fixed = self._fixed
        new = [j for j in indices if j not in fixed]
        if new:
            supports = self.catalog.supports()[new].tolist()
            for j, items, s in zip(new, self.catalog.items_of(new), supports):
                # the label is digits and commas or "(global)", so json.dumps
                # escapes nothing in it
                label = ",".join(map(str, items)) or "(global)"
                fixed[j] = json.dumps({"items": label, "subgroup_id": j, "support": s}, sort_keys=True)[1:-1]
        return [fixed[j] for j in indices]

    def line(self, report: DriftReport) -> str:
        """The report's JSON line (no newline): keys sorted, NaN as null."""
        idx = report.retained_indices(self.top_k)
        columns = zip(
            _texts(_nullable(report.delta_h[idx])),
            _texts(report.drifted[idx].astype(bool).tolist()),
            _texts(_nullable(report.h_cur[idx])),
            _texts(_nullable(report.h_ref[idx])),
            self._fixed_texts(idx.tolist()),
            _texts(report.t_values[idx].tolist()),
        )
        rows = ", ".join(
            f'{{"delta_h": {d}, "drifted": {f}, "h_cur": {c}, "h_ref": {r}, {fixed}, "t": {t}}}'
            for d, f, c, r, fixed, t in columns
        )
        max_t = None if report.warming_up else report.max_t()
        head = json.dumps({"batch_id": report.batch_id, "global_drift": report.global_drift, "max_t": max_t})
        tail = json.dumps({"tau_t": report.tau_t, "warming_up": report.warming_up})
        return f'{head[:-1]}, "subgroups": [{rows}], {tail[1:]}'


def _nullable(values: np.ndarray) -> list[float | None]:
    """The values as Python floats, NaN as None."""
    return [None if x != x else x for x in values.tolist()]


def _texts(values: list) -> list[str]:
    """The JSON text of each value, as ``json.dumps`` writes it in a list
    (a JSON number, null, true or false holds no ", ")."""
    return json.dumps(values)[1:-1].split(", ") if values else []


@dataclass
class MonitorState:
    """Single-writer state of one monitored stream under one window rule.

    ``current_ring`` holds the most recent W batch stats, and :meth:`push`
    keeps their sum. Until the reference is frozen those are the warm-up
    batches; at the W-th their sum becomes ``reference_stats`` and the ring
    empties. ``catalog_sha256`` fingerprints the stream's catalog artifact.
    """

    n_subgroups: int
    config: WindowConfig = field(default_factory=WindowConfig)
    reference_stats: SubgroupStats | None = None
    current_ring: deque = field(init=False)
    batches_seen: int = 0
    catalog_sha256: str | None = None
    _window: SubgroupStats = field(default=_NO_COUNTS, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.current_ring = deque(maxlen=self.config.window_batches)

    @property
    def reference_frozen(self) -> bool:
        return self.reference_stats is not None

    def push(self, batch: SubgroupStats) -> None:
        """The one window update: the batch enters the ring and the exact int64 sum, a full ring's
        oldest batch leaves both, and the W-th warm-up batch freezes the sum as the reference."""
        if batch.n_subgroups != self.n_subgroups:
            raise ValueError("batch stats subgroup count does not match the monitor")
        ring, w = self.current_ring, self._window
        gone = ring[0] if len(ring) == ring.maxlen else _NO_COUNTS
        ring.append(batch)
        self._window = SubgroupStats(  # a new sum: no stats handed out ever change
            w.alpha_counts + batch.alpha_counts - gone.alpha_counts,
            w.beta_counts + batch.beta_counts - gone.beta_counts,
            w.n_instances + batch.n_instances - gone.n_instances,
        )
        if not self.reference_frozen and len(ring) == ring.maxlen:
            self.reference_stats, self._window = self._window, _NO_COUNTS
            ring.clear()

    def current_stats(self) -> SubgroupStats:
        if not self.current_ring:
            raise ValueError("the current window holds no batch")
        return self._window

    def score(self) -> DriftReport:
        """The frozen reference against the current window, under the run's rule."""
        c = self.config
        return score_windows(self.reference_stats, self.current_stats(), c.tau_t, c.min_count, self.batches_seen)

    def to_dict(self) -> dict:
        return {
            "version": 3,
            "catalog_sha256": self.catalog_sha256,
            "n_subgroups": self.n_subgroups,
            "window_batches": self.config.window_batches,
            "tau_t": self.config.tau_t,
            "min_count": self.config.min_count,
            "batches_seen": self.batches_seen,
            "reference_stats": self.reference_stats.to_dict() if self.reference_stats else None,
            "current_ring": [s.to_dict() for s in self.current_ring],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MonitorState":
        """The state ``to_dict`` wrote; :meth:`load` names the file in any error."""
        if not isinstance(d, Mapping):
            raise DataError("not a JSON object")
        version = d.get("version")
        if version != 3 or "catalog_sha256" not in d:
            why = f"unsupported version {version!r}, expected 3" if version != 3 else "no catalog_sha256"
            raise DataError(f"{why}; re-run `driftscope monitor` to write it")
        sha = d["catalog_sha256"]  # null in a state built by the library
        if sha is not None and not (isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha)):
            raise DataError(f"catalog_sha256 must be null or 64 lowercase hex digits, got {sha!r}")
        config = WindowConfig(d["window_batches"], d["tau_t"], d["min_count"])
        n_subgroups = _json_count(d["n_subgroups"], "n_subgroups")
        state = cls(n_subgroups=n_subgroups, config=config, catalog_sha256=sha)
        state.batches_seen = _json_count(d["batches_seen"], "batches_seen")
        if d["reference_stats"] is not None:
            state.reference_stats = SubgroupStats.from_dict(d["reference_stats"], "reference_stats")
        ring = [SubgroupStats.from_dict(s, f"current_ring[{i}]") for i, s in enumerate(d["current_ring"])]
        # the W-th warm-up batch freezes the reference and empties the ring
        w, reference = config.window_batches, "set" if state.reference_frozen else "null"
        most = w - (not state.reference_frozen)
        if len(ring) > most:
            raise DataError(
                f"current_ring holds {len(ring)} batches, more than {most} at window_batches "
                f"{w} with reference_stats {reference}"
            )
        # what step leaves: every batch while warming up, then the last W after the W-th
        left = min(w, state.batches_seen - w) if state.reference_frozen else state.batches_seen
        if len(ring) != left:
            raise DataError(
                f"batches_seen {state.batches_seen} does not match current_ring's {len(ring)} batches "
                f"at window_batches {w} with reference_stats {reference}"
            )
        parts = [*ring, state.reference_stats]
        wrong = {s.n_subgroups for s in parts if s is not None} - {state.n_subgroups}
        if wrong:
            raise DataError(f"count vector length {min(wrong)} != n_subgroups {state.n_subgroups}")
        for batch in ring:
            state.push(batch)
        return state

    def save(self, path) -> None:
        """Write the state as JSON, atomically: a failed save leaves any
        previous file at ``path`` as it was."""
        # one write of the whole text: json.dump's many small writes take ~4x longer
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "MonitorState":
        """The state saved at ``path``; any fault in it is a DataError naming the file."""
        return read_json(path, "monitor state", cls.from_dict)


def score_windows(
    ref: SubgroupStats,
    cur: SubgroupStats,
    tau_t: float = DEFAULT_TAU_T,
    min_count: int = 0,
    batch_id: int = 0,
) -> DriftReport:
    """Score a (reference, current) window pair over every subgroup."""
    mu_r, nu_r = beta_posterior(ref.alpha_counts, ref.beta_counts)
    mu_c, nu_c = beta_posterior(cur.alpha_counts, cur.beta_counts)
    t = welch_t((mu_r, nu_r), (mu_c, nu_c))

    h_r = performance_vector(ref)
    h_c = performance_vector(cur)
    delta = h_r - h_c  # NaN propagates where either side is undefined

    eligible = (ref.alpha_counts + ref.beta_counts) >= min_count
    drifted = eligible & (t > tau_t)

    return DriftReport(
        batch_id=batch_id,
        warming_up=False,
        global_drift=bool(drifted.any()),
        tau_t=tau_t,
        h_ref=h_r,
        h_cur=h_c,
        delta_h=delta,
        mu_ref=mu_r,
        mu_cur=mu_c,
        t_values=t,
        drifted=drifted,
    )


def step(monitor: MonitorState, batch_stats: SubgroupStats) -> DriftReport:
    """Advance the monitor by one batch and report drift.

    The batch enters the window by :meth:`MonitorState.push`. Until the
    reference is frozen the report is a warming-up one (no statistics, no
    flags). After that, :meth:`MonitorState.score`.
    """
    monitor.push(batch_stats)
    monitor.batches_seen += 1
    if monitor.reference_frozen and monitor.current_ring:
        return monitor.score()
    return DriftReport(
        batch_id=monitor.batches_seen, warming_up=True, global_drift=False, tau_t=monitor.config.tau_t
    )
