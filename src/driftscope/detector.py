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
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .catalog import DataError
from .mining import SubgroupCatalog
from .sgmetrics import SubgroupStats, merge, performance_vector

__all__ = [
    "WindowConfig",
    "MonitorState",
    "DriftReport",
    "beta_posterior",
    "welch_t",
    "drift_delta",
    "score_windows",
    "step",
    "DEFAULT_TAU_T",
]

DEFAULT_TAU_T = 5.0


def beta_posterior(alpha_count, beta_count):
    """Mean and variance of the Beta(alpha+1, beta+1) posterior.

    Accepts scalars or numpy arrays. With zero counts this is the uniform
    prior: mean 1/2, variance 1/12.
    """
    a = np.asarray(alpha_count, dtype=np.float64)
    b = np.asarray(beta_count, dtype=np.float64)
    n2 = a + b + 2.0
    mu = (a + 1.0) / n2
    nu = (a + 1.0) * (b + 1.0) / (n2 * n2 * (a + b + 3.0))
    if np.isscalar(alpha_count) or np.ndim(alpha_count) == 0:
        return float(mu), float(nu)
    return mu, nu


def welch_t(ref: tuple[float, float], cur: tuple[float, float]) -> float:
    """Welch statistic between two (mean, variance) posterior summaries."""
    mu_r, nu_r = ref
    mu_c, nu_c = cur
    return abs(mu_r - mu_c) / float(np.sqrt(nu_r + nu_c))


def drift_delta(ref: SubgroupStats, cur: SubgroupStats, j: int) -> float | None:
    """h_ref - h_cur for subgroup j; None when either side is undefined."""
    ar, br = int(ref.alpha_counts[j]), int(ref.beta_counts[j])
    ac, bc = int(cur.alpha_counts[j]), int(cur.beta_counts[j])
    if ar + br == 0 or ac + bc == 0:
        return None
    return ar / (ar + br) - ac / (ac + bc)


@dataclass(frozen=True)
class WindowConfig:
    """Number of batches per window; the reference is the first W batches."""

    window_batches: int = 5

    def __post_init__(self) -> None:
        if self.window_batches < 1:
            raise ValueError("window_batches must be >= 1")


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
    nu_ref: np.ndarray = field(default_factory=lambda: np.empty(0))
    nu_cur: np.ndarray = field(default_factory=lambda: np.empty(0))
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
        """Flagged subgroups plus the top-k by t, for bounded persistence."""
        if self.warming_up or self.n_subgroups == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((np.arange(self.n_subgroups), -self.t_values))
        keep = set(order[:top_k].tolist()) | set(self.drifted_indices().tolist())
        return np.array(sorted(keep), dtype=np.int64)

    def rows(
        self,
        catalog: SubgroupCatalog,
        indices: np.ndarray | None = None,
    ) -> Iterator[dict]:
        """Serializable per-subgroup rows (NaN mapped to None)."""
        if indices is None:
            indices = np.arange(self.n_subgroups)

        def val(x: float) -> float | None:
            return None if np.isnan(x) else float(x)

        for j in indices:
            j = int(j)
            sg = catalog.subgroups[j]
            yield {
                "subgroup_id": j,
                "items": sg.label(),
                "support": sg.support,
                "h_ref": val(self.h_ref[j]),
                "h_cur": val(self.h_cur[j]),
                "delta_h": val(self.delta_h[j]),
                "t": float(self.t_values[j]),
                "drifted": bool(self.drifted[j]),
            }

    def to_dict(self, catalog: SubgroupCatalog, top_k: int = 100) -> dict:
        return {
            "batch_id": self.batch_id,
            "warming_up": self.warming_up,
            "global_drift": self.global_drift,
            "tau_t": self.tau_t,
            "max_t": self.max_t() if not self.warming_up else None,
            "subgroups": list(self.rows(catalog, self.retained_indices(top_k))),
        }


@dataclass
class MonitorState:
    """Single-writer state of one monitored stream.

    The reference window accumulates the first ``window_batches`` batch stats
    and is then frozen; ``current_ring`` holds the most recent W batch stats.
    """

    n_subgroups: int
    config: WindowConfig = field(default_factory=WindowConfig)
    reference_parts: list[SubgroupStats] = field(default_factory=list)
    reference_stats: SubgroupStats | None = None
    current_ring: deque = field(default_factory=deque)
    batches_seen: int = 0

    @property
    def reference_frozen(self) -> bool:
        return self.reference_stats is not None

    def current_stats(self) -> SubgroupStats:
        return merge(list(self.current_ring), n_subgroups=self.n_subgroups)

    def reset_reference(self) -> None:
        """Discard the frozen reference and re-anchor on upcoming batches.

        Never triggered automatically: re-anchoring after a confirmed drift is
        an operator decision.
        """
        self.reference_parts = []
        self.reference_stats = None
        self.current_ring.clear()
        self.batches_seen = 0

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n_subgroups": self.n_subgroups,
            "window_batches": self.config.window_batches,
            "batches_seen": self.batches_seen,
            "reference_parts": [s.to_dict() for s in self.reference_parts],
            "reference_stats": self.reference_stats.to_dict() if self.reference_stats else None,
            "current_ring": [s.to_dict() for s in self.current_ring],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MonitorState":
        if d.get("version") != 1:
            raise DataError(f"unsupported monitor state version {d.get('version')!r}, expected 1")
        state = cls(
            n_subgroups=int(d["n_subgroups"]),
            config=WindowConfig(window_batches=int(d["window_batches"])),
        )
        state.batches_seen = int(d["batches_seen"])
        state.reference_parts = [SubgroupStats.from_dict(s) for s in d["reference_parts"]]
        if d["reference_stats"] is not None:
            state.reference_stats = SubgroupStats.from_dict(d["reference_stats"])
        state.current_ring = deque(
            SubgroupStats.from_dict(s) for s in d["current_ring"]
        )
        parts = [*state.reference_parts, *state.current_ring, state.reference_stats]
        wrong = {s.n_subgroups for s in parts if s is not None} - {state.n_subgroups}
        if wrong:
            raise DataError(
                f"monitor state count vector length {min(wrong)} != n_subgroups {state.n_subgroups}"
            )
        return state

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "MonitorState":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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
    t = np.abs(mu_r - mu_c) / np.sqrt(nu_r + nu_c)

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
        nu_ref=nu_r,
        nu_cur=nu_c,
        t_values=t,
        drifted=drifted,
    )


def step(
    monitor: MonitorState,
    batch_stats: SubgroupStats,
    tau_t: float = DEFAULT_TAU_T,
    min_count: int = 0,
) -> DriftReport:
    """Advance the monitor by one batch and report drift.

    While fewer than W batches have been seen, the batch joins the reference
    window and a warming-up report (no statistics, no flags) is returned.
    Afterwards the batch enters the current ring and every subgroup is scored;
    subgroups are only eligible for flagging when their reference window holds
    at least ``min_count`` outcomes (default 0: all subgroups, since the
    posterior is defined at zero counts).
    """
    if batch_stats.n_subgroups != monitor.n_subgroups:
        raise ValueError("batch stats subgroup count does not match the monitor")
    W = monitor.config.window_batches
    monitor.batches_seen += 1
    batch_id = monitor.batches_seen

    if not monitor.reference_frozen:
        monitor.reference_parts.append(batch_stats)
        if len(monitor.reference_parts) == W:
            monitor.reference_stats = merge(monitor.reference_parts)
            monitor.reference_parts = []
        return DriftReport(
            batch_id=batch_id, warming_up=True, global_drift=False, tau_t=tau_t
        )

    monitor.current_ring.append(batch_stats)
    while len(monitor.current_ring) > W:
        monitor.current_ring.popleft()

    return score_windows(
        monitor.reference_stats,
        monitor.current_stats(),
        tau_t=tau_t,
        min_count=min_count,
        batch_id=batch_id,
    )
