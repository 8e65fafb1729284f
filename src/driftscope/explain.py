"""Ranking, summarization, and attribution of drifting subgroups.

Subgroups are ranked by the significance statistic t. Redundancy pruning
collapses chains of near-duplicate refinements onto their most general
surviving ancestors. Shapley values attribute a subgroup's performance
divergence to its constituent items exactly: the values of all 2^k item
coalitions times one (2^k x k) weight matrix (itemsets are short, so this is
cheap). Across a catalog, the coalitions of every length-k subgroup are
looked up at once in the catalog's length-k table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .detector import DriftReport
from .mining import Subgroup, SubgroupCatalog
from .sgmetrics import EncodedBatch, SubgroupStats, aggregate, membership, merge

__all__ = [
    "RankedEntry",
    "RankedReport",
    "ItemAttribution",
    "rank",
    "redundancy_prune",
    "shapley_local",
    "shapley_global",
    "make_drift_value_fn",
]

MAX_EXACT_ITEMS = 12


@dataclass(frozen=True)
class RankedEntry:
    subgroup: Subgroup
    t: float
    delta_h: float | None


@dataclass(frozen=True)
class RankedReport:
    """Subgroups in a stable total order: t desc, |delta_h| desc, items asc."""

    entries: tuple[RankedEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _sort_key(e: RankedEntry):
    mag = abs(e.delta_h) if e.delta_h is not None else -1.0
    return (-e.t, -mag, e.subgroup.item_ids)


def rank(report: DriftReport, catalog: SubgroupCatalog, top_k: int | None = None) -> RankedReport:
    """Order all subgroups by drift significance; ``top_k`` truncates."""
    if report.warming_up or report.n_subgroups != len(catalog):
        raise ValueError("ranking requires a scored (non-warming) report for this catalog")
    entries = []
    for sg in catalog.subgroups:
        d = report.delta_h[sg.index]
        entries.append(
            RankedEntry(
                subgroup=sg,
                t=float(report.t_values[sg.index]),
                delta_h=None if np.isnan(d) else float(d),
            )
        )
    entries.sort(key=_sort_key)
    if top_k is not None:
        entries = entries[:top_k]
    return RankedReport(entries=tuple(entries))


def redundancy_prune(ranked: RankedReport, t_threshold: float) -> RankedReport:
    """Drop refinements whose t is explained by a more general subgroup.

    Entries are visited from the most general (shortest itemset) down. An
    entry is pruned when some *surviving* strict subset of it has a t-value
    within ``t_threshold`` of its own; the more general subgroup already
    carries the signal, and comparing against survivors collapses transitive
    chains while guaranteeing every pruned itemset has a surviving ancestor
    within the threshold. A threshold of 0 prunes nothing. The result is
    re-sorted by the ranking order.
    """
    order = sorted(ranked.entries, key=lambda e: (len(e.subgroup.item_ids),) + _sort_key(e))
    survivors: list[tuple[frozenset[int], float, RankedEntry]] = []
    for e in order:
        items = frozenset(e.subgroup.item_ids)
        pruned = any(
            s_items < items and abs(s_t - e.t) < t_threshold
            for s_items, s_t, _ in survivors
        )
        if not pruned:
            survivors.append((items, e.t, e))
    kept = sorted((e for _, _, e in survivors), key=_sort_key)
    return RankedReport(entries=tuple(kept))


@dataclass(frozen=True)
class ItemAttribution:
    """Signed per-item contribution values, in the units of delta_h."""

    values: Mapping[int, float]

    def top(self, k: int | None = None) -> list[tuple[int, float]]:
        pairs = sorted(self.values.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
        return pairs if k is None else pairs[:k]


def _coalitions(k: int) -> np.ndarray:
    """``(2^k, k)`` booleans: row ``mask`` holds item i iff bit i of ``mask`` is set."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1 == 1


def _shapley_weights(k: int) -> np.ndarray:
    """``(2^k, k)`` W with exact Shapley values ``phi = v @ W``, ``v[mask]`` the
    value of coalition ``mask`` of :func:`_coalitions`: column i weighs each
    marginal ``v(T + {i}) - v(T)`` by |T|!(k-|T|-1)!/k!."""
    member = _coalitions(k)
    size = member.sum(axis=1)
    fact = [math.factorial(s) for s in range(k + 1)]
    # w[|T|]; the padding 0 keeps w[size] and w[size - 1] in range for the full
    # and the empty coalition, entries np.where evaluates but never picks
    w = np.array([fact[s] * fact[k - s - 1] / fact[k] for s in range(k)] + [0.0])
    return np.where(member, w[size - 1][:, None], -w[size][:, None])


def shapley_local(
    subgroup: Subgroup | Sequence[int],
    value_fn: Callable[[frozenset[int]], float],
) -> ItemAttribution:
    """Exact Shapley attribution of a subgroup's value to its items.

    For each item a of S, phi(a) is the coalition-weighted average of the
    marginal change v(T + {a}) - v(T) over all T inside S without a. Computed
    from the values of all 2^|S| coalitions, so |S| must not exceed
    MAX_EXACT_ITEMS. Satisfies efficiency: sum(phi) = v(S) - v(empty).
    """
    items = tuple(subgroup.item_ids) if isinstance(subgroup, Subgroup) else tuple(subgroup)
    n = len(items)
    if n > MAX_EXACT_ITEMS:
        raise ValueError(
            f"exact Shapley enumeration supports at most {MAX_EXACT_ITEMS} items, "
            f"got {n}; use a sampling estimator for longer subgroups"
        )
    coalitions = (frozenset(it for it, m in zip(items, row) if m) for row in _coalitions(n))
    phi = np.array([float(value_fn(c)) for c in coalitions]) @ _shapley_weights(n)
    return ItemAttribution(values={item: float(p) for item, p in zip(items, phi)})


def shapley_global(report: DriftReport, catalog: SubgroupCatalog) -> ItemAttribution:
    """Average per-item drift contribution across all subgroups containing it.

    Each subgroup's divergence is attributed to its items as in
    :func:`shapley_local`, with coalition values from the report: delta_h, or
    the posterior-mean gap where h is undefined. Every subset of a frequent
    itemset is frequent, so the coalitions of all length-k subgroups are one
    lookup in the catalog's length-k table. Items in no subgroup are absent.
    """
    if len(report.delta_h) != len(catalog):
        raise ValueError(f"report has {len(report.delta_h)} subgroups, catalog has {len(catalog)}")
    v = np.where(np.isnan(report.delta_h), report.mu_ref - report.mu_cur, report.delta_h)
    sums = np.zeros(catalog.n_items)
    counts = np.zeros(catalog.n_items, dtype=np.int64)
    for _, items in catalog.length_tables:
        k = items.shape[1]
        if k > MAX_EXACT_ITEMS:
            continue
        member = _coalitions(k)
        coalitions = np.column_stack(
            [catalog.indices_of(items[:, member[mask]]) for mask in range(1 << k)]
        )
        if (coalitions < 0).any():
            r, mask = np.argwhere(coalitions < 0)[0]
            raise ValueError(
                f"itemset {items[r, member[mask]].tolist()} is not a mined subgroup; "
                "Shapley attribution needs a catalog closed under subsets"
            )
        np.add.at(sums, items, v[coalitions] @ _shapley_weights(k))
        np.add.at(counts, items, 1)
    return ItemAttribution({int(i): float(sums[i] / counts[i]) for i in np.flatnonzero(counts)})


def make_drift_value_fn(
    catalog: SubgroupCatalog,
    ref_stats: SubgroupStats,
    cur_stats: SubgroupStats,
    ref_batches: Sequence[EncodedBatch] | None = None,
    cur_batches: Sequence[EncodedBatch] | None = None,
) -> Callable[[frozenset[int]], float]:
    """Coalition value function over (reference, current) window counts.

    Frequent itemsets read their cached window counts from the catalog index;
    other itemsets are counted on demand from the retained window batches
    (required only when evaluating coalitions outside the mined catalog).
    Value is h_ref - h_cur, or the posterior-mean gap when h is undefined.
    """
    cache: dict[frozenset[int], float] = {}

    def window_counts(itemset: frozenset[int]) -> list[int]:
        """alpha and beta of the reference window, then of the current one."""
        j = catalog.index_of(itemset)
        if j is not None:
            return [int(c[j]) for s in (ref_stats, cur_stats) for c in (s.alpha_counts, s.beta_counts)]
        if ref_batches is None or cur_batches is None:
            raise KeyError(
                f"itemset {sorted(itemset)} is not mined and no window batches "
                "were provided for on-demand counting"
            )
        probe = SubgroupCatalog(
            [catalog.subgroups[0], Subgroup(tuple(sorted(itemset)), 0.0, 0, 1)],
            catalog.n_items,
            catalog.config,
        )
        out = []
        for batches in (ref_batches, cur_batches):
            stats = merge([aggregate(b, membership(b, probe)) for b in batches], n_subgroups=2)
            out += [int(stats.alpha_counts[1]), int(stats.beta_counts[1])]
        return out

    def v(itemset: frozenset[int]) -> float:
        if itemset not in cache:
            a_r, b_r, a_c, b_c = window_counts(itemset)
            if a_r + b_r > 0 and a_c + b_c > 0:
                cache[itemset] = a_r / (a_r + b_r) - a_c / (a_c + b_c)
            else:
                cache[itemset] = (a_r + 1) / (a_r + b_r + 2) - (a_c + 1) / (a_c + b_c + 2)
        return cache[itemset]

    return v
