"""Ranking, summarization, and attribution of drifting subgroups.

Subgroups are ranked by the significance statistic t; a ranking is an array
of dense indices. Redundancy pruning collapses chains of near-duplicate
refinements onto their most general surviving ancestors. Shapley values
attribute a subgroup's drift value (:func:`drift_values`) to its items
exactly: the values of all 2^k item coalitions times one (2^k x k) weight
matrix (itemsets are short, so this is cheap). Pruning and attribution read
the catalog's subset lattice (:meth:`SubgroupCatalog.lattice`), which the
catalog builds once and keeps; it needs a catalog closed under subsets, as
``mine`` writes it, and a missing subset is a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .detector import DriftReport
from .mining import SubgroupCatalog

__all__ = [
    "ItemAttribution",
    "drift_values",
    "rank",
    "redundancy_prune",
    "shapley_local",
    "shapley_global",
]

MAX_EXACT_ITEMS = 12


def rank(report: DriftReport, catalog: SubgroupCatalog) -> np.ndarray:
    """The dense indices of all subgroups in order of drift significance:
    t descending, then |delta_h| descending (an undefined delta_h last),
    then dense index ascending, which for a mined catalog is item ids
    ascending."""
    if report.warming_up or report.n_subgroups != len(catalog):
        raise ValueError("ranking requires a scored (non-warming) report for this catalog")
    mag = np.where(np.isnan(report.delta_h), -1.0, np.abs(report.delta_h))
    return np.lexsort((-mag, -report.t_values))


def redundancy_prune(
    order: np.ndarray, report: DriftReport, catalog: SubgroupCatalog, t_threshold: float
) -> np.ndarray:
    """The subgroups of ``order`` left when refinements whose t is explained
    by a more general subgroup are dropped, in the order of ``order``.

    A subgroup is pruned when some *surviving* strict subset of it has a
    t-value within ``t_threshold`` of its own; the more general subgroup
    already carries the signal, and comparing against survivors collapses
    transitive chains while guaranteeing every pruned itemset has a
    surviving ancestor within the threshold. Strict subsets are shorter, so
    subgroups are decided one itemset length at a time, shortest first,
    through the subset lattice. Subgroups absent from ``order`` are not
    survivors. A threshold of 0 prunes nothing.
    """
    t = report.t_values
    alive = np.zeros(len(catalog), dtype=bool)
    alive[order] = True
    for idx, items in catalog.length_tables:
        strict = catalog.lattice(items.shape[1])[:, :-1]
        close = alive[strict] & (np.abs(t[strict] - t[idx][:, None]) < t_threshold)
        alive[idx] &= ~close.any(axis=1)
    return order[alive[order]]


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


def drift_values(report: DriftReport) -> np.ndarray:
    """The drift value of each subgroup, which Shapley attribution splits
    over its items: delta_h, or the posterior-mean gap mu_ref - mu_cur where
    h is undefined in either window."""
    return np.where(np.isnan(report.delta_h), report.mu_ref - report.mu_cur, report.delta_h)


def _check_sizes(report: DriftReport, catalog: SubgroupCatalog) -> None:
    if len(report.delta_h) != len(catalog):
        raise ValueError(f"report has {len(report.delta_h)} subgroups, catalog has {len(catalog)}")


def shapley_local(j: int, report: DriftReport, catalog: SubgroupCatalog) -> ItemAttribution:
    """Exact Shapley attribution of subgroup j's drift value to its items.

    For each item a of S, phi(a) is the coalition-weighted average of the
    marginal change v(T + {a}) - v(T) over all T inside S without a, where v
    is :func:`drift_values`. The coalitions are the subsets of S, subgroup
    j's row of the catalog's subset lattice (:meth:`SubgroupCatalog.subsets`),
    so |S| must not exceed MAX_EXACT_ITEMS; that is checked before any
    lattice level is built. Satisfies efficiency: sum(phi) = v(S) - v(empty).
    The global subgroup gets an empty attribution.
    """
    _check_sizes(report, catalog)
    items = catalog.items_of([j])[0]
    k = len(items)
    if k > MAX_EXACT_ITEMS:
        raise ValueError(
            f"exact Shapley enumeration supports at most {MAX_EXACT_ITEMS} items, "
            f"got {k}; use a sampling estimator for longer subgroups"
        )
    phi = drift_values(report)[catalog.subsets(j)] @ _shapley_weights(k)
    return ItemAttribution(values={item: float(p) for item, p in zip(items, phi)})


def shapley_global(report: DriftReport, catalog: SubgroupCatalog) -> ItemAttribution:
    """Average per-item drift contribution across all subgroups containing it.

    Each item's value is the mean of its :func:`shapley_local` values over
    the subgroups that hold it, computed a lattice level at a time: the
    coalitions of all length-k subgroups are level k of the catalog's subset
    lattice. Subgroups of more than MAX_EXACT_ITEMS items are left out.
    Items in no subgroup are absent.
    """
    _check_sizes(report, catalog)
    v = drift_values(report)
    sums = np.zeros(catalog.n_items)
    counts = np.zeros(catalog.n_items, dtype=np.int64)
    for _, items in catalog.length_tables:
        k = items.shape[1]
        if k > MAX_EXACT_ITEMS:
            break
        np.add.at(sums, items, v[catalog.lattice(k)] @ _shapley_weights(k))
        np.add.at(counts, items, 1)
    return ItemAttribution({int(i): float(sums[i] / counts[i]) for i in np.flatnonzero(counts)})
