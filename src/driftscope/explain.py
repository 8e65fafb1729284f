"""Ranking, summarization, and attribution of drifting subgroups.

Subgroups are ranked by the significance statistic t; a ranking is an array
of dense indices. Redundancy pruning collapses chains of near-duplicate
refinements onto their most general surviving ancestors. Shapley values
attribute a subgroup's performance divergence to its items exactly: the
values of all 2^k item coalitions times one (2^k x k) weight matrix
(itemsets are short, so this is cheap). Pruning and attribution read the
catalog's subset lattice (:meth:`SubgroupCatalog.lattice`), which the
catalog builds once and keeps; it needs a catalog closed under subsets, as
``mine`` writes it, and a missing subset is a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .detector import DriftReport
from .mining import Subgroup, SubgroupCatalog
from .sgmetrics import SubgroupStats

__all__ = [
    "ItemAttribution",
    "rank",
    "redundancy_prune",
    "shapley_local",
    "shapley_global",
    "make_drift_value_fn",
]

MAX_EXACT_ITEMS = 12


def rank(report: DriftReport, catalog: SubgroupCatalog) -> np.ndarray:
    """The dense indices of all subgroups in order of drift significance:
    t descending, then |delta_h| descending (an undefined delta_h last),
    then item ids ascending."""
    if report.warming_up or report.n_subgroups != len(catalog):
        raise ValueError("ranking requires a scored (non-warming) report for this catalog")
    mag = np.where(np.isnan(report.delta_h), -1.0, np.abs(report.delta_h))
    return np.lexsort((catalog.lex_ranks(), -mag, -report.t_values))


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
    itemset is frequent, so the coalitions of all length-k subgroups are
    level k of the catalog's subset lattice; subgroups of more than
    MAX_EXACT_ITEMS items are left out. Items in no subgroup are absent.
    """
    if len(report.delta_h) != len(catalog):
        raise ValueError(f"report has {len(report.delta_h)} subgroups, catalog has {len(catalog)}")
    v = np.where(np.isnan(report.delta_h), report.mu_ref - report.mu_cur, report.delta_h)
    sums = np.zeros(catalog.n_items)
    counts = np.zeros(catalog.n_items, dtype=np.int64)
    for _, items in catalog.length_tables:
        k = items.shape[1]
        if k > MAX_EXACT_ITEMS:
            break
        np.add.at(sums, items, v[catalog.lattice(k)] @ _shapley_weights(k))
        np.add.at(counts, items, 1)
    return ItemAttribution({int(i): float(sums[i] / counts[i]) for i in np.flatnonzero(counts)})


def make_drift_value_fn(
    catalog: SubgroupCatalog,
    ref_stats: SubgroupStats,
    cur_stats: SubgroupStats,
) -> Callable[[frozenset[int]], float]:
    """Coalition value function over (reference, current) window counts.

    Each itemset reads its window counts through the catalog index, so an
    itemset that was not mined is a KeyError. Value is h_ref - h_cur, or the
    posterior-mean gap when h is undefined.
    """
    cache: dict[frozenset[int], float] = {}

    def v(itemset: frozenset[int]) -> float:
        if itemset not in cache:
            j = catalog.index_of(itemset)
            if j is None:
                raise KeyError(f"itemset {sorted(itemset)} is not mined")
            a_r, b_r, a_c, b_c = (
                int(c[j]) for s in (ref_stats, cur_stats) for c in (s.alpha_counts, s.beta_counts)
            )
            if a_r + b_r > 0 and a_c + b_c > 0:
                cache[itemset] = a_r / (a_r + b_r) - a_c / (a_c + b_c)
            else:
                cache[itemset] = (a_r + 1) / (a_r + b_r + 2) - (a_c + 1) / (a_c + b_c + 2)
        return cache[itemset]

    return v
