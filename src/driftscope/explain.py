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


@dataclass(frozen=True, eq=False)
class RankedReport:
    """Subgroups of ``catalog`` in a stable total order (t desc, |delta_h|
    desc, items asc), as the dense indices ``order``; entries are built
    only for the rows read."""

    order: np.ndarray
    report: DriftReport
    catalog: SubgroupCatalog

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.entries)

    @property
    def entries(self) -> tuple[RankedEntry, ...]:
        return self.head(len(self.order))

    def head(self, k: int) -> tuple[RankedEntry, ...]:
        """The first ``k`` entries."""
        order = self.order[:k]
        return tuple(
            RankedEntry(subgroup=sg, t=t, delta_h=None if d != d else d)
            for sg, t, d in zip(
                self.catalog.subgroups_at(order),
                self.report.t_values[order].tolist(),
                self.report.delta_h[order].tolist(),
            )
        )


def rank(report: DriftReport, catalog: SubgroupCatalog, top_k: int | None = None) -> RankedReport:
    """Order all subgroups by drift significance; ``top_k`` truncates."""
    if report.warming_up or report.n_subgroups != len(catalog):
        raise ValueError("ranking requires a scored (non-warming) report for this catalog")
    mag = np.where(np.isnan(report.delta_h), -1.0, np.abs(report.delta_h))
    order = np.lexsort((catalog.lex_ranks(), -mag, -report.t_values))
    return RankedReport(order[:top_k], report, catalog)


def _drop_bit(masks: np.ndarray, i) -> np.ndarray:
    """``masks`` (bit i unset) as masks over the items left when item i is
    dropped; ``i`` is one position or one per mask."""
    return masks & ((1 << i) - 1) | (masks >> (i + 1)) << i


def _subset_index(catalog: SubgroupCatalog, max_len: int | None = None):
    """Per itemset length k (ascending, up to ``max_len``), the length-k
    ``(indices, items)`` table and an ``(n_k, 2^k)`` array whose entry
    ``[r, mask]`` is the dense index of the subset of row r holding item i
    iff bit i of ``mask`` is set (as :func:`_coalitions`), or -1 if that
    itemset is not in the catalog.

    Only the k drop-one parents of each row are looked up; every other
    subset is read from the previous length's array through a parent that
    exists. Entries no parent resolves (catalogs not closed under subsets)
    are looked up directly. At most two lengths are held at once.
    """
    row = np.zeros(len(catalog), dtype=np.intp)  # dense index -> row in its table
    # the global subgroup, the one 0-itemset; each level's last row is all
    # -2 (not resolved), the row read through a missing parent
    prev = np.array([[0], [-2]], dtype=np.intp)
    for idx, items in catalog.length_tables:
        n, k = items.shape
        if max_len is not None and k > max_len:
            break
        if prev.shape[1] != 1 << (k - 1):  # no (k-1)-itemsets: no parent exists
            prev = np.full((1, 1 << (k - 1)), -2, dtype=np.intp)
        masks = np.arange((1 << k) - 1)
        parents = np.array([catalog.indices_of(np.delete(items, i, axis=1)) for i in range(k)])
        parent_rows = np.where(parents >= 0, row[parents], len(prev) - 1)
        subsets = np.full((n + 1, len(masks) + 1), -2, dtype=np.intp)
        subsets[:n, -1] = idx
        # each mask through the parent that drops its lowest unset bit
        via = np.bitwise_count((~masks & (masks + 1)) - 1).astype(np.intp)
        subsets[:n, :-1] = prev[parent_rows[via].T, _drop_bit(masks, via)]
        # left over: rows with a missing parent, through any parent there is
        missing = np.flatnonzero((parents < 0).any(axis=0))
        r, m = np.nonzero(subsets[missing] == -2)
        r = missing[r]
        for i in range(k):
            ok = (m >> i & 1 == 0) & (parents[i, r] >= 0)
            subsets[r[ok], m[ok]] = prev[parent_rows[i, r[ok]], _drop_bit(m[ok], i)]
            r, m = r[~ok], m[~ok]
        member = _coalitions(k)
        for mask in np.unique(m).tolist():
            at = r[m == mask]
            subsets[at, mask] = catalog.indices_of(items[at][:, member[mask]])
        yield idx, items, subsets[:n]
        row[idx] = np.arange(n)
        prev = subsets


def redundancy_prune(ranked: RankedReport, t_threshold: float) -> RankedReport:
    """Drop refinements whose t is explained by a more general subgroup.

    An entry is pruned when some *surviving* strict subset of it has a
    t-value within ``t_threshold`` of its own; the more general subgroup
    already carries the signal, and comparing against survivors collapses
    transitive chains while guaranteeing every pruned itemset has a
    surviving ancestor within the threshold. Strict subsets are shorter, so
    entries are decided one itemset length at a time, shortest first,
    through the subset index. Subsets absent from ``ranked`` (cut by
    ``top_k``, or not in the catalog) are not survivors. A threshold of 0
    prunes nothing. The result keeps the ranking order.
    """
    t = ranked.report.t_values
    alive = np.zeros(len(ranked.catalog), dtype=bool)
    alive[ranked.order] = True
    for idx, _, subsets in _subset_index(ranked.catalog):
        strict = subsets[:, :-1]
        close = alive[strict] & (strict >= 0) & (np.abs(t[strict] - t[idx][:, None]) < t_threshold)
        alive[idx] &= ~close.any(axis=1)
    return RankedReport(ranked.order[alive[ranked.order]], ranked.report, ranked.catalog)


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
    for _, items, coalitions in _subset_index(catalog, MAX_EXACT_ITEMS):
        k = items.shape[1]
        if (coalitions < 0).any():
            r, mask = np.argwhere(coalitions < 0)[0]
            raise ValueError(
                f"itemset {items[r, _coalitions(k)[mask]].tolist()} is not a mined subgroup; "
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
            [catalog.subgroup(0), Subgroup(tuple(sorted(itemset)), 0.0, 0, 1)],
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
