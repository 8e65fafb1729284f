"""Batch encoding, membership extraction, and per-subgroup outcome counts.

The hot path of the monitor: a batch of instances becomes its point matrix,
one packed instance bitmap per item (the members of the one-item subgroup
{j}); the members of every subgroup are exact set logic on those bitmaps (a
subgroup's member bitmap is the AND of its items' bitmaps), and the
per-subgroup positive/negative outcome counts are popcounts of each member
bitmap ANDed with the packed outcome vector. No instance-by-item or
instance-by-subgroup matrix is built: the bitmaps (one bit per instance and
item or subgroup) live for one batch, and only the integer count vectors
persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .mining import SubgroupCatalog, _packed_rows

__all__ = [
    "EncodedBatch",
    "Membership",
    "SubgroupStats",
    "build_point_matrix",
    "membership",
    "aggregate",
    "performance_vector",
    "merge",
]

@dataclass(frozen=True)
class EncodedBatch:
    """A batch as its N x n_items point matrix (packed item bitmaps) plus
    outcome vectors."""

    point_matrix: Membership
    alpha_vec: np.ndarray
    beta_vec: np.ndarray
    batch_id: int = 0

    def __post_init__(self) -> None:
        n = self.point_matrix.shape[0]
        if len(self.alpha_vec) != n or len(self.beta_vec) != n:
            raise ValueError("outcome vector length must match the batch size")
        if np.any(self.alpha_vec + self.beta_vec > 1):
            raise ValueError("alpha + beta must be <= 1 for every instance")
        if np.any(self.alpha_vec < 0) or np.any(self.beta_vec < 0):
            raise ValueError("alpha and beta must be 0/1 indicators")

    @property
    def n_instances(self) -> int:
        return self.point_matrix.shape[0]


@dataclass(frozen=True)
class SubgroupStats:
    """Exact per-subgroup (alpha, beta) counts aggregated over a window."""

    alpha_counts: np.ndarray
    beta_counts: np.ndarray
    n_instances: int

    def __post_init__(self) -> None:
        if self.alpha_counts.shape != self.beta_counts.shape:
            raise ValueError("alpha and beta count vectors must have equal length")

    @property
    def n_subgroups(self) -> int:
        return len(self.alpha_counts)

    @classmethod
    def zeros(cls, n_subgroups: int) -> "SubgroupStats":
        return cls(
            alpha_counts=np.zeros(n_subgroups, dtype=np.int64),
            beta_counts=np.zeros(n_subgroups, dtype=np.int64),
            n_instances=0,
        )

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha_counts.tolist(),
            "beta": self.beta_counts.tolist(),
            "n": self.n_instances,
        }

    @classmethod
    def from_dict(cls, d) -> "SubgroupStats":
        return cls(
            alpha_counts=np.asarray(d["alpha"], dtype=np.int64),
            beta_counts=np.asarray(d["beta"], dtype=np.int64),
            n_instances=int(d["n"]),
        )


def build_point_matrix(item_id_sets: Sequence[Sequence[int]], n_items: int) -> Membership:
    """The 0/1 point matrix of N instances over ``n_items`` items, as packed
    item bitmaps: row j of ``bits`` holds the instances whose item ids
    include j."""
    lengths = np.fromiter(map(len, item_id_sets), dtype=np.intp, count=len(item_id_sets))
    ids = np.fromiter(chain.from_iterable(item_id_sets), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(lengths)), lengths)
    bad = (ids < 0) | (ids >= n_items)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"row {rows[k]}: item id {ids[k]} out of range [0, {n_items})")
    mask = np.zeros((n_items, len(lengths)), dtype=bool)
    mask[ids, rows] = True
    return Membership(bits=_packed_rows(mask), n_instances=len(lengths))


@dataclass(frozen=True)
class Membership:
    """The members of a list of subgroups in one batch, as packed bitmaps.

    Row j of ``bits`` is subgroup j's member bitmap: bit i (``np.packbits``
    order) is set iff instance i holds every item of the subgroup. Rows are
    padded with zero bits to whole 64-bit words. A batch's point matrix is
    the membership of the one-item subgroups: row j is item j's bitmap.
    """

    bits: np.ndarray
    n_instances: int

    @property
    def shape(self) -> tuple[int, int]:
        """(instances, subgroups), the shape of :meth:`toarray`."""
        return self.n_instances, len(self.bits)

    @property
    def nnz(self) -> int:
        """Number of (instance, subgroup) member pairs."""
        return int(np.bitwise_count(self.bits).sum())

    def toarray(self) -> np.ndarray:
        """Dense N x |G| 0/1 matrix: entry (i, j) = 1 iff instance i is in S_j."""
        return np.unpackbits(self.bits, axis=1, count=self.n_instances).T

    def __getitem__(self, rows: slice) -> Membership:
        """The instances ``lo:hi`` (a step-1 slice) at any bit offset, the
        result's padding bits zero."""
        lo, hi, step = rows.indices(self.n_instances)
        if step != 1:
            raise ValueError("only step-1 row slices are supported")
        hi = max(lo, hi)
        first = lo // 8
        window = np.unpackbits(self.bits[:, first : -(-hi // 8)], axis=1)
        return Membership(
            bits=_packed_rows(window[:, lo - 8 * first : hi - 8 * first]),
            n_instances=hi - lo,
        )

    def count(self, vec: np.ndarray) -> np.ndarray:
        """Per subgroup, the number of members whose entry of the 0/1 ``vec`` is 1."""
        if len(vec) != self.n_instances:
            raise ValueError("count vector length must equal the batch size")
        words = self.bits.view(np.uint64)
        packed = _packed_rows(np.asarray(vec)[None, :]).view(np.uint64)
        return np.bitwise_count(words & packed).sum(axis=1, dtype=np.int64)


def membership(batch: EncodedBatch, catalog: SubgroupCatalog) -> Membership:
    """Packed member bitmaps of every subgroup of ``catalog`` in ``batch``.

    Exact set logic: a subgroup's member bitmap is the AND of the batch
    bitmaps of its items, formed for all subgroups of one itemset length at
    once from the catalog's length tables. The global subgroup has no items
    and holds every instance.
    """
    P = batch.point_matrix
    if P.shape[1] != catalog.n_items:
        raise ValueError(
            f"point matrix has {P.shape[1]} item columns, catalog has {catalog.n_items}"
        )
    n = P.n_instances
    item_words = P.bits.view(np.uint64)
    words = np.empty((len(catalog), item_words.shape[1]), dtype=np.uint64)
    words[0] = _packed_rows(np.ones((1, n), dtype=bool)).view(np.uint64)
    for idx, items in catalog.length_tables:
        group_words = item_words[items[:, 0]]
        for c in range(1, items.shape[1]):
            group_words &= item_words[items[:, c]]
        words[idx] = group_words
    return Membership(bits=words.view(np.uint8), n_instances=n)


def aggregate(batch: EncodedBatch, M: Membership) -> SubgroupStats:
    """Per-subgroup outcome counts alpha'M and beta'M, by exact popcounts."""
    if M.n_instances != batch.n_instances:
        raise ValueError("membership row count must equal the batch size")
    return SubgroupStats(
        alpha_counts=M.count(batch.alpha_vec),
        beta_counts=M.count(batch.beta_vec),
        n_instances=batch.n_instances,
    )


def performance_vector(stats: SubgroupStats) -> np.ndarray:
    """h per subgroup as a float vector, NaN where undefined."""
    a = stats.alpha_counts.astype(np.float64)
    b = stats.beta_counts.astype(np.float64)
    tot = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.where(tot > 0, a / np.where(tot > 0, tot, 1.0), np.nan)
    return h


def merge(stats_list: Sequence[SubgroupStats], n_subgroups: int | None = None) -> SubgroupStats:
    """Elementwise sum of count vectors. Associative and commutative.

    ``n_subgroups`` is only required for an empty list; otherwise every entry
    must share the same subgroup count.
    """
    if not stats_list:
        if n_subgroups is None:
            raise ValueError("merging an empty list requires n_subgroups")
        return SubgroupStats.zeros(n_subgroups)
    size = stats_list[0].n_subgroups
    for s in stats_list[1:]:
        if s.n_subgroups != size:
            raise ValueError("cannot merge stats with differing subgroup counts")
    return SubgroupStats(
        alpha_counts=np.sum([s.alpha_counts for s in stats_list], axis=0, dtype=np.int64),
        beta_counts=np.sum([s.beta_counts for s in stats_list], axis=0, dtype=np.int64),
        n_instances=sum(s.n_instances for s in stats_list),
    )
