"""Batch encoding, membership extraction, and per-subgroup outcome counts.

The hot path of the monitor: a batch of instances becomes its point matrix,
one packed instance bitmap per item (the members of the one-item subgroup
{j}); the members of every subgroup are exact set logic on those bitmaps (its
prefix's member bitmap ANDed with its last item's, as the miner counts, or
the AND of all its items' if its prefix is not in the catalog), and the
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

from .mining import SubgroupCatalog, _joined, _packed_rows

__all__ = [
    "EncodedBatch",
    "Membership",
    "SubgroupStats",
    "build_point_matrix",
    "membership",
    "aggregate",
    "performance_vector",
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

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha_counts.tolist(),
            "beta": self.beta_counts.tolist(),
            "n": self.n_instances,
        }

    @classmethod
    def from_dict(cls, d, name: str) -> "SubgroupStats":
        """The counts ``to_dict`` wrote, checked as exact: integers >= 0 with
        alpha + beta <= n per subgroup. A ValueError names the field as
        ``name.alpha``, ``name.beta`` or ``name.n``."""
        n = _json_count(d["n"], f"{name}.n")
        alpha, beta = np.asarray(d["alpha"]), np.asarray(d["beta"])
        for key, v in (("alpha", alpha), ("beta", beta)):
            # a JSON true or false would pass the dtype test as 1 or 0
            if v.ndim != 1 or v.dtype.kind != "i" or (v < 0).any() or not set(map(type, d[key])) <= {int}:
                raise ValueError(f"{name}.{key} must be a list of integers >= 0")
        limit = min(n, np.iinfo(np.int64).max)  # alpha + beta would wrap past it
        over = (alpha > limit) | (beta > limit - alpha)
        if over.any():
            raise ValueError(f"{name}: alpha + beta exceeds n {n} at subgroup {int(np.argmax(over))}")
        return cls(alpha.astype(np.int64), beta.astype(np.int64), n)


def _json_count(value, name: str) -> int:
    """``value`` if it is a JSON integer >= 0 (not a boolean), else a
    ValueError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


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

    Exact set logic, by the miner's rule (``mining._joined``) over the
    catalog's ``counting_plan``: a subgroup's member bitmap is its prefix's
    ANDed with its last item's batch bitmap. One whose prefix is not in the
    catalog ANDs all its items into the global subgroup's, which holds every
    instance."""
    P = batch.point_matrix
    if P.shape[1] != catalog.n_items:
        raise ValueError(
            f"point matrix has {P.shape[1]} item columns, catalog has {catalog.n_items}"
        )
    n = P.n_instances
    item_words = P.bits.view(np.uint64)
    words = np.empty((len(catalog), item_words.shape[1]), dtype=np.uint64)
    words[0] = _packed_rows(np.ones((1, n), dtype=bool)).view(np.uint64)
    for idx, bases, rest in catalog.counting_plan():
        for lo, joined in _joined(words, bases, item_words, rest):
            words[idx[lo : lo + len(joined)]] = joined
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
