"""Frequent subgroup mining, the subgroup catalog and packed item bitmaps.

Subgroups are itemsets mined from a reference point matrix (packed per-item
instance bitmaps, see ``sgmetrics.build_point_matrix``) with an exact,
level-wise Apriori that ANDs and popcounts those bitmaps. The empty itemset
(the global subgroup, covering every instance) is always present at index
0. The catalog keeps, per itemset length, the subgroup indices and their
items, so that batch membership is the AND of packed item bitmaps (the same
bitmaps the miner counts with). The same tables, keyed by each row's item
ids, are the catalog's only itemset index: lookups of many itemsets of one
length are one sorted search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .sgmetrics import Membership

__all__ = ["MiningConfig", "Subgroup", "SubgroupCatalog", "mine_frequent"]

@dataclass(frozen=True)
class MiningConfig:
    """Minimum support fraction and itemset length cap."""

    min_support: float
    max_len: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError(f"min_support must be in (0, 1], got {self.min_support}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class Subgroup:
    """A frequent itemset: sorted item ids, its support, and its dense index."""

    item_ids: tuple[int, ...]
    support: float
    count: int
    index: int

    def __len__(self) -> int:
        return len(self.item_ids)

    def label(self, catalog=None) -> str:
        if not self.item_ids:
            return "(global)"
        if catalog is None:
            return ",".join(str(i) for i in self.item_ids)
        return ",".join(catalog.label_of(i) for i in self.item_ids)


class SubgroupCatalog:
    """The mined subgroups and their per-length item tables.

    ``subgroups[0]`` is always the global (empty) subgroup. ``length_tables``
    holds one ``(indices, items)`` pair per itemset length k, ascending: the
    positions of the length-k subgroups and an ``(n_k, k)`` array of their
    item ids, rows in ascending lexicographic order. Every itemset must list
    distinct item ids in ascending order, each in ``[0, n_items)``, and no
    itemset may occur twice. Immutable once built.
    """

    def __init__(
        self,
        subgroups: Sequence[Subgroup],
        n_items: int,
        config: MiningConfig,
    ):
        if not subgroups or subgroups[0].item_ids != ():
            raise ValueError("subgroups[0] must be the global (empty) subgroup")
        self.subgroups: tuple[Subgroup, ...] = tuple(subgroups)
        self.n_items = n_items
        self.config = config
        by_len: dict[int, list[int]] = {}
        for j, sg in enumerate(self.subgroups[1:], start=1):
            by_len.setdefault(len(sg.item_ids), []).append(j)
        if 0 in by_len:
            raise ValueError(f"subgroup {by_len[0][0]} repeats the global (empty) itemset")
        # per length k: subgroup positions, (n_k, k) items and row keys, in key order
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for k, idx in sorted(by_len.items()):
            idx = np.asarray(idx, dtype=np.intp)
            items = np.array([self.subgroups[j].item_ids for j in idx], dtype=np.intp)
            bad = (np.diff(items, axis=1) <= 0).any(axis=1)
            bad |= (items[:, 0] < 0) | (items[:, -1] >= n_items)
            if bad.any():
                r = int(np.argmax(bad))
                raise ValueError(
                    f"subgroup {idx[r]}: item ids {items[r].tolist()} are not strictly "
                    f"ascending in [0, {n_items})"
                )
            keys = _row_keys(items)
            order = np.argsort(keys, kind="stable")
            idx, items, keys = idx[order], items[order], keys[order]
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if len(dup):
                r = dup[0]
                raise ValueError(f"subgroup {idx[r + 1]} repeats the itemset {items[r].tolist()}")
            self._tables[k] = (idx, items, keys)
        self.length_tables: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(
            (idx, items) for idx, items, _ in self._tables.values()
        )

    def __len__(self) -> int:
        return len(self.subgroups)

    def indices_of(self, rows) -> np.ndarray:
        """Dense index of each itemset (ascending item ids) of an ``(n, k)`` array, or -1."""
        rows = np.asarray(rows, dtype=np.int64)
        n, k = rows.shape
        if k not in self._tables:  # the global subgroup is the only 0-itemset
            return np.full(n, -1 if k else 0, dtype=np.intp)
        idx, _, keys = self._tables[k]
        wanted = _row_keys(rows)
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[pos] == wanted, idx[pos], -1)

    def index_of(self, item_ids) -> int | None:
        """Dense index of an itemset, or None if it was not mined."""
        j = int(self.indices_of([sorted(set(item_ids))])[0])
        return None if j < 0 else j

    def supports(self) -> np.ndarray:
        return np.array([sg.support for sg in self.subgroups])

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n_items": self.n_items,
            "min_support": self.config.min_support,
            "max_len": self.config.max_len,
            "subgroups": [
                {"items": list(sg.item_ids), "support": sg.support, "count": sg.count}
                for sg in self.subgroups
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SubgroupCatalog":
        config = MiningConfig(min_support=float(d["min_support"]), max_len=int(d["max_len"]))
        subgroups = [
            Subgroup(
                item_ids=tuple(int(i) for i in e["items"]),
                support=float(e["support"]),
                count=int(e["count"]),
                index=idx,
            )
            for idx, e in enumerate(d["subgroups"])
        ]
        return cls(subgroups, int(d["n_items"]), config)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One exact key per row, its item ids as big-endian int64 bytes: byte
    order is lexicographic order for non-negative ids, at any item count."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _packed_rows(mask: np.ndarray) -> np.ndarray:
    """Each row of a 2-D 0/1 array packed 8 entries per byte (``np.packbits``
    order) and padded with zero bits to whole 64-bit words, so that the result
    views as ``uint64`` and popcounts never see the padding."""
    n = mask.shape[1]
    out = np.zeros((mask.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(mask, axis=1)
    return out


def _popcount(packed: np.ndarray) -> int:
    return int(np.bitwise_count(packed).sum())


def mine_frequent(
    points: Membership,
    config: MiningConfig,
    item_attrs: Sequence[object] | None = None,
) -> SubgroupCatalog:
    """Mine all itemsets with support >= ``config.min_support`` exactly.

    Level-wise Apriori: candidates of length k are joins of length-(k-1)
    frequent itemsets sharing a prefix, pruned by the anti-monotonicity of
    support, and counted by intersecting the packed item bitmaps of the
    point matrix ``points`` (one row per item, as ``build_point_matrix``). When
    ``item_attrs`` gives the attribute of each item, candidates combining two
    values of one attribute are excluded structurally (their support is zero
    by construction). Output ordering is lexicographic by item ids, with the
    global subgroup first, regardless of any internal parallelism.
    """
    n_rows, n_items = points.shape
    if n_rows == 0:
        raise ValueError("cannot mine an empty point matrix")
    if item_attrs is not None and len(item_attrs) != n_items:
        raise ValueError("item_attrs length must equal the item count")

    def frequent(count: int) -> bool:
        return count / n_rows >= config.min_support

    item_bits = points.bits.view(np.uint64)
    frequent_sets: dict[tuple[int, ...], int] = {}

    level: dict[tuple[int, ...], np.ndarray] = {}
    for j in range(n_items):
        c = _popcount(item_bits[j])
        if frequent(c):
            frequent_sets[(j,)] = c
            level[(j,)] = item_bits[j]

    k = 2
    while level and k <= config.max_len:
        prev_keys = sorted(level)
        prev_set = set(prev_keys)
        next_level: dict[tuple[int, ...], np.ndarray] = {}
        # join step: two (k-1)-itemsets sharing their first k-2 items
        for i, a in enumerate(prev_keys):
            for b in prev_keys[i + 1 :]:
                if a[:-1] != b[:-1]:
                    break
                if item_attrs is not None and item_attrs[a[-1]] == item_attrs[b[-1]]:
                    continue
                cand = a + (b[-1],)
                if k > 2 and any(
                    cand[:m] + cand[m + 1 :] not in prev_set for m in range(k - 2)
                ):
                    continue
                bits = level[a] & item_bits[cand[-1]]
                c = _popcount(bits)
                if frequent(c):
                    frequent_sets[cand] = c
                    next_level[cand] = bits
        level = next_level
        k += 1

    ordered = sorted(frequent_sets)
    subgroups = [Subgroup(item_ids=(), support=1.0, count=n_rows, index=0)]
    for idx, key in enumerate(ordered, start=1):
        c = frequent_sets[key]
        subgroups.append(Subgroup(item_ids=key, support=c / n_rows, count=c, index=idx))
    return SubgroupCatalog(subgroups, n_items, config)


def brute_force_frequent(
    transactions: Sequence[Sequence[int]],
    min_support: float,
    max_len: int,
) -> dict[tuple[int, ...], int]:
    """Exhaustive reference miner for small instances (oracle for tests).

    Enumerates every itemset up to ``max_len`` over the observed items and
    counts support by direct subset checks. Exponential; keep universes small.
    """
    tx = [frozenset(t) for t in transactions]
    universe = sorted(set().union(*tx)) if tx else []
    n = len(tx)
    out: dict[tuple[int, ...], int] = {}
    for k in range(1, min(max_len, len(universe)) + 1):
        for combo in combinations(universe, k):
            s = frozenset(combo)
            c = sum(1 for t in tx if s <= t)
            if c / n >= min_support:
                out[tuple(combo)] = c
    return out
