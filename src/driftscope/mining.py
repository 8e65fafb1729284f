"""Frequent subgroup mining, the subgroup catalog and packed item bitmaps.

Subgroups are itemsets mined from a reference point matrix (packed per-item
instance bitmaps, see ``sgmetrics.build_point_matrix``) with an exact,
level-wise Apriori that ANDs and popcounts those bitmaps. The empty itemset
(the global subgroup, covering every instance) is always present at index
0. The catalog keeps, per itemset length, the subgroup indices and their
items; batch membership builds each itemset's bitmap from its prefix's, by
the miner's rule (``_joined``). The same tables, keyed by each row's item
ids, are the catalog's only itemset index: lookups of many itemsets of one
length are one sorted search. The catalog's subset lattice, which pruning
and Shapley attribution read (a level at a time, or one subgroup's row), is
built from them one length at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping, NoReturn, Sequence

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

    def label(self, catalog) -> str:
        """The subgroup's items as ``catalog`` labels them, comma-joined, or
        "(global)"."""
        return ",".join(map(catalog.label_of, self.item_ids)) or "(global)"


class SubgroupCatalog:
    """The mined subgroups and their per-length item tables.

    Subgroup 0 is always the global (empty) subgroup. ``length_tables``
    holds one ``(indices, items)`` pair per itemset length k, ascending: the
    positions of the length-k subgroups and an ``(n_k, k)`` array of their
    item ids, rows in ascending lexicographic order. Every itemset must list
    distinct item ids in ascending order, each in ``[0, n_items)``, and no
    itemset may occur twice. Supports and counts are arrays over the dense
    index; :class:`Subgroup` objects are built only when asked for, and so is
    each level of the subset lattice (:meth:`lattice`). Immutable once built.
    """

    def __init__(
        self,
        tables: Sequence[tuple[np.ndarray, np.ndarray]],
        support: np.ndarray,
        count: np.ndarray,
        n_items: int,
        config: MiningConfig,
    ):
        """The catalog of ``len(support)`` subgroups given as per-length
        ``(indices, items)`` tables (lengths ascending, rows in any order),
        where index 0 is the global subgroup and every other index occurs in
        exactly one table; ``support`` and ``count`` are indexed densely."""
        self.n_items = n_items
        self.config = config
        self._support = np.array(support, dtype=np.float64)
        self._support.flags.writeable = False
        self._count = np.asarray(count, dtype=np.int64)
        # per dense index: itemset length and row in that length's table
        self._length = np.zeros(len(self._support), dtype=np.intp)
        self._row = np.zeros(len(self._support), dtype=np.intp)
        # per length k: subgroup positions, (n_k, k) items and row keys, in key order
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for idx, items in tables:
            idx = np.asarray(idx, dtype=np.intp)
            items = np.asarray(items, dtype=np.intp)
            k = items.shape[1]
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
            self._length[idx] = k
            self._row[idx] = np.arange(len(idx))
        self.length_tables: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(
            (idx, items) for idx, items, _ in self._tables.values()
        )
        # per length k: the (n_k, 2^k) subset table, built by lattice(k) on first use
        self._lattice: dict[int, np.ndarray] = {}
        self._plan: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __len__(self) -> int:
        return len(self._support)

    @property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """Every subgroup in dense order, built on each call."""
        return tuple(self.subgroups_at(np.arange(len(self))))

    def subgroup(self, j: int) -> Subgroup:
        """Subgroup ``j``, read from the tables without building the others."""
        return self.subgroups_at([j])[0]

    def subgroups_at(self, indices) -> list[Subgroup]:
        """The subgroups at ``indices``, read from the tables (one gather per
        itemset length) without building the others."""
        indices = np.asarray(indices, dtype=np.intp)
        return [
            Subgroup(tuple(items), s, c, j)
            for j, items, s, c in zip(
                indices.tolist(),
                self.items_of(indices),
                self._support[indices].tolist(),
                self._count[indices].tolist(),
            )
        ]

    def items_of(self, indices) -> list[list[int]]:
        """The item ids of each subgroup in ``indices``, read from the tables
        (one gather per itemset length)."""
        indices = np.asarray(indices, dtype=np.intp)
        out: list[list[int]] = [[]] * len(indices)
        lengths = self._length[indices]
        for k in np.flatnonzero(np.bincount(lengths[lengths > 0])).tolist():
            pos = np.flatnonzero(lengths == k)
            rows = self._tables[k][1][self._row[indices[pos]]]
            for p, items in zip(pos.tolist(), rows.tolist()):
                out[p] = items
        return out

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

    def lattice(self, k: int) -> np.ndarray:
        """Level k of the subset lattice: an ``(n_k, 2^k)`` array whose entry
        ``[r, mask]`` is the dense index of the subset of row r of the length-k
        table (``length_tables``) that holds its i-th item iff bit i of
        ``mask`` is set; column ``2^k - 1`` is the row itself.

        Built on first use, together with the shorter levels it is read from,
        and kept: a consumer that stops at length k builds no longer level.
        The catalog must be closed under subsets, as a mined one is (every
        subset of a frequent itemset is frequent); a missing subset is a
        ValueError that names it, raised at the shortest length missing one.
        Dense indices are held as int32 where they fit.
        """
        if k not in self._lattice:
            self._lattice[k] = self._lattice_level(k)
        return self._lattice[k]

    def _lattice_level(self, k: int) -> np.ndarray:
        """Level k, read from level k-1 through each row's k drop-one parents:
        only those are looked up, every other subset is read from the row of
        level k-1 of one of them."""
        # the global subgroup is the one 0-itemset; a missing level k-1 fails
        # the parent lookup below
        prev = self.lattice(k - 1) if k - 1 in self._tables else np.zeros((1, 1), dtype=np.intp)
        idx, items, _ = self._tables[k]
        parents = np.array([self.indices_of(np.delete(items, i, axis=1)) for i in range(k)])
        if (parents < 0).any():
            i, r = np.argwhere(parents < 0)[0]
            raise ValueError(
                f"itemset {np.delete(items[r], i).tolist()} is not a mined subgroup; "
                "explanations need a catalog closed under subsets, as `mine` writes it"
            )
        masks = np.arange((1 << k) - 1)
        dtype = np.int32 if len(self) <= np.iinfo(np.int32).max else np.intp
        subsets = np.empty((len(idx), len(masks) + 1), dtype=dtype)
        subsets[:, -1] = idx
        # each mask through the parent that drops its lowest unset bit
        via = np.bitwise_count((~masks & (masks + 1)) - 1).astype(np.intp)
        subsets[:, :-1] = prev[self._row[parents[via]].T, _drop_bit(masks, via)]
        return subsets

    def counting_plan(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per itemset length, shortest first, ``(indices, bases, rest)`` for
        :func:`_joined`: the itemsets with their prefix as base and last item as
        rest, then those whose prefix is not in the catalog (none in a mined
        one) with the global subgroup 0 as base and all their items. Kept."""
        if self._plan is None:
            self._plan = []
            for k in sorted(self._tables):
                idx, items, _ = self._tables[k]
                bases = self.indices_of(items[:, :-1])
                whole = bases < 0
                self._plan.append((idx[~whole], bases[~whole], items[~whole, -1:]))
                self._plan.append((idx[whole], np.zeros(whole.sum(), dtype=np.intp), items[whole]))
        return self._plan

    def subsets(self, j: int) -> np.ndarray:
        """The dense indices of every subset of subgroup j, in the mask order
        of :meth:`lattice`: its row of ``lattice(k)``, or ``[0]`` for the
        global subgroup."""
        k = int(self._length[j])
        return self.lattice(k)[self._row[j]] if k else np.zeros(1, dtype=np.intp)

    def supports(self) -> np.ndarray:
        """The support of each subgroup, in dense order (read-only)."""
        return self._support

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n_items": self.n_items,
            "min_support": self.config.min_support,
            "max_len": self.config.max_len,
            "subgroups": [
                {"items": items, "support": s, "count": c}
                for items, s, c in zip(
                    self.items_of(np.arange(len(self))), self._support.tolist(), self._count.tolist()
                )
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SubgroupCatalog":
        """The catalog ``to_dict`` wrote, its numbers checked as exact:
        ``n_items``, ``max_len``, each count and item id an integer >= 0 (not
        a boolean), each support a finite number in [0, 1]."""
        config = MiningConfig(min_support=float(d["min_support"]), max_len=_json_count(d["max_len"], "max_len"))
        entries = d["subgroups"]
        tables = _length_tables([e["items"] for e in entries])
        support, count = [e["support"] for e in entries], [e["count"] for e in entries]
        s = np.array(support, dtype=np.float64) if set(map(type, support)) <= {int, float} else None
        if s is None or not ((0 <= s) & (s <= 1)).all():  # NaN fails both
            _reject(support, "support", "a finite number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1)
        c = np.array(count, dtype=np.int64) if set(map(type, count)) <= {int} else None
        if c is None or (c < 0).any():
            _reject(count, "count", "an integer >= 0", lambda v: type(v) is int and v >= 0)
        return cls(tables, s, c, _json_count(d["n_items"], "n_items"), config)


def _json_count(value, name: str) -> int:
    """``value`` if it is a JSON integer >= 0 (not a boolean), else a
    ValueError naming ``name``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def _reject(values: Sequence, field: str, rule: str, ok) -> NoReturn:
    """The ValueError for the first subgroup whose ``field`` fails ``ok``."""
    j = next(j for j, v in enumerate(values) if not ok(v))
    raise ValueError(f"subgroups[{j}].{field} must be {rule}, got {values[j]!r}")


def _length_tables(itemsets: Sequence[Sequence[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Itemsets in dense order as per-length ``(indices, items)`` tables, one
    pass per length. Each itemset must be a list of integers (not booleans);
    itemset 0 must be the global (empty) one, and it alone."""
    if not set(map(type, itemsets)) <= {list}:
        _reject(itemsets, "items", "a list", lambda v: type(v) is list)
    lengths = np.fromiter(map(len, itemsets), dtype=np.intp, count=len(itemsets))
    if not len(lengths) or lengths[0]:
        raise ValueError("subgroups[0] must be the global (empty) subgroup")
    empty = np.flatnonzero(lengths == 0)
    if len(empty) > 1:
        raise ValueError(f"subgroup {empty[1]} repeats the global (empty) itemset")
    tables = []
    for k in np.flatnonzero(np.bincount(lengths[1:])).tolist():
        idx = np.flatnonzero(lengths == k)
        flat = list(chain.from_iterable(map(itemsets.__getitem__, idx.tolist())))
        if set(map(type, flat)) != {int}:
            _reject(itemsets, "items", "a list of integers", lambda v: set(map(type, v)) <= {int})
        tables.append((idx, np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, k)))
    return tables


def _drop_bit(masks: np.ndarray, i) -> np.ndarray:
    """``masks`` (bit i unset) as masks over the items left when item i is
    dropped; ``i`` is one position or one per mask."""
    return masks & ((1 << i) - 1) | (masks >> (i + 1)) << i


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


def _popcounts(words: np.ndarray) -> np.ndarray:
    """The set bits of each row of a 2-D ``uint64`` array, as exact int64
    counts (a row of no words counts 0). ``einsum`` accumulates the per-word
    counts straight into int64, which at batch widths is faster than
    ``sum(axis=1)``."""
    return np.einsum("ij->i", np.bitwise_count(words), dtype=np.int64)


# Candidates counted per step: bounds the gathered bitmaps to CHUNK rows
# (3 MB at 24k instances); larger steps used more memory and were no faster.
CHUNK = 1024


def _prefix_pairs(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row pair ``a < b`` of a lexicographically sorted ``(n, m)``
    array that agrees on the first m-1 columns, ordered by ``(a, b)``."""
    n = len(sets)
    starts = np.flatnonzero(
        np.concatenate([[True], (sets[1:, :-1] != sets[:-1, :-1]).any(axis=1)])
    )
    bounds = np.append(starts, n)
    ends = np.repeat(bounds[1:], np.diff(bounds))  # end of each row's group
    partners = ends - np.arange(n) - 1
    a = np.repeat(np.arange(n), partners)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(partners) - partners, partners)
    return a, b


def _joined(bits: np.ndarray, parents: np.ndarray, item_bits: np.ndarray, items: np.ndarray):
    """``(start, bitmaps)`` over CHUNK rows at a time, row r ``bits[parents[r]]``
    ANDed with ``item_bits`` of each item in row r of the ``(n, m)`` ``items``:
    the one rule, for the miner and for ``sgmetrics.membership``, that builds
    an itemset's bitmap from its parent's (its prefix, or the global subgroup)."""
    for lo in range(0, len(parents), CHUNK):
        out = bits[parents[lo : lo + CHUNK]]
        for column in items[lo : lo + CHUNK].T:
            out &= item_bits[column]
        yield lo, out


def mine_frequent(
    points: Membership,
    config: MiningConfig,
    item_attrs: Sequence[object] | None = None,
) -> SubgroupCatalog:
    """Mine all itemsets with support >= ``config.min_support`` exactly.

    Level-wise Apriori over arrays: the frequent (k-1)-itemsets are a
    lexicographically sorted ``(n, k-1)`` array with their packed member
    bitmaps; candidates of length k join two of them that share a prefix
    and are counted by ANDing a parent bitmap with the packed bitmap of the
    new item from the point matrix ``points`` (one row per item, as
    ``build_point_matrix``) and popcounting. The exact count alone keeps a
    candidate: support is anti-monotone, so one with an infrequent subset
    is dropped by its own count, and no subset search is made. When
    ``item_attrs`` gives the attribute of each item, candidates combining two
    values of one attribute are excluded structurally (their support is zero
    by construction). Output ordering is lexicographic by item ids, with the
    global subgroup first.
    """
    n_rows, n_items = points.shape
    if n_rows == 0:
        raise ValueError("cannot mine an empty point matrix")
    if item_attrs is not None and len(item_attrs) != n_items:
        raise ValueError("item_attrs length must equal the item count")
    if item_attrs is None:
        attr_ids = np.arange(n_items)
    else:
        codes: dict = {}
        attr_ids = np.array([codes.setdefault(a, len(codes)) for a in item_attrs], dtype=np.intp)

    item_bits = points.bits.view(np.uint64)
    counts = _popcounts(item_bits)
    keep = counts / n_rows >= config.min_support
    sets = np.flatnonzero(keep)[:, None]
    bits = item_bits[sets[:, 0]]
    levels = [(sets, counts[keep])]

    for k in range(2, config.max_len + 1):
        if not len(sets):
            break
        a, b = _prefix_pairs(sets)
        differ = attr_ids[sets[a, -1]] != attr_ids[sets[b, -1]]
        a, b = a[differ], b[differ]
        cand = np.concatenate([sets[a], sets[b, -1:]], axis=1)
        counts = np.empty(len(cand), dtype=np.int64)
        for lo, joined in _joined(bits, a, item_bits, cand[:, -1:]):
            counts[lo : lo + len(joined)] = _popcounts(joined)
        keep = counts / n_rows >= config.min_support
        sets, a = cand[keep], a[keep]
        levels.append((sets, counts[keep]))
        if k < config.max_len:  # the last level's bitmaps are never joined
            # ANDed again for the survivors only: keeping each chunk's
            # survivors and concatenating them held the level twice
            next_bits = np.empty((len(sets), bits.shape[1]), dtype=np.uint64)
            for lo, joined in _joined(bits, a, item_bits, sets[:, -1:]):
                next_bits[lo : lo + len(joined)] = joined
            bits = next_bits
    return _catalog_of_levels(levels, n_rows, n_items, config)


def _catalog_of_levels(levels, n_rows: int, n_items: int, config: MiningConfig) -> SubgroupCatalog:
    """The catalog of per-length ``(sorted itemsets, counts)`` pairs, in
    dense order: lexicographic over all itemsets, the global subgroup first."""
    levels = [(sets, c) for sets, c in levels if len(sets)]
    total = sum(len(sets) for sets, _ in levels)
    count = np.empty(total + 1, dtype=np.int64)
    count[0] = n_rows
    dense = _lexicographic_ranks([sets for sets, _ in levels]) + 1
    offsets = np.cumsum([0] + [len(sets) for sets, _ in levels])
    tables = [(dense[lo : lo + len(sets)], sets) for (sets, _), lo in zip(levels, offsets)]
    for (idx, _), (_, c) in zip(tables, levels):
        count[idx] = c
    return SubgroupCatalog(tables, count / n_rows, count, n_items, config)


def _lexicographic_ranks(sets: Sequence[np.ndarray]) -> np.ndarray:
    """The position of each row of the ``(n_k, k)`` arrays ``sets`` (taken
    in turn) in the lexicographic order of all of them: one ``lexsort`` over
    the rows padded with -1, so that a prefix sorts before its extensions."""
    total = sum(len(s) for s in sets)
    ranks = np.empty(total, dtype=np.intp)
    if total:
        padded = np.full((total, max(s.shape[1] for s in sets)), -1, dtype=np.intp)
        lo = 0
        for s in sets:
            padded[lo : lo + len(s), : s.shape[1]] = s
            lo += len(s)
        ranks[np.lexsort(padded.T[::-1])] = np.arange(total)
    return ranks
