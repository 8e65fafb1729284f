"""Item catalogs: mapping raw tabular records to interpretable attribute=value items.

A catalog fixes, once, how every attribute of a record is turned into items:
categorical attributes pass their values through, continuous attributes are
discretized into equal-frequency bins whose edges are computed from the
reference data and frozen. Encoding is deterministic for the lifetime of the
catalog, which makes item ids stable across the whole monitoring run.

Reference data is read once into typed columns (:class:`ColumnData`): each
raw column is factorized as it is read, a block of records at a time, values
are parsed per distinct value, and catalogs and point matrices come from
array lookups over the codes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .mining import _json_count, _packed_rows
from .sgmetrics import Membership

__all__ = [
    "Column",
    "ColumnData",
    "DataError",
    "Item",
    "ItemCatalog",
    "MetricSpec",
    "build_catalog",
    "read_columns",
    "read_rows",
    "atomic_open",
]

# Values treated as missing in raw records. "?" is the common tabular-census
# convention; None covers JSONL nulls.
MISSING_VALUES = frozenset({"", "?", "NA", "N/A", None})

# Column names reserved for outcomes; never turned into metadata items.
OUTCOME_COLUMNS = frozenset({"y", "y_hat", "alpha", "beta"})

# Structural columns of stream files (batch numbering), also never items.
RESERVED_COLUMNS = OUTCOME_COLUMNS | {"batch"}

T = TypeVar("T")


class DataError(ValueError):
    """Raised for malformed or inconsistent input data files."""


@dataclass(frozen=True)
class Item:
    """One attribute=value pair with its dense integer id."""

    attribute: str
    value: str
    id: int

    @property
    def label(self) -> str:
        return f"{self.attribute}={self.value}"


def _fmt_number(x: float) -> str:
    """Compact, deterministic numeric formatting for bin labels (25.0 -> '25')."""
    if math.isfinite(x) and float(x).is_integer():
        return str(int(x))
    return format(x, ".12g")


@dataclass(frozen=True)
class _Discretizer:
    """Binning rule for one attribute.

    kind "categorical": values pass through verbatim.
    kind "quantile": ``edges`` are the interior cut points, with
    ``lo <= e1 < ... < ek < hi``; values fall into ``[lo, e1], (e1, e2], ...,
    (ek, hi]``. Values outside ``[lo, hi]`` produce no item (same policy as
    unseen categorical values).
    """

    kind: str
    bins: int = 0
    edges: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def labels(self) -> list[str]:
        bounds = (self.lo, *self.edges, self.hi)
        out = []
        for i in range(len(bounds) - 1):
            open_l = "[" if i == 0 else "("
            out.append(f"{open_l}{_fmt_number(bounds[i])},{_fmt_number(bounds[i + 1])}]")
        return out

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "quantile":
            # decimal strings keep edges bit-stable across platforms
            d.update(
                bins=self.bins,
                edges=[repr(e) for e in self.edges],
                lo=repr(self.lo),
                hi=repr(self.hi),
            )
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "_Discretizer":
        if d["kind"] == "categorical":
            return cls(kind="categorical")
        disc = cls(
            kind="quantile",
            bins=_json_count(d["bins"], "bins"),
            edges=tuple(float(e) for e in d["edges"]),
            lo=float(d["lo"]),
            hi=float(d["hi"]),
        )
        # the encoder bisects the edges; the first bin [lo, e1] may hold lo alone
        bounds = (disc.lo, *disc.edges, disc.hi)
        if not (bounds[0] <= bounds[1] and all(a < b for a, b in zip(bounds[1:], bounds[2:]))):
            raise DataError(
                f"quantile bounds must satisfy lo <= e1 < ... < ek < hi, got lo={disc.lo!r}, "
                f"edges={list(disc.edges)!r}, hi={disc.hi!r}"
            )
        return disc


def _quantile_discretizer(attr: str, bins: int, values: np.ndarray) -> _Discretizer:
    """Equal-frequency bins of the non-NaN ``values``, by one stable sort.

    Edge k (k = 1..bins-1) is the sorted value at index floor((n-1) * k / bins).
    Duplicate edges collapse, so low-cardinality numeric attributes degrade
    gracefully to one bin per distinct value. ``lo`` and ``hi`` are the first
    minimal and the first maximal value in input order (as ``min`` and ``max``
    return them; this decides the sign of a zero bound).
    """
    srt = np.sort(values[~np.isnan(values)], kind="stable")
    if not len(srt):
        raise DataError(f"attribute {attr!r} has no non-missing values")
    n, top = len(srt), srt[-1]
    edges: list[float] = []
    for k in range(1, bins):
        e = float(srt[(n - 1) * k // bins])
        # an edge at the maximum would create an empty (hi, hi] bin; an edge
        # at the minimum is fine (singleton first bin [lo, lo])
        if (not edges or e > edges[-1]) and e < top:
            edges.append(e)
    hi = float(srt[np.searchsorted(srt, top)])
    return _Discretizer(kind="quantile", bins=bins, edges=tuple(edges), lo=float(srt[0]), hi=hi)


# The encoder of an outcome or batch column: never an item.
_RESERVED = object()


def _text(raw: object) -> str | None:
    """A raw value's text as the catalog reads it, stripped; None when it is
    missing. A JSON number or bool is its ``str``; a JSON array or object is
    its text, as ``mine`` reads it."""
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if raw in MISSING_VALUES:
            return None
    except TypeError:  # unhashable: a JSON array or object
        pass
    return raw if isinstance(raw, str) else str(raw).strip()


class ItemCatalog:
    """Immutable bidirectional map between attribute=value items and dense ids.

    ``items`` lists the items in id order (item i has id i), so an id is read
    as a position. Build with :func:`build_catalog`; after that the catalog
    never changes, so any number of workers may encode concurrently.
    """

    def __init__(self, items: Sequence[Item], discretizers: Mapping[str, _Discretizer]):
        self.items: tuple[Item, ...] = tuple(items)
        self.discretizers: dict[str, _Discretizer] = dict(discretizers)
        self._by_key: dict[tuple[str, str], int] = {
            (it.attribute, it.value): it.id for it in self.items
        }
        if len(self._by_key) != len(self.items):
            raise ValueError("duplicate (attribute, value) pair in catalog")
        misplaced = next((i for i, it in enumerate(self.items) if it.id != i), None)
        if misplaced is not None:
            raise ValueError(
                f"item {misplaced} has id {self.items[misplaced].id}; items must be listed in id order"
            )
        # per attribute, the value -> item id dict of a categorical one, or a
        # quantile one's (lo, hi, edges, item id of each bin or None); an
        # outcome or batch column is _RESERVED, whatever the discretizers say.
        # A categorical dict holds only the values that a raw value can match
        # once stripped and not missing: a hand-edited catalog may hold "?" or
        # " x", which no value encodes to.
        self._encoders: dict[str, dict | tuple | object] = {}
        for attr, disc in self.discretizers.items():
            if disc.kind == "quantile":
                bin_ids = [self._by_key.get((attr, label)) for label in disc.labels()]
                self._encoders[attr] = (disc.lo, disc.hi, list(disc.edges), bin_ids)
            else:
                self._encoders[attr] = {
                    it.value: it.id
                    for it in self.items
                    if it.attribute == attr and it.value == it.value.strip() and it.value not in MISSING_VALUES
                }
        self._encoders.update(dict.fromkeys(RESERVED_COLUMNS, _RESERVED))

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.discretizers)

    def item_attributes(self) -> list[str]:
        """Attribute name of each item, indexed by item id."""
        return [it.attribute for it in self.items]

    def id_of(self, attribute: str, value: str) -> int | None:
        return self._by_key.get((attribute, value))

    def label_of(self, item_id: int) -> str:
        return self.items[item_id].label

    def encode(self, record: Mapping[str, object]) -> tuple[int, ...]:
        """Encode a raw record into its sorted item-id set.

        Missing values, unseen categorical values, and out-of-range continuous
        values produce no item for that attribute; they never raise. Attributes
        absent from the catalog are ignored.
        """
        ids, _ = self.encode_with_stats(record)
        return ids

    def encode_with_stats(self, record: Mapping[str, object]) -> tuple[tuple[int, ...], int]:
        """Like :meth:`encode`, also returning the number of skipped values.

        A value is skipped when it is present and non-missing but maps to no
        item (unseen categorical value, out-of-range continuous value, or an
        attribute unknown to the catalog).
        """
        ids: list[int] = []
        skipped = 0
        encoders = self._encoders
        for attr, raw in record.items():
            encoder = encoders.get(attr)
            if encoder is _RESERVED:
                continue
            if type(encoder) is dict:
                # the common case, a text that is exactly a catalog value, in one lookup
                item_id = encoder.get(raw) if type(raw) is str else None
                if item_id is None:
                    text = _text(raw)
                    if text is None:
                        continue
                    item_id = encoder.get(text)
            elif encoder is not None:
                lo, hi, edges, bin_ids = encoder
                try:
                    # float() strips a text as _text does; a bool is its text, "True" or "False"
                    x = math.nan if type(raw) is bool else float(raw)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    if _text(raw) is None:
                        continue
                    x = math.nan  # unparsable: skipped, as NaN is
                # bin i is (e_i, e_i+1], the first one [lo, e1]; NaN fails both tests
                item_id = bin_ids[bisect_left(edges, x)] if lo <= x <= hi else None
            elif _text(raw) is None:
                continue
            else:
                item_id = None  # an attribute unknown to the catalog
            if item_id is None:
                skipped += 1
            else:
                ids.append(item_id)
        return tuple(sorted(ids)), skipped

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "items": [
                {"attribute": it.attribute, "value": it.value, "id": it.id}
                for it in self.items
            ],
            "discretizers": {a: d.to_dict() for a, d in self.discretizers.items()},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ItemCatalog":
        items = [
            Item(e["attribute"], e["value"], _json_count(e["id"], f"items[{i}].id"))
            for i, e in enumerate(d["items"])
        ]
        discs = {a: _Discretizer.from_dict(dd) for a, dd in d["discretizers"].items()}
        return cls(items, discs)


def build_catalog(
    records: Sequence[Mapping[str, object]],
    binning_config: Mapping[str, object] | None = None,
    default_bins: int = 4,
) -> ItemCatalog:
    """Build an :class:`ItemCatalog` from reference records.

    ``binning_config`` maps attribute names to either ``"categorical"`` or
    ``("quantile", n_bins)``. Unlisted attributes are auto-detected: numeric
    values get ``default_bins`` equal-frequency bins, everything else is
    categorical. Quantile edges are computed from ``records`` only and are
    fixed for the lifetime of the catalog; a value that parses as NaN is
    missing there. Outcome and stream-structure columns (y, y_hat, alpha,
    beta, batch) are never turned into items.
    """
    if not records:
        raise ValueError("cannot build a catalog from zero records")
    binning = dict(binning_config or {})
    categorical = frozenset(a for a, rule in binning.items() if rule == "categorical")
    table = ColumnData.from_columns(_columns_of_records(records), categorical=categorical)
    return table.build_catalog(np.arange(table.n), default_bins, binning)


def _catalog_of_columns(columns: Iterable[tuple[str, int | None, object]]) -> ItemCatalog:
    """The catalog of per-attribute columns, items in column order.

    Each column is ``(attribute, None, values)`` for a categorical attribute,
    ``values`` its distinct non-missing strings in sorted order, or
    ``(attribute, bins, values)`` for a quantile one, ``values`` a float
    array in row order with NaN for missing.
    """
    discretizers: dict[str, _Discretizer] = {}
    items: list[Item] = []
    for a, bins, values in columns:
        if bins is None:
            if not values:
                raise DataError(f"attribute {a!r} has no non-missing values")
            discretizers[a] = _Discretizer(kind="categorical")
            labels = values
        else:
            discretizers[a] = _quantile_discretizer(a, bins, values)
            labels = discretizers[a].labels()
        items += [Item(a, v, i) for i, v in enumerate(labels, start=len(items))]
    return ItemCatalog(items, discretizers)


# Types whose equal values have equal text, so a value of one of them can
# be its own factorize key; other numbers cannot (1, 1.0 and True, or 0.0 and
# -0.0, are one dict key).
_TEXT_EXACT = frozenset({str, int, type(None)})

# An in-memory column of only these is numeric with no text round trip
# (unless forced categorical), None for missing.
_FLOAT_OR_NONE = frozenset({float, type(None)})

# Records read and factorized at a time: bounds the raw cells held as
# objects to BLOCK rows.
BLOCK = 1024


def _key(value: object) -> object:
    """The factorize key of a raw value: the value itself for a str, int or
    None; otherwise its type and repr, so that 1, 1.0 and True, or 0.0 and
    -0.0, stay apart, and a JSON array or object is hashable."""
    return value if type(value) in _TEXT_EXACT else (type(value), repr(value))


class Column:
    """One raw column: its distinct values in first-seen order, and per row
    the code of its value. Iterating gives the raw values in row order."""

    __slots__ = ("values", "codes")

    def __init__(self, values: list, codes: np.ndarray):
        self.values, self.codes = values, codes

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator:
        get = self.values.__getitem__
        return chain.from_iterable(
            map(get, self.codes[lo : lo + BLOCK].tolist()) for lo in range(0, len(self.codes), BLOCK)
        )


class _Factorizer:
    """A :class:`Column` built one block of raw values at a time: a value's
    :func:`_key` takes the next code when first seen, whatever block brings
    it. ``missing`` rows read before the column's first block lack it: None."""

    def __init__(self, missing: int = 0):
        self.codes: defaultdict = defaultdict(count().__next__)
        self.raw: dict = {}  # the first raw value of each (type, repr) key
        self.blocks: list[np.ndarray] = []
        if missing:
            self.blocks.append(np.full(missing, self.codes[None], dtype=np.intp))

    def add(self, block: Sequence) -> None:
        keys = block
        if not _TEXT_EXACT.issuperset(map(type, block)):
            keys = list(map(_key, block))
            for key, value in zip(keys, block):
                if key is not value:  # a (type, repr) key
                    self.raw.setdefault(key, value)
        self.blocks.append(np.fromiter(map(self.codes.__getitem__, keys), dtype=np.intp, count=len(keys)))

    def column(self) -> Column:
        """The column read so far; the factorizer is spent."""
        blocks, self.blocks = self.blocks, []
        values = [self.raw.get(key, key) for key in self.codes]
        return Column(values, np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp))


def _factorize(values: Sequence) -> Column:
    """An in-memory column, factorized as one block."""
    factorizer = _Factorizer()
    factorizer.add(values)
    return factorizer.column()


def _columns_of_records(records: Iterable[Mapping[str, object]]) -> dict[str, Column]:
    """The columns of ``records``, factorized BLOCK records at a time: the
    union of their keys in first-seen order, None where a record lacks one."""
    records = iter(records)
    columns: dict[str, _Factorizer] = {}
    n = 0
    while block := list(islice(records, BLOCK)):
        for name in dict.fromkeys(chain.from_iterable(block)):
            if name not in columns:
                columns[name] = _Factorizer(missing=n)
        for name, factorizer in columns.items():
            factorizer.add([r.get(name) for r in block])
        n += len(block)
    return {name: factorizer.column() for name, factorizer in columns.items()}


def _columns_of_rows(rows: Iterable[Sequence], width: int) -> list[Column]:
    """The ``width`` columns of ``rows``, each a sequence of ``width`` cells,
    factorized BLOCK rows at a time."""
    rows = iter(rows)
    columns = [_Factorizer() for _ in range(width)]
    while block := list(islice(rows, BLOCK)):
        for factorizer, values in zip(columns, zip(*block)):
            factorizer.add(values)
    return [factorizer.column() for factorizer in columns]


def _floats(texts: Sequence[str]) -> np.ndarray | None:
    """``texts`` as floats, NaN for "" (missing); None unless every one parses."""
    try:
        return np.array([math.nan if t == "" else float(t) for t in texts], dtype=np.float64)
    except ValueError:
        return None


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class ColumnData:
    """A table as typed columns: the one ingest path from raw values to
    catalogs and point matrices.

    An attribute is numeric when every non-missing value parses as a float
    and it is not listed in ``categorical``; its column in ``numeric`` is a
    float array with NaN for missing. Every other attribute is factorized:
    ``codes`` index its sorted distinct stripped strings ``uniques``, where
    "" stands for missing. Types are fixed from the whole table, whatever
    rows a catalog is built from. Values are stripped, tested for missing
    and parsed once per distinct value; an in-memory column of only floats
    and None is taken as numbers directly. ``y`` is the int label column, or
    None. Outcome and stream-structure columns are never attributes.

    ``ColumnData(rows)`` takes dict rows (keys in first-seen order, ``y``
    from a "y" key); :meth:`from_columns` takes the columns of a file.
    """

    def __init__(self, rows: Sequence[Mapping[str, object]], categorical: frozenset[str] = frozenset()):
        if not rows:
            raise ValueError("no rows")
        columns = _columns_of_records(rows)
        y = columns.pop("y", None)
        self.n = len(rows)
        self.y = None if y is None else np.array([int(v) for v in y.values], dtype=np.int64)[y.codes]
        self._fill(columns, categorical)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Column | Sequence],
        categorical: frozenset[str] = frozenset(),
        y: np.ndarray | None = None,
    ) -> "ColumnData":
        """The table of raw ``columns`` (attribute -> a :class:`Column`, as
        :func:`read_columns` returns them, or the values in row order), all
        of one length; the mapping itself is left as it is."""
        table = cls.__new__(cls)
        table.n, table.y = len(next(iter(columns.values()), ())), y
        table._fill(dict(columns), categorical)
        return table

    def _fill(self, columns: dict[str, Column | Sequence], categorical: frozenset[str]) -> None:
        """Type the raw ``columns`` that are attributes. Each is popped from
        ``columns``, which the caller hands over, so that it is freed once
        typed."""
        self.attrs = [a for a in columns if a not in RESERVED_COLUMNS]
        self.numeric: dict[str, np.ndarray] = {}
        self.codes: dict[str, np.ndarray] = {}
        self.uniques: dict[str, np.ndarray] = {}
        for a in self.attrs:
            col = columns.pop(a)
            if not isinstance(col, Column):
                if a not in categorical and _FLOAT_OR_NONE.issuperset(map(type, col)):
                    # a float's text parses back to that float, so take it as is
                    self.numeric[a] = np.array(col, dtype=np.float64)  # None -> NaN
                    continue
                col = _factorize(col)
            text = ["" if t is None else t for t in map(_text, col.values)]
            numbers = None if a in categorical else _floats(text)
            if numbers is not None:
                self.numeric[a] = numbers[col.codes]
                continue
            uniques = sorted(set(text))
            position = {u: i for i, u in enumerate(uniques)}
            self.uniques[a] = np.array(uniques, dtype=object)
            self.codes[a] = np.array([position[t] for t in text], dtype=np.intp)[col.codes]

    def feature_matrix(self) -> np.ndarray:
        """Numeric design matrix for the tree: raw numbers, ordinal codes."""
        X = np.zeros((self.n, len(self.attrs)))
        for j, a in enumerate(self.attrs):
            if a in self.numeric:
                col = self.numeric[a]
                X[:, j] = np.where(np.isnan(col), -1.0, col)
            else:
                X[:, j] = self.codes[a]
        return X

    def records(self, idx: np.ndarray) -> list[dict]:
        out = []
        for i in idx:
            rec: dict = {}
            for a in self.attrs:
                if a in self.numeric:
                    v = self.numeric[a][i]
                    rec[a] = None if np.isnan(v) else float(v)
                else:
                    s = str(self.uniques[a][self.codes[a][i]])
                    rec[a] = None if s == "" else s
            if self.y is not None:
                rec["y"] = int(self.y[i])
            out.append(rec)
        return out

    def build_catalog(
        self, train_idx: np.ndarray, bins: int = 4, binning: Mapping[str, object] | None = None
    ) -> ItemCatalog:
        """Catalog from the rows ``train_idx``, with the attribute types fixed
        from the whole table. ``binning`` maps attributes to ``"quantile"``
        (``bins`` bins) or ``("quantile", k)``; a ``"categorical"`` one must
        also have been given to the table. Unlisted numeric attributes get
        ``bins`` bins. Without ``binning``, equal to
        ``build_catalog(self.records(train_idx), binning_config={a:
        "categorical" for a in self.codes}, default_bins=bins)`` (covered by
        an equivalence test). A rule for a column that is no attribute of the
        table (an outcome or batch column among them) is a ValueError."""
        binning = binning or {}
        unknown = [a for a in binning if a not in self.numeric and a not in self.codes]
        if unknown:
            raise ValueError(f"binning rule for {unknown[0]!r}, which is not an attribute of the table")

        def columns():
            for a in self.attrs:
                rule = binning.get(a)
                if rule is None:
                    k = bins if a in self.numeric else None
                elif rule == "categorical":
                    if a in self.numeric:
                        raise ValueError(f"attribute {a!r} is numeric in this table, not categorical")
                    k = None
                elif rule == "quantile":
                    k = bins
                elif isinstance(rule, (tuple, list)) and len(rule) == 2 and rule[0] == "quantile":
                    k = int(rule[1])
                else:
                    raise ValueError(f"unknown binning rule {rule!r} for attribute {a!r}")
                if k is None:
                    present = self.uniques[a][np.flatnonzero(np.bincount(self.codes[a][train_idx]))]
                    yield a, None, [s for s in present.tolist() if s]
                    continue
                if rule is not None and k < 1:
                    raise ValueError(f"bin count must be >= 1 for attribute {a!r}")
                if a not in self.numeric:
                    raise ValueError(f"attribute {a!r} has non-numeric values, so no quantile bins")
                yield a, k, self.numeric[a][train_idx]

        return _catalog_of_columns(columns())

    def point_matrix(self, idx: np.ndarray, catalog: ItemCatalog) -> Membership:
        """Point matrix (packed item bitmaps) of the selected rows, vectorized
        over the catalog's own per-attribute lookup, as ``encode`` uses it:
        an attribute with no column gives no item, and a quantile attribute's
        text parses as a float (NaN if it does not)."""
        n = len(idx)
        # one bool row per item, plus a last row that collects the id -1 of
        # values outside the catalog and is dropped before packing
        mask = np.zeros((catalog.n_items + 1, n), dtype=bool)
        instances = np.arange(n)
        for attr, encoder in catalog._encoders.items():
            if attr not in self.numeric and attr not in self.codes:  # an outcome or batch column too
                continue
            if isinstance(encoder, dict):
                if attr in self.numeric:
                    raise ValueError(f"attribute {attr!r} is categorical in the catalog, numeric in the table")
                trans = np.array(
                    [encoder.get(str(u), -1) for u in self.uniques[attr]], dtype=np.int64
                )
                ids = trans[self.codes[attr][idx]]
            else:
                lo, hi, edges, bin_ids = encoder
                bin_ids = np.array([-1 if i is None else i for i in bin_ids], dtype=np.int64)
                if attr in self.numeric:
                    x = self.numeric[attr][idx]
                else:
                    x = np.array([_float_or_nan(u) for u in self.uniques[attr]])[self.codes[attr][idx]]
                binned = bin_ids[np.searchsorted(edges, x, side="left")]
                ids = np.where(~np.isnan(x) & (x >= lo) & (x <= hi), binned, -1)
            mask[ids, instances] = True
        return Membership(bits=_packed_rows(mask[:-1]), n_instances=n)


# ---------------------------------------------------------------------------
# Outcomes and input files
# ---------------------------------------------------------------------------


# The exact outcome texts, looked up before the parse. Keyed by str only, so
# True, 1 and 1.0 still take the parse and its messages.
_BIT_TEXTS = {"0": 0, "1": 1}


def _bit(value: object, col: str, row_num: int) -> int:
    """The 0/1 outcome indicator ``value``, read from column ``col`` of row
    ``row_num`` (None when the row lacks it): a value whose
    ``float(str(value))`` is 0 or 1."""
    try:
        return _BIT_TEXTS[value]  # type: ignore[index]
    except (KeyError, TypeError):  # any other value, or an unhashable one
        pass
    try:
        x = float(str(value))
    except ValueError:  # a missing column reads "None"
        raise DataError(f"row {row_num}: column {col!r} is not a 0/1 value")
    if x not in (0.0, 1.0):
        raise DataError(f"row {row_num}: column {col!r} must be 0 or 1, got {value!r}")
    return int(x)


@dataclass(frozen=True)
class MetricSpec:
    """How outcome indicators are derived from file columns.

    kind "accuracy": alpha = 1 iff y == y_hat, beta = 1 iff y != y_hat.
    kind "false_positive_rate": alpha = 1 for false positives (y_hat=1, y=0),
    beta = 1 for true negatives (y_hat=0, y=0); rows with y=1 contribute
    neither.
    kind "explicit": the file carries alpha and beta columns directly.
    """

    kind: str = "accuracy"

    def required_columns(self) -> tuple[str, ...]:
        return ("alpha", "beta") if self.kind == "explicit" else ("y", "y_hat")

    def check_columns(self, row: Mapping[str, object]) -> None:
        """Raise a DataError naming each required column that ``row``, a
        file's first row, lacks; later rows are not checked."""
        missing = [c for c in self.required_columns() if c not in row]
        if missing:
            raise DataError(f"missing required column(s): {', '.join(missing)}")

    def outcome(self, row: Mapping[str, object], row_num: int) -> tuple[int, int]:
        if self.kind == "explicit":
            a, b = _bit(row.get("alpha"), "alpha", row_num), _bit(row.get("beta"), "beta", row_num)
            if a + b > 1:
                raise DataError(f"row {row_num}: alpha + beta > 1")
            return a, b
        y, y_hat = _bit(row.get("y"), "y", row_num), _bit(row.get("y_hat"), "y_hat", row_num)
        if self.kind == "accuracy":
            return (1, 0) if y == y_hat else (0, 1)
        if self.kind == "false_positive_rate":
            if y == 0:
                return (1, 0) if y_hat == 1 else (0, 1)
            return (0, 0)
        raise ValueError(f"unknown metric spec kind {self.kind!r}")


def _is_jsonl(path: str | Path) -> bool:
    """Whether every reader takes ``path`` for JSONL (by its suffix)."""
    return Path(path).suffix.lower() in {".jsonl", ".ndjson"}


def _open_data(path: Path, **kwargs):
    """``path`` opened to read UTF-8 text, a leading byte order mark dropped;
    a path that cannot be opened (one that is absent, a directory or
    unreadable) is a :class:`DataError` that names it."""
    try:
        return open(path, encoding="utf-8-sig", **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def read_rows(path: str | Path) -> Iterator[dict[str, object]]:
    """Stream rows from a CSV (RFC 4180, header row, :func:`_csv_records`) or
    JSONL file. In both, blank lines are skipped and an error names its row
    counted from 1 among the non-blank ones."""
    path = Path(path)
    if _is_jsonl(path):
        with _open_data(path) as fh:
            for i, line in enumerate(filter(None, map(str.strip, fh)), start=1):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"row {i}: invalid JSON ({exc.msg})") from exc
                if not isinstance(row, dict):
                    raise DataError(f"row {i}: expected a JSON object")
                yield row
    else:
        with _csv_records(path) as (header, rows):
            for row in rows:
                yield dict(zip(header, row))


def read_columns(path: str | Path) -> dict[str, Column]:
    """Read a CSV or JSONL file into columns: each attribute's raw values as
    a :class:`Column`, factorized BLOCK records at a time, so that no more
    than a block of records is held as objects.

    The rows, values and errors are those of :func:`read_rows`: blank lines
    are skipped, and a cell that a short CSV row or a JSONL object lacks is
    None. JSONL attributes are the union of the objects' keys, in
    first-seen order.
    """
    path = Path(path)
    if _is_jsonl(path):
        return _columns_of_records(read_rows(path))
    with _csv_records(path) as (header, rows):
        return dict(zip(header, _columns_of_rows(rows, len(header))))


@contextmanager
def _csv_records(path: Path) -> Iterator[tuple[list[str], Iterator[list]]]:
    """The header and rows of the CSV file ``path`` under both readers' record
    rule: no header name twice, blank lines skipped, and each other row (from
    1) fitted to the header, short ones padded with None, long ones a DataError."""
    with _open_data(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise DataError(f"{path}: column name(s) repeated in the header: {', '.join(map(repr, repeated))}")
        width = len(header)

        def rows() -> Iterator[list]:
            for i, row in enumerate(filter(None, reader), start=1):
                if len(row) != width:
                    if len(row) > width:
                        raise DataError(f"row {i}: more fields than header columns")
                    row += [None] * (width - len(row))
                yield row

        yield header, rows()


@contextmanager
def atomic_open(path: str | Path) -> Iterator:
    """A text file handle whose contents replace ``path`` only when the block
    completes: writes go to a temp file beside it, renamed over ``path`` on
    success and removed on any failure, so ``path`` is never left partial."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path: str | Path, what: str, build: Callable[[bytes], T]) -> T:
    """``build`` of the bytes of ``path``, read once; an unreadable file, or
    bytes that ``build`` rejects (not UTF-8 or not JSON among them), is one
    DataError that starts with ``what`` and ``path``."""
    try:
        return build(Path(path).read_bytes())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, DataError) as exc:
        reason = str(exc)
    except KeyError as exc:
        reason = f"no field {exc}"
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:  # a field of the wrong type or value
        reason = f"malformed: {exc}"
    raise DataError(f"{what} {path}: {reason}") from None


def read_json(path: str | Path, what: str, build: Callable[[object], T]) -> T:
    """``build`` of the JSON document in the UTF-8 file ``path`` (a leading
    byte order mark dropped), with the errors of :func:`read_file`."""
    return read_file(path, what, lambda data: build(json.loads(data.decode("utf-8-sig"))))
