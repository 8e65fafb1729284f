"""Item catalogs: mapping raw tabular records to interpretable attribute=value items.

A catalog fixes, once, how every attribute of a record is turned into items:
categorical attributes pass their values through, continuous attributes are
discretized into equal-frequency bins whose edges are computed from the
reference data and frozen. Encoding is deterministic for the lifetime of the
catalog, which makes item ids stable across the whole monitoring run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "DataError",
    "Item",
    "ItemCatalog",
    "MetricSpec",
    "build_catalog",
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
            bins=int(d["bins"]),
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


class ItemCatalog:
    """Immutable bidirectional map between attribute=value items and dense ids.

    Build with :func:`build_catalog`; after that the catalog never changes, so
    any number of workers may encode concurrently.
    """

    def __init__(self, items: Sequence[Item], discretizers: Mapping[str, _Discretizer]):
        self.items: tuple[Item, ...] = tuple(items)
        self.discretizers: dict[str, _Discretizer] = dict(discretizers)
        self._by_key: dict[tuple[str, str], int] = {
            (it.attribute, it.value): it.id for it in self.items
        }
        if len(self._by_key) != len(self.items):
            raise ValueError("duplicate (attribute, value) pair in catalog")
        if sorted(it.id for it in self.items) != list(range(len(self.items))):
            raise ValueError("item ids must be a bijection onto 0..n_items-1")
        # per attribute, the value -> item id dict of a categorical one, or a
        # quantile one's (lo, hi, edges, item id of each bin or None)
        self._encoders: dict[str, dict | tuple] = {}
        for attr, disc in self.discretizers.items():
            if disc.kind == "quantile":
                bin_ids = [self._by_key.get((attr, label)) for label in disc.labels()]
                self._encoders[attr] = (disc.lo, disc.hi, list(disc.edges), bin_ids)
            else:
                self._encoders[attr] = {
                    it.value: it.id for it in self.items if it.attribute == attr
                }

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.discretizers)

    def item_attributes(self) -> list[str]:
        """Attribute name of each item, indexed by item id."""
        out = [""] * self.n_items
        for it in self.items:
            out[it.id] = it.attribute
        return out

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
        for attr, raw in record.items():
            if attr in RESERVED_COLUMNS:
                continue
            if isinstance(raw, str):
                raw = raw.strip()
            if raw in MISSING_VALUES:
                continue
            encoder = self._encoders.get(attr)
            if encoder is None:
                item_id = None
            elif isinstance(encoder, dict):
                item_id = encoder.get(raw if isinstance(raw, str) else str(raw).strip())
            else:
                lo, hi, edges, bin_ids = encoder
                try:
                    x = float(raw)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    x = math.nan  # unparsable: skipped, as NaN is
                # bin i is (e_i, e_i+1], the first one [lo, e1]; NaN fails both tests
                item_id = bin_ids[bisect_left(edges, x)] if lo <= x <= hi else None
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
        items = [Item(e["attribute"], e["value"], int(e["id"])) for e in d["items"]]
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
    binning_config = dict(binning_config or {})

    attrs: list[str] = []
    seen = set()
    for rec in records:
        for a in rec:
            if a not in seen and a not in RESERVED_COLUMNS:
                seen.add(a)
                attrs.append(a)

    def columns() -> Iterator[tuple[str, int | None, object]]:
        for a in attrs:
            vals = [
                v
                for v in (rec.get(a) for rec in records)
                if not (v in MISSING_VALUES or (isinstance(v, str) and v.strip() in MISSING_VALUES))
            ]
            cfg = binning_config.get(a)
            if cfg is None:
                try:
                    yield a, default_bins, np.array([float(str(v)) for v in vals], dtype=np.float64)
                except (TypeError, ValueError):
                    yield a, None, sorted({str(v).strip() for v in vals})
                continue
            if cfg == "categorical":
                yield a, None, sorted({str(v).strip() for v in vals})
                continue
            if cfg == "quantile":
                bins = default_bins
            elif isinstance(cfg, (tuple, list)) and len(cfg) == 2 and cfg[0] == "quantile":
                bins = int(cfg[1])
            else:
                raise ValueError(f"unknown binning rule {cfg!r} for attribute {a!r}")
            if bins < 1:
                raise ValueError(f"bin count must be >= 1 for attribute {a!r}")
            yield a, bins, np.array([float(str(v)) for v in vals], dtype=np.float64)

    return _catalog_of_columns(columns())


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


# ---------------------------------------------------------------------------
# Outcomes and input files
# ---------------------------------------------------------------------------


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

    def outcome(self, row: Mapping[str, object], row_num: int) -> tuple[int, int]:
        def bit(col: str) -> int:
            try:
                v = int(float(str(row[col])))
            except (TypeError, ValueError, KeyError):
                raise DataError(f"row {row_num}: column {col!r} is not a 0/1 value")
            if v not in (0, 1):
                raise DataError(f"row {row_num}: column {col!r} must be 0 or 1, got {v}")
            return v

        if self.kind == "explicit":
            a, b = bit("alpha"), bit("beta")
            if a + b > 1:
                raise DataError(f"row {row_num}: alpha + beta > 1")
            return a, b
        y, y_hat = bit("y"), bit("y_hat")
        if self.kind == "accuracy":
            return (1, 0) if y == y_hat else (0, 1)
        if self.kind == "false_positive_rate":
            if y == 0:
                return (1, 0) if y_hat == 1 else (0, 1)
            return (0, 0)
        raise ValueError(f"unknown metric spec kind {self.kind!r}")


def read_rows(path: str | Path) -> Iterator[dict[str, object]]:
    """Stream rows from a CSV (RFC 4180, header row) or JSONL file."""
    path = Path(path)
    if path.suffix.lower() in {".jsonl", ".ndjson"}:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"row {i}: invalid JSON ({exc.msg})") from exc
                if not isinstance(row, dict):
                    raise DataError(f"row {i}: expected a JSON object")
                yield row
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, expected a header row")
            for i, row in enumerate(reader, start=1):
                if None in row:
                    raise DataError(f"row {i}: more fields than header columns")
                yield row


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

