"""Row-at-a-time reference implementations of the ingest that the columnar
path (``read_columns`` -> ``ColumnData``) replaced, of the factorizer
that mapped records to columns with two dict probes per new value, of the concept
experiment that encoded each batch through dict rows, of the tree fit
that re-sorted every feature at every node, of the label-flip injection
that encoded every record on its own, of the report serializer that
built one dict per retained subgroup, of the KSWIN window that was a deque
copied into an array on every row, and of the KSWIN window test that took
its p-value from scipy, kept as test oracles; also the exhaustive
frequent-itemset miner that ``mine_frequent`` is checked against, the
coalition value function that recounted each itemset's drift value from the
window counts, which ``explain.drift_values`` is checked against, and a
chi-squared window that decides by scipy's own contingency tests.

Each but the last is the earlier program code, unchanged but for returning
plain values (and, for the concept experiment, slicing its batches from the
one stream table that the generator now returns).
"""

import json
import warnings
from collections import deque
from itertools import chain, combinations, islice
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from driftscope import evaluation
from driftscope.baselines import (
    DRIFT,
    KSWIN,
    NO_DRIFT,
    Chi2Window,
    ks_two_sample,
    make_detector,
)
from driftscope.catalog import (
    _TEXT_EXACT,
    MISSING_VALUES,
    RESERVED_COLUMNS,
    Column,
    ColumnData,
    DataError,
    ItemCatalog,
    _catalog_of_columns,
    _key,
    read_rows,
)
from driftscope.cli import _csv_text, _load_artifact, _parse_subgroup
from driftscope.datasets import ADULT_COLUMNS
from driftscope.detector import MonitorState, WindowConfig, step
from driftscope.mining import MiningConfig, SubgroupCatalog, mine_frequent
from driftscope.sgmetrics import EncodedBatch, SubgroupStats, aggregate, build_point_matrix, membership
from driftscope.streams import (
    ConceptStreamConfig,
    DriftSchedule,
    TreeModel,
    _inject_flips_columns,
    _Node,
    concept_disagreement,
    fit_tree,
    gen_concept_stream,
)


class Factorizer:
    """A :class:`Column` built one block of raw values at a time, keyed by
    :func:`_key` per value, so a later block may bring a value of a new type.
    ``missing`` rows read before the column's first block lack it: None."""

    def __init__(self, missing: int = 0):
        self.index: dict = {}
        self.values: list = []
        self.blocks: list[np.ndarray] = []
        if missing:
            self.index[None] = 0
            self.values.append(None)
            self.blocks.append(np.zeros(missing, dtype=np.intp))

    def add(self, block: Sequence) -> None:
        keys = block if _TEXT_EXACT.issuperset(map(type, block)) else list(map(_key, block))
        index, values = self.index, self.values
        for key, value in dict(zip(keys, block)).items():
            if key not in index:
                index[key] = len(values)
                values.append(value)
        self.blocks.append(np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys)))

    def column(self) -> Column:
        """The column read so far; the factorizer is spent."""
        blocks, self.blocks, self.index = self.blocks, [], {}
        return Column(self.values, np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.intp))


def columns_of_records(records, block_size):
    """The columns of ``records`` through :class:`Factorizer`, ``block_size``
    records at a time: keys in first-seen order, None where a record lacks one."""
    records = iter(records)
    columns: dict[str, Factorizer] = {}
    n = 0
    while block := list(islice(records, block_size)):
        for name in dict.fromkeys(chain.from_iterable(block)):
            if name not in columns:
                columns[name] = Factorizer(missing=n)
        for name, factorizer in columns.items():
            factorizer.add([r.get(name) for r in block])
        n += len(block)
    return {name: factorizer.column() for name, factorizer in columns.items()}


def column_data(rows, categorical=frozenset()):
    """The per-value ``ColumnData.__init__``: attribute types from the
    first row's keys, one float parse per value, string factorization."""
    n = len(rows)
    attrs = [a for a in rows[0] if a not in RESERVED_COLUMNS]
    y = np.array([int(r["y"]) for r in rows], dtype=np.int64)
    numeric, codes_of, uniques_of = {}, {}, {}
    for a in attrs:
        vals = [r.get(a) for r in rows]
        as_float = np.full(n, np.nan)
        ok = a not in categorical
        if ok:
            for i, v in enumerate(vals):
                if v in MISSING_VALUES or (isinstance(v, str) and v.strip() in MISSING_VALUES):
                    continue
                try:
                    as_float[i] = float(str(v))
                except (TypeError, ValueError):
                    ok = False
                    break
        if ok:
            numeric[a] = as_float
        else:
            first_seen = {}
            codes = [
                first_seen.setdefault("" if s in MISSING_VALUES else s, len(first_seen))
                for s in ("" if v in MISSING_VALUES else str(v).strip() for v in vals)
            ]
            uniques = sorted(first_seen)
            position = np.empty(len(uniques), dtype=np.intp)
            position[[first_seen[u] for u in uniques]] = np.arange(len(uniques))
            uniques_of[a] = np.array(uniques, dtype=object)
            codes_of[a] = position[np.array(codes, dtype=np.intp)]
    return SimpleNamespace(n=n, attrs=attrs, y=y, numeric=numeric, codes=codes_of, uniques=uniques_of)


def build_catalog(records, binning_config=None, default_bins=4):
    """``build_catalog`` with its own type detection over records."""
    if not records:
        raise ValueError("cannot build a catalog from zero records")
    binning_config = dict(binning_config or {})

    attrs = []
    seen = set()
    for rec in records:
        for a in rec:
            if a not in seen and a not in RESERVED_COLUMNS:
                seen.add(a)
                attrs.append(a)

    def columns():
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


def mine_artifact(path, min_support, max_len=7, bins=4, binning=None):
    """``driftscope mine``'s artifact as it was built: every row read as a
    dict, the catalog from the records, each row encoded on its own."""
    rows = list(read_rows(path))
    catalog = build_catalog(rows, binning_config=binning, default_bins=bins)
    P = build_point_matrix([catalog.encode(r) for r in rows], catalog.n_items)
    sgcat = mine_frequent(P, MiningConfig(min_support, max_len), item_attrs=catalog.item_attributes())
    return {"item_catalog": catalog.to_dict(), "subgroup_catalog": sgcat.to_dict()}


def load_adult(path):
    """Adult rows as dicts, detecting a header by "age" in the first line."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    has_header = "age" in first.lower()

    def norm_label(v):
        v = v.strip().rstrip(".")
        if v in (">50K", "1"):
            return 1
        if v in ("<=50K", "0"):
            return 0
        raise ValueError(f"unrecognized income label {v!r}")

    rows = []
    if has_header:
        for row in read_rows(path):
            rec = {}
            label = None
            for k, v in row.items():
                key = str(k).strip().lower().replace("-", "_")
                sval = str(v).strip()
                if key in ("income", "class", "label", "y", "target", "salary"):
                    label = norm_label(sval)
                else:
                    rec[key] = sval
            if label is None:
                raise ValueError("no income/label column found in header")
            rec["y"] = label
            rows.append(rec)
        return rows

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != len(ADULT_COLUMNS) + 1:
                continue
            rec = dict(zip(ADULT_COLUMNS, parts))
            rec["y"] = norm_label(parts[-1])
            rows.append(rec)
    if not rows:
        raise ValueError(f"no data rows parsed from {path}")
    return rows


def assert_same_table(new, old):
    """Two tables agree in every typed column, code and label."""
    assert new.n == old.n and new.attrs == old.attrs
    assert np.array_equal(new.y, old.y)
    assert sorted(new.numeric) == sorted(old.numeric) and sorted(new.codes) == sorted(old.codes)
    for a, col in old.numeric.items():
        # bit-equal, so that -0.0 and 0.0 (and NaN) are told apart
        assert np.array_equal(new.numeric[a].view(np.int64), col.view(np.int64)), a
    for a in old.codes:
        assert new.uniques[a].tolist() == old.uniques[a].tolist(), a
        assert np.array_equal(new.codes[a], old.codes[a]), a


def stream_records(X, y, feature_names, feature_kinds):
    """``StreamBatch.records()``: rows as attribute dicts (plus 'y')."""
    out = []
    for i in range(len(y)):
        rec = {}
        for j, name in enumerate(feature_names):
            v = X[i, j]
            rec[name] = int(v) if feature_kinds[j] == "categorical" else float(v)
        rec["y"] = int(y[i])
        out.append(rec)
    return out


def concept_experiment(
    generator,
    kind,
    seed,
    mining=MiningConfig(0.05, max_len=3),
    bins=4,
    window=5,
    tau_t=5.0,
    tree_depth=5,
    train_size=5000,
    n_batches=50,
    batch_size=200,
    label_noise=0.10,
    drift_center=5000,
    drift_width=1000,
    baseline_kinds=(),
    baseline_params=None,
    keep_reports=False,
    min_disagreement=0.10,
):
    """``run_concept_experiment`` as it was: every batch re-encoded through
    dict rows into its own table and point matrix, and predicted on its own."""
    baseline_params = dict(baseline_params or {})
    rng = np.random.default_rng(np.random.SeedSequence([evaluation._CONCEPT_SALT, seed]))
    pool = evaluation._CONCEPT_POOL[generator]
    concept_a = int(rng.integers(pool))
    if kind == "positive":
        for _ in range(200):
            concept_b = int(rng.integers(pool - 1))
            concept_b += concept_b >= concept_a
            if concept_disagreement(generator, concept_a, concept_b, seed=seed) >= min_disagreement:
                break
            concept_a = int(rng.integers(pool))
        else:
            raise ValueError(f"no {generator} concept pair reaches disagreement {min_disagreement}")
    else:
        concept_b = concept_a

    config = ConceptStreamConfig(
        generator=generator,
        concept_a=concept_a,
        concept_b=concept_b,
        drift_center=drift_center,
        drift_width=drift_width,
        label_noise=label_noise,
        train_size=train_size,
        n_batches=n_batches,
        batch_size=batch_size,
        seed=seed,
    )
    train, stream = gen_concept_stream(config)
    names, kinds = train.feature_names, train.feature_kinds
    batches = [
        (stream.X[b * batch_size : (b + 1) * batch_size], stream.y[b * batch_size : (b + 1) * batch_size])
        for b in range(n_batches)
    ]

    cat_attrs = frozenset(name for name, k in zip(names, kinds) if k == "categorical")
    train_cols = ColumnData(stream_records(train.X, train.y, names, kinds), categorical=cat_attrs)
    train_idx = np.arange(train_cols.n)
    catalog = train_cols.build_catalog(train_idx, bins=bins)
    P_train = train_cols.point_matrix(train_idx, catalog)
    sgcat = mine_frequent(P_train, mining, item_attrs=catalog.item_attributes())

    model = fit_tree(train.X, train.y, max_depth=tree_depth)

    monitor = MonitorState(n_subgroups=len(sgcat), config=WindowConfig(window, tau_t))
    batch_max_t = []
    detected = False
    report_lines = []
    all_errors = []
    for b, (X, y) in enumerate(batches):
        y_hat = model.predict(X)
        alpha = (y == y_hat).astype(np.int64)
        beta = 1 - alpha
        all_errors.append(beta)
        bc = ColumnData(stream_records(X, y, names, kinds), categorical=cat_attrs)
        P = bc.point_matrix(np.arange(bc.n), catalog)
        batch = EncodedBatch(point_matrix=P, alpha_vec=alpha, beta_vec=beta, batch_id=b + 1)
        M = membership(batch, sgcat)
        stats = aggregate(batch, M)
        report = step(monitor, stats)
        if not report.warming_up:
            batch_max_t.append(report.max_t())
            detected = detected or report.global_drift
        if keep_reports:
            report_lines.append(json.dumps(report_dict(report, sgcat), sort_keys=True))

    result = evaluation.ExperimentResult(
        kind=kind,
        detected=detected,
        batch_max_t=batch_max_t,
        seed=seed,
        report_jsonl="\n".join(report_lines) if keep_reports else None,
    )
    if baseline_kinds:
        errors = np.concatenate(all_errors)
        for bkind in baseline_kinds:
            det = make_detector(bkind, **baseline_params.get(bkind, {}))
            result.baseline_detected[bkind] = any(d == DRIFT for d in det.run(errors))
    return result


def _grow(X: np.ndarray, onehot: np.ndarray, classes: np.ndarray, depth: int, max_depth: int) -> _Node:
    n = len(X)
    counts = onehot.sum(0)
    majority = int(classes[int(np.argmax(counts))])
    node = _Node(prediction=majority)
    if depth >= max_depth or counts.max() == n:
        return node

    best_score = -np.inf
    best: tuple[int, float] | None = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xv = X[order, f]
        cuts = np.flatnonzero(xv[1:] > xv[:-1]) + 1
        if cuts.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left = cum[cuts - 1].astype(np.float64)
        nl = cuts.astype(np.float64)
        right = counts.astype(np.float64) - left
        nr = n - nl
        # maximizing sum(c^2)/n over both sides minimizes weighted Gini
        score = (left**2).sum(1) / nl + (right**2).sum(1) / nr
        k = int(np.argmax(score))  # first max: lowest threshold wins ties
        if score[k] > best_score:
            best_score = float(score[k])
            best = (f, float((xv[cuts[k] - 1] + xv[cuts[k]]) / 2.0))
    if best is None:
        return node

    f, thr = best
    go_left = X[:, f] <= thr
    node.feature = f
    node.threshold = thr
    node.left = _grow(X[go_left], onehot[go_left], classes, depth + 1, max_depth)
    node.right = _grow(X[~go_left], onehot[~go_left], classes, depth + 1, max_depth)
    return node


def fit_tree_recursive(X: np.ndarray, y: np.ndarray, max_depth: int = 5) -> TreeModel:
    """Fit a depth-bounded Gini tree. Single-class data yields a constant
    predictor (with a warning)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        warnings.warn("training data contains a single class; model is constant")
        return TreeModel(root=_Node(prediction=int(classes[0])), classes=classes, max_depth=0)
    onehot = (y[:, None] == classes[None, :]).astype(np.int64)
    root = _grow(X, onehot, classes, 0, max_depth)
    return TreeModel(root=root, classes=classes, max_depth=max_depth)


def inject_label_flip(
    batches: Sequence[Sequence[Mapping]],
    catalog: ItemCatalog,
    schedule: DriftSchedule,
    seed: int = 0,
) -> tuple[list[list[dict]], list[np.ndarray]]:
    """Flip binary labels inside the target subgroup per the drift schedule.

    Returns the perturbed batches (records copied, only 'y' changes) and one
    boolean altered-mask per batch marking exactly the flipped instances.
    Raises a :class:`DataError` naming the row when a record has no integer
    label 'y', and raises when the target subgroup covers no instance of the
    stream.
    """
    records = [rec for batch in batches for rec in batch]
    y = np.empty(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        try:
            label = float(str(rec.get("y")))
        except ValueError:
            label = np.nan
        if not label.is_integer():
            raise DataError(f"row {i + 1}: no integer label in column 'y' (got {rec.get('y')!r})")
        y[i] = label
    bad = (y != 0) & (y != 1)
    if bad.any():
        raise ValueError(f"label flipping requires binary labels, got y={y[np.argmax(bad)]}")
    target = frozenset(schedule.target_subgroup)
    cover = np.array([target <= set(catalog.encode(rec)) for rec in records], dtype=bool)
    if not cover.any():
        raise ValueError("target subgroup covers no instance of the stream")
    ends = np.cumsum([len(batch) for batch in batches], dtype=np.int64)
    bounds = list(zip([0, *ends[:-1]], ends))
    flipped, mask = _inject_flips_columns(y, cover, bounds, schedule, seed)
    out = [dict(rec) for rec in records]
    for k in np.flatnonzero(mask):
        out[k]["y"] = int(flipped[k])
    return [out[lo:hi] for lo, hi in bounds], [mask[lo:hi] for lo, hi in bounds]


def inject_texts(input_path, catalog_path, subgroup, p_max, normal=10, transition=10, drift=10,
                 ramp="linear", seed=0):
    """The record-path ``driftscope inject``: the texts it wrote to ``--out``
    and ``--mask``."""
    catalog, _, _ = _load_artifact(catalog_path)
    rows = list(read_rows(input_path))
    if not rows:
        raise DataError(f"{input_path}: no rows")
    item_ids = []
    for part in _parse_subgroup(subgroup, catalog.attributes):
        attr, _, value = part.partition("=")
        item_id = catalog.id_of(attr, value)
        if item_id is None:
            raise DataError(f"subgroup item {part!r} not found in the catalog")
        item_ids.append(item_id)
    total = normal + transition + drift
    bounds = np.linspace(0, len(rows), total + 1).astype(int)
    batches = [rows[bounds[i] : bounds[i + 1]] for i in range(total)]
    schedule = DriftSchedule(
        target_subgroup=tuple(sorted(item_ids)),
        p_max=p_max,
        normal_batches=normal,
        transition_batches=transition,
        drift_batches=drift,
        ramp=ramp,
    )
    try:
        flipped, masks = inject_label_flip(batches, catalog, schedule, seed=seed)
    except ValueError as exc:
        raise DataError(str(exc))
    out_rows = []
    mask_rows = []
    idx = 0
    columns = list(rows[0].keys())
    for b, (batch, mask) in enumerate(zip(flipped, masks)):
        for i, rec in enumerate(batch):
            out_rows.append(rec)
            mask_rows.append({"row": idx, "batch": b + 1, "altered": int(mask[i])})
            idx += 1
    return _csv_text(out_rows, columns), _csv_text(mask_rows, ["row", "batch", "altered"])


def report_rows(report, catalog, indices=None):
    """Serializable per-subgroup rows (NaN mapped to None), as
    ``DriftReport.rows`` built them."""
    if indices is None:
        indices = np.arange(report.n_subgroups)
    indices = np.asarray(indices)

    def nullable(a):
        return [None if x != x else x for x in a[indices].tolist()]

    columns = zip(
        indices.tolist(),
        catalog.items_of(indices),
        catalog.supports()[indices].tolist(),
        nullable(report.h_ref),
        nullable(report.h_cur),
        nullable(report.delta_h),
        report.t_values[indices].tolist(),
        report.drifted[indices].astype(bool).tolist(),
    )
    out = []
    for j, items, s, h_ref, h_cur, delta_h, t, drifted in columns:
        out.append(
            {
                "subgroup_id": j,
                "items": ",".join(map(str, items)) or "(global)",
                "support": s,
                "h_ref": h_ref,
                "h_cur": h_cur,
                "delta_h": delta_h,
                "t": t,
                "drifted": drifted,
            }
        )
    return out


def report_dict(report, catalog, top_k=100):
    """``DriftReport.to_dict`` as it was: a dict per retained subgroup."""
    return {
        "batch_id": report.batch_id,
        "warming_up": report.warming_up,
        "global_drift": report.global_drift,
        "tau_t": report.tau_t,
        "max_t": report.max_t() if not report.warming_up else None,
        "subgroups": report_rows(report, catalog, report.retained_indices(top_k)),
    }


class DequeKSWIN(KSWIN):
    """``KSWIN`` with its window as a deque, copied into a new array on
    every row."""

    def reset(self) -> None:
        self.window: deque[float] = deque(maxlen=self.window_size)
        self.rng = np.random.default_rng(np.random.SeedSequence([0x4B535749, self.seed]))

    def update(self, error: int) -> str:
        self.window.append(float(error))
        if len(self.window) < self.window_size:
            return NO_DRIFT
        arr = np.asarray(self.window)
        older = arr[: -self.stat_size]
        recent = arr[-self.stat_size :]
        sample = self.rng.choice(older, self.stat_size, replace=True)
        ks, p = self.ks_test(sample, recent)
        if p <= self.alpha and ks > 0.1:
            kept = list(recent)
            self.window.clear()
            self.window.extend(kept)
            return DRIFT
        return NO_DRIFT

    def ks_test(self, sample, recent):
        return ks_two_sample(sample, recent)


class ScipyKSWIN(DequeKSWIN):
    """``DequeKSWIN`` with the p-value of scipy's ``ks_2samp``."""

    def ks_test(self, sample, recent):
        from scipy.stats import ks_2samp

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return ks_2samp(sample, recent, method="auto")


class ScipyChi2Window(Chi2Window):
    """``Chi2Window`` with scipy's p-values: ``chi2_contingency`` without
    continuity correction, or ``fisher_exact`` when scipy's expected table
    has a cell below 5."""

    def _test(self, ref, cur) -> float:
        from scipy.stats import chi2_contingency, fisher_exact
        from scipy.stats.contingency import expected_freq

        table = [list(ref), list(cur)]
        if (expected_freq(table) < 5.0).any():
            return float(fisher_exact(table).pvalue)
        return float(chi2_contingency(table, correction=False).pvalue)


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
            j = int(catalog.indices_of([sorted(itemset)])[0])
            if j < 0:
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
