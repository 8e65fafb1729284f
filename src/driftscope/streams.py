"""Synthetic labeled streams, targeted drift injection, and a small CART tree.

The stream generators (Agrawal, SEA, LED, Hyperplane) follow their original
published definitions:

  - Agrawal et al., "Database Mining: A Performance Perspective" (1993):
    ten loan-approval classification functions over demographic attributes.
  - Street & Kim, "A Streaming Ensemble Algorithm for Large-Scale
    Classification" (2001): three uniform features, class by f1 + f2 <= theta,
    thresholds 8 / 9 / 7 / 9.5 per concept.
  - Breiman et al., CART (1984): the 24-attribute LED display data, 7 relevant
    segments plus 17 irrelevant attributes; concepts swap attribute positions.
  - Hulten et al., "Mining Time-Changing Data Streams" (2001): rotating
    hyperplane sum(w_i x_i) >= theta with theta = sum(w_i) / 2.

Concept drift mixes two concepts with the conventional sigmoid schedule
sigma(i) = 1 / (1 + exp(-4 (i - p) / w)) over the instance index i. Label
flips for targeted subgroup drift ramp linearly (or by sigmoid) across the
transition batches and saturate at p_max in the drift batches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sgmetrics import Membership

__all__ = [
    "DriftSchedule",
    "ConceptStreamConfig",
    "StreamBatch",
    "TreeModel",
    "GENERATORS",
    "SEA_THRESHOLDS",
    "LED_PATTERNS",
    "N_CONCEPTS",
    "gen_concept_stream",
    "concept_labels",
    "concept_disagreement",
    "sigmoid_mix",
    "flip_probability",
    "fit_tree",
]

GENERATORS = ("agrawal", "sea", "led", "hyperplane")

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

# 7-segment patterns for digits 0-9 (top, top-left, top-right, middle,
# bottom-left, bottom-right, bottom), per the CART book / UCI LED data.
LED_PATTERNS = np.array(
    [
        [1, 1, 1, 0, 1, 1, 1],
        [0, 0, 1, 0, 0, 1, 0],
        [1, 0, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 0, 1, 1],
        [0, 1, 1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 1, 1],
        [1, 1, 0, 1, 1, 1, 1],
        [1, 0, 1, 0, 0, 1, 0],
        [1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 0, 1, 1],
    ],
    dtype=np.int64,
)

N_CONCEPTS = {"agrawal": 10, "sea": 4, "led": 8, "hyperplane": 2**31}


@dataclass(frozen=True)
class StreamBatch:
    """A table of labeled instances with named features: a train set or a
    whole stream."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]  # "continuous" | "categorical" per feature

    def columns(self) -> dict[str, list]:
        """Attribute -> values in row order (ints for categorical features,
        floats for continuous ones), plus 'y', for catalog encoding."""
        out = {
            name: (self.X[:, j].astype(np.int64) if kind == "categorical" else self.X[:, j]).tolist()
            for j, (name, kind) in enumerate(zip(self.feature_names, self.feature_kinds))
        }
        out["y"] = self.y.tolist()
        return out


@dataclass(frozen=True)
class ConceptStreamConfig:
    """Configuration of one synthetic concept-drift stream."""

    generator: str
    concept_a: int = 0
    concept_b: int = 1
    drift_center: int = 5000
    drift_width: int = 1000
    label_noise: float = 0.10
    train_size: int = 5000
    n_batches: int = 50
    batch_size: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}, expected one of {GENERATORS}")
        for name, c in (("concept_a", self.concept_a), ("concept_b", self.concept_b)):
            if not 0 <= c < N_CONCEPTS[self.generator]:
                raise ValueError(f"{name}={c} is not a valid {self.generator} concept index")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if self.batch_size < 1 or self.n_batches < 1 or self.train_size < 1:
            raise ValueError("sizes must be positive")


def sigmoid_mix(i, center: float, width: float):
    """Probability of drawing from the second concept at instance index i."""
    i = np.asarray(i, dtype=np.float64)
    if width <= 0:
        return (i >= center).astype(np.float64)
    return 1.0 / (1.0 + np.exp(-4.0 * (i - center) / width))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _agrawal_features(n: int, rng: np.random.Generator) -> np.ndarray:
    salary = 20000 + 130000 * rng.random(n)
    commission = np.where(salary >= 75000, 0.0, 10000 + 65000 * rng.random(n))
    age = rng.integers(20, 81, n).astype(np.float64)
    elevel = rng.integers(0, 5, n).astype(np.float64)
    car = rng.integers(1, 21, n).astype(np.float64)
    zipcode = rng.integers(0, 9, n).astype(np.float64)
    hvalue = (9 - zipcode) * 100000 * (0.5 + rng.random(n))
    hyears = rng.integers(1, 31, n).astype(np.float64)
    loan = 500000 * rng.random(n)
    return np.column_stack(
        [salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan]
    )


def _agrawal_group_a(X: np.ndarray, func: int) -> np.ndarray:
    salary, commission, age, elevel = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    hvalue, hyears, loan = X[:, 6], X[:, 7], X[:, 8]
    total = salary + commission
    young, mid, old = age < 40, (age >= 40) & (age < 60), age >= 60

    def between(v, lo, hi):
        return (v >= lo) & (v <= hi)

    if func == 0:
        return young | old
    if func == 1:
        return (
            (young & between(salary, 50000, 100000))
            | (mid & between(salary, 75000, 125000))
            | (old & between(salary, 25000, 75000))
        )
    if func == 2:
        return (
            (young & np.isin(elevel, (0, 1)))
            | (mid & np.isin(elevel, (1, 2, 3)))
            | (old & np.isin(elevel, (2, 3, 4)))
        )
    if func == 3:
        return (
            young
            & np.where(np.isin(elevel, (0, 1)), between(salary, 25000, 75000), between(salary, 50000, 100000))
            | mid
            & np.where(np.isin(elevel, (1, 2, 3)), between(salary, 50000, 100000), between(salary, 75000, 125000))
            | old
            & np.where(np.isin(elevel, (2, 3, 4)), between(salary, 50000, 100000), between(salary, 25000, 75000))
        )
    if func == 4:
        return (
            young
            & np.where(between(salary, 50000, 100000), between(loan, 100000, 300000), between(loan, 200000, 400000))
            | mid
            & np.where(between(salary, 75000, 125000), between(loan, 200000, 400000), between(loan, 300000, 500000))
            | old
            & np.where(between(salary, 25000, 75000), between(loan, 300000, 500000), between(loan, 100000, 300000))
        )
    if func == 5:
        return (
            (young & between(total, 50000, 100000))
            | (mid & between(total, 75000, 125000))
            | (old & between(total, 25000, 75000))
        )
    if func == 6:
        return (2 * total / 3 - loan / 5 - 20000) > 0
    if func == 7:
        return (2 * total / 3 - 5000 * elevel - 20000) > 0
    if func == 8:
        return (2 * total / 3 - 5000 * elevel - loan / 5 - 10000) > 0
    if func == 9:
        equity = np.where(hyears >= 20, hvalue * (hyears - 20), 0.0)
        return (2 * total / 3 - 5000 * elevel + equity / 5 - 10000) > 0
    raise ValueError(f"agrawal function index {func} out of range 0..9")


_GENERATOR_SCHEMAS = {
    "agrawal": (
        ("salary", "commission", "age", "elevel", "car", "zipcode", "hvalue", "hyears", "loan"),
        ("continuous", "continuous", "continuous", "categorical", "categorical",
         "categorical", "continuous", "continuous", "continuous"),
    ),
    "sea": (("att1", "att2", "att3"), ("continuous",) * 3),
    "led": (
        tuple(f"seg{i}" for i in range(7)) + tuple(f"irr{i}" for i in range(17)),
        ("categorical",) * 24,
    ),
    "hyperplane": (tuple(f"x{i}" for i in range(10)), ("continuous",) * 10),
}


def _hyperplane_weights(concept: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([0x48504C4E, concept]))
    return rng.random(10)


def concept_labels(generator: str, X: np.ndarray, concept: int) -> np.ndarray:
    """Labels of feature rows under one concept (feature-sharing generators).

    LED concepts permute features rather than relabel them, so it has no
    shared-feature label function.
    """
    if generator == "agrawal":
        return np.where(_agrawal_group_a(X, concept), 0, 1).astype(np.int64)
    if generator == "sea":
        return (X[:, 0] + X[:, 1] <= SEA_THRESHOLDS[concept]).astype(np.int64)
    if generator == "hyperplane":
        w = _hyperplane_weights(concept)
        return (X @ w >= w.sum() / 2).astype(np.int64)
    raise ValueError(f"{generator!r} has no shared-feature label function")


def concept_disagreement(generator: str, a: int, b: int, n: int = 4000, seed: int = 0) -> float:
    """Fraction of instances whose label differs between two concepts.

    Estimated on a seeded feature probe. LED concepts move features instead
    of labels; any differing swap depth scrambles model inputs, so their
    disagreement is reported as 1.0 when the depths differ.
    """
    if a == b:
        return 0.0
    if generator == "led":
        return 1.0
    rng = np.random.default_rng(np.random.SeedSequence([0x50524F42, seed]))
    X, _ = _draw(generator, np.full(n, a), rng)
    return float(np.mean(concept_labels(generator, X, a) != concept_labels(generator, X, b)))


def _draw(generator: str, concepts: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample features and concept-dependent labels for a vector of concepts."""
    n = len(concepts)
    if generator == "led":
        digits = rng.integers(0, 10, n)
        segs = LED_PATTERNS[digits]
        irr = rng.integers(0, 2, (n, 17))
        X = np.column_stack([segs, irr]).astype(np.float64)
        # concept k swaps segment i with irrelevant attribute i for i < k
        for k in np.flatnonzero(np.bincount(concepts)):
            m = concepts == k
            for i in range(int(k)):
                X[np.ix_(m, [i, 7 + i])] = X[np.ix_(m, [7 + i, i])]
        return X, digits.astype(np.int64)
    if generator == "agrawal":
        X = _agrawal_features(n, rng)
    elif generator == "sea":
        X = 10.0 * rng.random((n, 3))
    elif generator == "hyperplane":
        X = rng.random((n, 10))
    else:
        raise ValueError(f"unknown generator {generator!r}")
    y = np.empty(n, dtype=np.int64)
    for c in np.flatnonzero(np.bincount(concepts)):
        m = concepts == c
        y[m] = concept_labels(generator, X[m], int(c))
    return X, y


def _apply_label_noise(y: np.ndarray, noise: float, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    if noise <= 0:
        return y
    hit = rng.random(len(y)) < noise
    y = y.copy()
    if n_classes == 2:
        y[hit] = 1 - y[hit]
    else:
        shift = rng.integers(1, n_classes, hit.sum())
        y[hit] = (y[hit] + shift) % n_classes
    return y


def gen_concept_stream(config: ConceptStreamConfig) -> tuple[StreamBatch, StreamBatch]:
    """Generate (train set, stream) for a sigmoid concept drift.

    The train set is drawn purely from concept A. Each stream instance i is
    drawn from concept B with probability sigma(i); labels are then flipped
    independently with probability ``label_noise``. The stream is one table
    of ``n_batches * batch_size`` rows; batch b is its rows
    ``b * batch_size`` to ``(b + 1) * batch_size``. Byte-identical for a
    given config.
    """
    names, kinds = _GENERATOR_SCHEMAS[config.generator]
    n_classes = 10 if config.generator == "led" else 2
    ss = np.random.SeedSequence([0x5354524D, config.seed])
    train_rng, stream_rng, mix_rng, noise_rng = (
        np.random.default_rng(s) for s in ss.spawn(4)
    )

    tX, ty = _draw(
        config.generator,
        np.full(config.train_size, config.concept_a),
        train_rng,
    )
    ty = _apply_label_noise(ty, config.label_noise, n_classes, noise_rng)
    train = StreamBatch(X=tX, y=ty, feature_names=names, feature_kinds=kinds)

    n = config.n_batches * config.batch_size
    mix = sigmoid_mix(np.arange(n), config.drift_center, config.drift_width)
    concepts = np.where(
        mix_rng.random(n) < mix, config.concept_b, config.concept_a
    ).astype(np.int64)
    sX, sy = _draw(config.generator, concepts, stream_rng)
    sy = _apply_label_noise(sy, config.label_noise, n_classes, noise_rng)
    return train, StreamBatch(X=sX, y=sy, feature_names=names, feature_kinds=kinds)


# ---------------------------------------------------------------------------
# Targeted label-flip injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftSchedule:
    """Batch schedule of a targeted label-flip drift.

    No flips in the normal batches; the flip probability ramps up across the
    transition batches (linearly by default) and holds at ``p_max`` from the
    first drift batch on. Flips only apply inside the target subgroup.
    """

    target_subgroup: tuple[int, ...]
    p_max: float
    normal_batches: int = 10
    transition_batches: int = 10
    drift_batches: int = 10
    ramp: str = "linear"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_max <= 1.0:
            raise ValueError("p_max must be in [0, 1]")
        if min(self.normal_batches, self.transition_batches, self.drift_batches) < 0:
            raise ValueError("batch counts must be >= 0")
        if self.ramp not in ("linear", "sigmoid"):
            raise ValueError("ramp must be 'linear' or 'sigmoid'")


def flip_probability(schedule: DriftSchedule, batch_index: int) -> float:
    """Flip probability for covered instances in the given 0-based batch."""
    b = batch_index
    if b < schedule.normal_batches:
        return 0.0
    k = b - schedule.normal_batches + 1
    K = schedule.transition_batches
    if k <= K:
        if schedule.ramp == "linear":
            return schedule.p_max * k / K
        return schedule.p_max / (1.0 + float(np.exp(-8.0 * (k / (K + 1.0) - 0.5))))
    return schedule.p_max


def _target_cover(P: Membership, target: Sequence[int]) -> np.ndarray:
    """Instances of the point matrix ``P`` that hold every item of the target
    subgroup, as a bool vector; raises when there are none."""
    bits = np.bitwise_and.reduce(P.bits[list(target)], axis=0)
    cover = np.unpackbits(bits, count=P.n_instances).astype(bool)
    if not cover.any():
        raise ValueError("target subgroup covers no instance of the stream")
    return cover


def _even_bounds(n: int, n_batches: int) -> list[tuple[int, int]]:
    cuts = np.linspace(0, n, n_batches + 1).astype(int)
    return [(int(cuts[i]), int(cuts[i + 1])) for i in range(n_batches)]


def _inject_flips_columns(
    y: np.ndarray,
    cover: np.ndarray,
    batch_bounds: Sequence[tuple[int, int]],
    schedule: DriftSchedule,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The label-flip rule: each covered instance of batch b flips with
    :func:`flip_probability`, one uniform draw per instance of the batch.
    Returns the flipped labels and the altered mask."""
    rng = np.random.default_rng(np.random.SeedSequence([0x464C4950, seed]))
    mask = np.zeros(len(y), dtype=bool)
    for b, (lo, hi) in enumerate(batch_bounds):
        p = flip_probability(schedule, b)
        draws = rng.random(hi - lo)
        mask[lo:hi] = cover[lo:hi] & (draws < p)
    return np.where(mask, 1 - y, y), mask


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    prediction: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class TreeModel:
    """Binary CART with axis-aligned splits and Gini impurity.

    Deterministic: split ties go to the lowest feature index, then the lowest
    threshold; leaf ties to the lowest class label. Splits with zero Gini gain
    are still taken while the node is impure (required to separate parity-like
    concepts within the depth budget).
    """

    root: _Node
    classes: np.ndarray
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.prediction
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out


def fit_tree(X: np.ndarray, y: np.ndarray, max_depth: int = 5) -> TreeModel:
    """Fit a depth-bounded exact Gini tree. Single-class data yields a
    constant predictor (with a warning).

    The tree is grown level-wise over columns sorted once, as in SLIQ (Mehta,
    Agrawal & Rissanen, 1996): each feature's rows are argsorted at the root
    and kept grouped by node, with one stable partition per depth, so one
    pass per feature scores every cut of every open node of a depth. Cuts lie
    midway between consecutive distinct values of a node; NaN sorts last,
    never forms a cut and goes right. A node is a leaf at ``max_depth``, when
    pure, or when no feature has a cut in it. Raises ValueError unless ``X``
    is 2-D with at least one row and ``y`` holds one label per row.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (len(X),):
        raise ValueError(f"X has shape {X.shape} but y has shape {y.shape}: need one label per row of X")
    if len(X) == 0:
        raise ValueError(f"cannot fit a tree on zero rows (X has shape {X.shape})")
    classes, codes = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        warnings.warn("training data contains a single class; model is constant")
        return TreeModel(root=_Node(prediction=int(classes[0])), classes=classes, max_depth=0)

    n, n_classes = len(y), len(classes)
    class_ids = np.arange(n_classes)[:, None]
    columns = np.ascontiguousarray(X.T)
    # per feature, row ids by (value, row id): the order a stable sort of any
    # node's rows gives, which a stable partition by node keeps
    order = list(np.argsort(columns, axis=1, kind="stable"))
    root = _Node()
    level = [root]  # the nodes of this depth
    node_of = np.zeros(n, dtype=np.intp)  # row -> its node in `level`, or len(level) below a leaf
    depth = 0
    while True:
        k = len(level)
        counts = np.bincount(node_of * n_classes + codes, minlength=(k + 1) * n_classes)
        counts = counts.reshape(k + 1, n_classes)[:k]
        for node, c in zip(level, counts.argmax(1)):  # first max: lowest class label wins ties
            node.prediction = int(classes[c])
        sizes = counts.sum(1)
        is_open = counts.max(1) < sizes  # an empty node counts as pure
        if depth >= max_depth or not is_open.any():
            break

        # each row's open node; rows below a leaf get the last key, so a
        # stable sort by it groups a feature's rows by node and cuts them off
        n_open = int(is_open.sum())
        rank = np.full(k + 1, n_open, dtype=np.min_scalar_type(n_open))
        rank[:k][is_open] = np.arange(n_open)
        open_of = rank[node_of]
        sizes, counts = sizes[is_open], counts[is_open].T
        m = int(sizes.sum())
        starts = np.cumsum(sizes) - sizes
        ahead = np.cumsum(counts, axis=1) - counts  # class counts of the rows of earlier nodes
        node_at = np.repeat(np.arange(n_open), sizes)  # node of each position of a feature's order
        same_node = node_at[1:] == node_at[:-1]
        best = np.full(n_open, -np.inf)
        feature = np.full(n_open, -1)
        threshold = np.zeros(n_open)
        for f in range(len(order)):
            rows = order[f] = order[f][np.argsort(open_of[order[f]], kind="stable")[:m]]
            xs = columns[f, rows]
            cut = np.flatnonzero((xs[1:] > xs[:-1]) & same_node) + 1  # first position right of a cut
            if cut.size == 0:
                continue
            of = node_at[cut]
            cum = np.cumsum(codes[rows] == class_ids, axis=1)
            left = (cum.take(cut - 1, axis=1) - ahead.take(of, axis=1)).astype(np.float64)
            nl = (cut - starts[of]).astype(np.float64)
            right = counts.take(of, axis=1).astype(np.float64) - left
            nr = sizes[of] - nl
            # maximizing sum(c^2)/n over both sides minimizes weighted Gini
            score = (left**2).sum(0) / nl + (right**2).sum(0) / nr
            first = np.flatnonzero(np.r_[True, of[1:] != of[:-1]])  # each node's first cut
            top = np.maximum.reduceat(score, first)
            hit = np.flatnonzero(score == np.repeat(top, np.diff(np.r_[first, cut.size])))
            hit = hit[np.r_[True, of[hit[1:]] != of[hit[:-1]]]]  # first max: lowest threshold wins ties
            won = top > best[of[first]]  # strictly: the lowest feature wins ties
            j, at = of[first][won], cut[hit[won]]
            best[j], feature[j], threshold[j] = top[won], f, (xs[at - 1] + xs[at]) / 2.0

        splits = np.flatnonzero(feature >= 0)
        if splits.size == 0:
            break
        nodes = [node for node, o in zip(level, is_open) if o]
        level = []
        for j in splits:
            node = nodes[j]
            node.feature, node.threshold = int(feature[j]), float(threshold[j])
            node.left, node.right = _Node(), _Node()
            level += [node.left, node.right]
        # route the rows of split nodes by predict's test, not by position:
        # ~(x <= t) sends NaN right, and a midpoint that rounds onto the
        # value above the cut sends that value left
        left_child = np.zeros(n_open, dtype=np.intp)
        left_child[splits] = np.arange(0, len(level), 2)
        in_split = feature[node_at] >= 0
        rows, at = order[0][in_split], node_at[in_split]
        node_of = np.full(n, len(level))
        node_of[rows] = left_child[at] + ~(columns[feature[at], rows] <= threshold[at])
        depth += 1
    return TreeModel(root=root, classes=classes, max_depth=max_depth)
