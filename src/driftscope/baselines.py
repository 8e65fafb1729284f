"""Global-level drift detectors used as comparison points.

Each detector consumes a stream of 0/1 error indicators (or windowed error
counts for the two contingency tests) and reports one of "no_drift",
"warning", or "drift" per update. All detectors are deterministic given their
input sequence and reset() restores the initial state exactly.

Implemented from the original publications:

  - DDM: Gama et al., "Learning with Drift Detection" (2004).
  - HDDM-A: Frias-Blanco et al., "Online and Non-Parametric Drift Detection
    Methods Based on Hoeffding's Bounds" (2014), average-estimator test.
  - Page-Hinkley: Page, "Continuous Inspection Schemes" (1954); cumulative
    deviation sum versus its running minimum.
  - ADWIN: Bifet & Gavalda, "Learning from Time-Changing Data with Adaptive
    Windowing" (2007); exponential-histogram buckets, variance-based cut test.
  - KSWIN: Raab et al., "Reactive Soft Prototype Computing for Concept Drift
    Streams" (2020); Kolmogorov-Smirnov test on sampled-vs-recent windows,
    with the exact equal-size p-value of Gnedenko & Korolyuk (1951).
  - Chi-squared / Fisher's Exact Test: 2x2 contingency (correct/incorrect x
    reference/current window); chi2 falls back to FET when any expected cell
    is below 5. Both test the integer counts exactly.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

__all__ = [
    "NO_DRIFT",
    "WARNING",
    "DRIFT",
    "BaselineDetector",
    "DDM",
    "HDDMA",
    "PageHinkley",
    "ADWIN",
    "KSWIN",
    "Chi2Window",
    "FETWindow",
    "make_detector",
    "fisher_exact_two_sided",
    "chi2_statistic",
    "chi2_p_value",
    "ks_two_sample",
    "DETECTOR_KINDS",
]

NO_DRIFT = "no_drift"
WARNING = "warning"
DRIFT = "drift"


class BaselineDetector:
    """Common interface: feed 0/1 errors with update(), read the decision."""

    def update(self, error: int) -> str:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def run(self, errors: Sequence[int]) -> list[str]:
        return [self.update(int(e)) for e in errors]


class DDM(BaselineDetector):
    """Drift when p_t + s_t >= p_min + 3 s_min (warning at 2 s_min).

    p_t is the running error rate, s_t its binomial standard deviation.
    ``min_samples`` guards against firing before the estimate stabilizes.
    The detector re-initializes itself after signalling a drift.
    """

    def __init__(self, min_samples: int = 30):
        self.min_samples = min_samples
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.errors = 0
        self.p_min = math.inf
        self.s_min = math.inf

    def update(self, error: int) -> str:
        self.n += 1
        self.errors += error
        p = self.errors / self.n
        s = math.sqrt(p * (1.0 - p) / self.n)
        if self.n < self.min_samples:
            return NO_DRIFT
        if p + s < self.p_min + self.s_min:
            self.p_min = p
            self.s_min = s
        if p + s >= self.p_min + 3.0 * self.s_min:
            self.reset()
            return DRIFT
        if p + s >= self.p_min + 2.0 * self.s_min:
            return WARNING
        return NO_DRIFT


class HDDMA(BaselineDetector):
    """Hoeffding-bound drift test on the running average (A-test variant).

    Tracks the cut point minimizing the lower confidence bound of the mean;
    drift when the overall mean exceeds that sub-sequence mean by more than
    the Hoeffding epsilon at ``drift_confidence``.
    """

    def __init__(self, drift_confidence: float = 0.001, warning_confidence: float = 0.005):
        self.drift_confidence = drift_confidence
        self.warning_confidence = warning_confidence
        self.reset()

    def reset(self) -> None:
        self.total_n = 0
        self.total_c = 0.0
        self.n_min = 0
        self.c_min = 0.0

    @staticmethod
    def _mean_increased(c_min, n_min, total_c, total_n, confidence) -> bool:
        if n_min == total_n:
            return False
        m = (total_n - n_min) / n_min * (1.0 / total_n)
        bound = math.sqrt(m / 2.0 * math.log(2.0 / confidence))
        return total_c / total_n - c_min / n_min >= bound

    def update(self, error: int) -> str:
        self.total_n += 1
        self.total_c += error
        if self.n_min == 0:
            self.n_min, self.c_min = self.total_n, self.total_c
        eps_min = math.sqrt(1.0 / (2.0 * self.n_min) * math.log(1.0 / self.drift_confidence))
        eps_tot = math.sqrt(1.0 / (2.0 * self.total_n) * math.log(1.0 / self.drift_confidence))
        if self.c_min / self.n_min + eps_min >= self.total_c / self.total_n + eps_tot:
            self.n_min, self.c_min = self.total_n, self.total_c
        if self._mean_increased(self.c_min, self.n_min, self.total_c, self.total_n, self.drift_confidence):
            self.reset()
            return DRIFT
        if self._mean_increased(self.c_min, self.n_min, self.total_c, self.total_n, self.warning_confidence):
            return WARNING
        return NO_DRIFT


class PageHinkley(BaselineDetector):
    """Cumulative deviation of observations from their running mean.

    m_t = sum(x_i - mean_i - delta); drift when m_t - min(m) exceeds the
    threshold, after at least ``min_instances`` observations.
    """

    def __init__(self, min_instances: int = 30, delta: float = 0.005, threshold: float = 50.0):
        self.min_instances = min_instances
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.cum = 0.0
        self.cum_min = 0.0

    def update(self, error: int) -> str:
        self.n += 1
        self.mean += (error - self.mean) / self.n
        self.cum += error - self.mean - self.delta
        self.cum_min = min(self.cum_min, self.cum)
        if self.n < self.min_instances:
            return NO_DRIFT
        if self.cum - self.cum_min > self.threshold:
            self.reset()
            return DRIFT
        return NO_DRIFT


class ADWIN(BaselineDetector):
    """Adaptive window with an exponential-histogram summary.

    Buckets of width 2^i are kept in rows, newest first, at most
    ``max_buckets`` per row; overflow merges the two oldest buckets of a row
    into the next. Every ``clock`` updates each bucket boundary is tested as a
    cut: the window is shrunk from its old end while two sub-windows differ in
    mean by more than the variance-based epsilon at confidence ``delta``.
    """

    MIN_SUBWINDOW = 5
    MIN_WINDOW = 10

    def __init__(self, delta: float = 0.002, max_buckets: int = 5, clock: int = 32):
        self.delta = delta
        self.max_buckets = max_buckets
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        # rows[i] holds (total, variance) buckets of width 2^i, newest first
        self.rows: list[deque[tuple[float, float]]] = [deque()]
        self.width = 0
        self.total = 0.0
        self.variance = 0.0
        self._ticks = 0

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def _insert(self, value: float) -> None:
        if self.width > 0:
            self.variance += (self.width / (self.width + 1.0)) * (value - self.mean) ** 2
        self.width += 1
        self.total += value
        self.rows[0].appendleft((value, 0.0))
        level = 0
        while len(self.rows[level]) > self.max_buckets:
            if level + 1 == len(self.rows):
                self.rows.append(deque())
            n = float(2**level)
            t2, v2 = self.rows[level].pop()  # oldest
            t1, v1 = self.rows[level].pop()  # second oldest
            merged_var = v1 + v2 + n * n / (n + n) * (t1 / n - t2 / n) ** 2
            self.rows[level + 1].appendleft((t1 + t2, merged_var))
            level += 1

    def _iter_old_to_new(self):
        for level in range(len(self.rows) - 1, -1, -1):
            w = 2**level
            for total, _ in reversed(self.rows[level]):
                yield w, total

    def _cut_found(self) -> bool:
        if self.width < self.MIN_WINDOW:
            return False
        n = float(self.width)
        var_w = self.variance / n
        dd = math.log(2.0 * math.log(n) / self.delta)
        n0 = 0.0
        s0 = 0.0
        for w, total in self._iter_old_to_new():
            n0 += w
            s0 += total
            n1 = n - n0
            if n0 < self.MIN_SUBWINDOW or n1 < self.MIN_SUBWINDOW:
                continue
            u0, u1 = s0 / n0, (self.total - s0) / n1
            m = 1.0 / (n0 - self.MIN_SUBWINDOW + 1) + 1.0 / (n1 - self.MIN_SUBWINDOW + 1)
            eps = math.sqrt(2.0 * m * var_w * dd) + (2.0 / 3.0) * dd * m
            if abs(u0 - u1) > eps:
                return True
        return False

    def _drop_oldest(self) -> None:
        for level in range(len(self.rows) - 1, -1, -1):
            if self.rows[level]:
                total, var = self.rows[level].pop()
                n1 = float(2**level)
                n2 = self.width - n1
                if n2 > 0:
                    u1, u2 = total / n1, (self.total - total) / n2
                    self.variance -= var + n1 * n2 / (n1 + n2) * (u1 - u2) ** 2
                    self.variance = max(self.variance, 0.0)
                else:
                    self.variance = 0.0
                self.width -= int(n1)
                self.total -= total
                return

    def update(self, error: int) -> str:
        self._insert(float(error))
        self._ticks += 1
        if self._ticks % self.clock != 0:
            return NO_DRIFT
        changed = False
        while self._cut_found():
            self._drop_oldest()
            changed = True
        return DRIFT if changed else NO_DRIFT


class KSWIN(BaselineDetector):
    """Kolmogorov-Smirnov windowing over the last ``window_size`` values.

    The most recent ``stat_size`` values are compared against an equally
    sized uniform sample of the older window part; drift when the KS p-value
    falls below alpha and the statistic is substantial. Sampling is driven by
    a seeded generator so runs are reproducible; reset() restores the seed.

    The p-value is Gnedenko & Korolyuk's exact two-sided series for two
    samples of one size (``ks_two_sample``). It applies at every
    ``stat_size``, also above 10,000, where library KS routines commonly
    switch to an asymptotic series; the CLI uses ``stat_size`` 30.
    """

    def __init__(
        self,
        window_size: int = 100,
        stat_size: int = 30,
        alpha: float = 0.005,
        seed: int = 0,
    ):
        if stat_size >= window_size:
            raise ValueError("stat_size must be smaller than window_size")
        self.window_size = window_size
        self.stat_size = stat_size
        self.alpha = alpha
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        # the window is a ring stored twice over, so that its n_held values,
        # oldest first, are the one slice ring[next + w - n_held : next + w]
        self.ring = np.zeros(2 * self.window_size)
        self.n_held = 0
        self.next = 0
        self.rng = np.random.default_rng(np.random.SeedSequence([0x4B535749, self.seed]))

    def update(self, error: int) -> str:
        w, s = self.window_size, self.stat_size
        self.ring[self.next] = self.ring[self.next + w] = float(error)
        self.next = (self.next + 1) % w
        self.n_held = min(self.n_held + 1, w)
        if self.n_held < w:
            return NO_DRIFT
        window = self.ring[self.next : self.next + w]
        sample = self.rng.choice(window[:-s], s, replace=True)
        ks, p = ks_two_sample(sample, window[-s:])
        if p <= self.alpha and ks > 0.1:
            self.n_held = s  # keep only the recent values
            return DRIFT
        return NO_DRIFT


def ks_two_sample(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for samples of one size n.

    Returns (D, p). D = h / n, where h is the largest gap between the two
    samples' ECDF counts. p = P(D_nn >= h / n) is the exact series
    2 sum_{j>=1} (-1)^(j+1) C(2n, n - jh) / C(2n, n) (Gnedenko & Korolyuk,
    1951), evaluated as nested products 2 A0 (1 - A1 (1 - A2 (...))) so that
    no two terms cancel. It holds for every n.
    """
    x, y = np.sort(x), np.sort(y)
    n = len(x)
    if len(y) != n:
        raise ValueError(f"ks_two_sample needs two samples of one size, got {n} and {len(y)}")
    both = np.concatenate([x, y])
    h = int(np.abs(np.searchsorted(x, both, side="right") - np.searchsorted(y, both, side="right")).max())
    if h == 0:
        return 0.0, 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0  # A_k = C(2n, n - (k + 1)h) / C(2n, n - kh), h factors
        for j in range(h):
            a = (n - k * h - j) * a / (n + k * h + j + 1)
        p = a * (1.0 - p)
    return h / n, min(max(2.0 * p, 0.0), 1.0)


def chi2_statistic(table: Sequence[Sequence[int]]) -> float:
    """Pearson chi-squared statistic of the 2x2 table [[a, b], [c, d]]:
    n (ad - bc)^2 / (r1 r2 c1 c2), exact in integers up to its one division.

    Undefined when a margin is empty; such windows must be routed to the
    exact test instead.
    """
    (a, b), (c, d) = table
    margins = (a + b) * (c + d) * (a + c) * (b + d)
    if margins == 0:
        raise ValueError("chi-squared statistic undefined for empty-margin tables")
    return (a + b + c + d) * (a * d - b * c) ** 2 / margins


def chi2_p_value(stat: float) -> float:
    """Upper tail of the chi-squared distribution with one degree of
    freedom: P(X >= stat) = erfc(sqrt(stat / 2))."""
    return math.erfc(math.sqrt(stat / 2.0))


def fisher_exact_two_sided(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value for the table [[a, b], [c, d]].

    The table with top-left cell x and the same margins weighs
    C(c1, x) C(n - c1, r1 - x); each weight follows from the last by an
    exact integer recurrence. The p-value is the sum of the weights no
    larger than the observed table's, over their total C(n, r1), with one
    correctly rounded division.
    """
    n = a + b + c + d
    r1 = a + b
    c1 = a + c
    lo = max(0, r1 + c1 - n)
    w = math.comb(c1, lo) * math.comb(n - c1, r1 - lo)
    weights = [w]
    for x in range(lo, min(r1, c1)):
        w = w * (c1 - x) * (r1 - x) // ((x + 1) * (n - c1 - r1 + x + 1))
        weights.append(w)
    w_obs = weights[a - lo]
    return sum(w for w in weights if w <= w_obs) / math.comb(n, r1)


class _ContingencyWindow(BaselineDetector):
    """Shared plumbing: freeze the first full window as the reference, then
    test each later full window's (correct, wrong) counts against it."""

    def __init__(self, window_size: int = 1000, p_value: float = 0.01):
        self.window_size = window_size
        self.p_value = p_value
        self.reset()

    def reset(self) -> None:
        self.ref: tuple[int, int] | None = None
        self.buf_n = 0
        self.buf_err = 0

    def _test(self, ref: tuple[int, int], cur: tuple[int, int]) -> float:
        raise NotImplementedError

    def update(self, error: int) -> str:
        self.buf_n += 1
        self.buf_err += error
        if self.buf_n < self.window_size:
            return NO_DRIFT
        window = (int(self.buf_n - self.buf_err), int(self.buf_err))
        self.buf_n = 0
        self.buf_err = 0
        if self.ref is None:
            self.ref = window
            return NO_DRIFT
        p = self._test(self.ref, window)
        return DRIFT if p < self.p_value else NO_DRIFT


class FETWindow(_ContingencyWindow):
    """Fisher's Exact Test on reference-vs-current error contingency."""

    def _test(self, ref, cur) -> float:
        return fisher_exact_two_sided(ref[0], ref[1], cur[0], cur[1])


class Chi2Window(_ContingencyWindow):
    """Chi-squared independence test; falls back to FET when any expected
    cell count r_i c_j / n is below 5 (the chi-squared approximation is
    unreliable there), tested in integers as min(r) min(c) < 5 n."""

    def _test(self, ref, cur) -> float:
        (a, b), (c, d) = ref, cur
        if min(a + b, c + d) * min(a + c, b + d) < 5 * (a + b + c + d):
            return fisher_exact_two_sided(a, b, c, d)
        return chi2_p_value(chi2_statistic((ref, cur)))


_DETECTORS = {
    "ddm": DDM,
    "hddm_a": HDDMA,
    "page_hinkley": PageHinkley,
    "adwin": ADWIN,
    "kswin": KSWIN,
    "chi2": Chi2Window,
    "fet": FETWindow,
}
DETECTOR_KINDS = tuple(_DETECTORS)


def make_detector(kind: str, **hyperparams) -> BaselineDetector:
    """Construct a detector by kind name with its hyperparameters."""
    if kind not in _DETECTORS:
        raise ValueError(f"unknown detector kind {kind!r}, expected one of {DETECTOR_KINDS}")
    return _DETECTORS[kind](**hyperparams)
