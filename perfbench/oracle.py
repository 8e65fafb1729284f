"""Direct subset-count oracle for per-subgroup (alpha, beta) counts.

Membership here is the definition itself: an instance belongs to subgroup S
when every item of S is among the items its row encodes to. The oracle uses
``ItemCatalog.encode`` on the raw rows and never touches the groups matrix
or the membership product, so it stays valid when the counting path changes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def subset_counts(
    item_sets: Sequence[Sequence[int]],
    alpha: np.ndarray,
    beta: np.ndarray,
    subgroups: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) counts of each subgroup over the given instances."""
    n = len(item_sets)
    needed = {i for sg in subgroups for i in sg}
    columns = {i: np.zeros(n, dtype=bool) for i in needed}
    for row, ids in enumerate(item_sets):
        for i in ids:
            col = columns.get(i)
            if col is not None:
                col[row] = True
    a_out = np.zeros(len(subgroups), dtype=np.int64)
    b_out = np.zeros(len(subgroups), dtype=np.int64)
    for k, sg in enumerate(subgroups):
        member = np.ones(n, dtype=bool)
        for i in sg:
            member &= columns[i]
        a_out[k] = int(alpha[member].sum())
        b_out[k] = int(beta[member].sum())
    return a_out, b_out


def mismatches(
    expected: tuple[np.ndarray, np.ndarray],
    alpha_counts: np.ndarray,
    beta_counts: np.ndarray,
    indices: np.ndarray,
) -> list[int]:
    """Subgroup indices whose program counts differ from the oracle's."""
    exp_a, exp_b = expected
    got_a = np.asarray(alpha_counts)[indices]
    got_b = np.asarray(beta_counts)[indices]
    bad = (got_a != exp_a) | (got_b != exp_b)
    return [int(j) for j in np.asarray(indices)[bad]]


def sample_subgroups(n_subgroups: int, drifted: Sequence[int], k: int, seed: int) -> np.ndarray:
    """The global subgroup, every drifted one and ``k`` seeded others."""
    rng = np.random.default_rng(np.random.SeedSequence([0x4F52434C, seed]))
    picked = rng.choice(n_subgroups, size=min(k, n_subgroups), replace=False)
    return np.unique(np.concatenate([[0], np.asarray(drifted, dtype=np.int64), picked]))
