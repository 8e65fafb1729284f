"""Seeded input generation for the benchmark workloads.

Everything in this module runs outside the timed region, and the program
under test only ever sees the files written here. The census rows, the
reference/stream split, the model predictions ``y_hat`` (a tree fitted on the
reference) and the drift-injection target all derive from the seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from driftscope.datasets import ADULT_COLUMNS, census_sample
from driftscope.evaluation import ColumnData
from driftscope.streams import fit_tree

# Half of the 48,842-row census surrogate is the reference that gets mined.
SURROGATE_ROWS = 48842
REF_ROWS = SURROGATE_ROWS // 2
TREE_DEPTH = 8


def write_csv(path: Path, rows, columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({c: r[c] for c in columns})


def monitor_inputs(seed: int, stream_rows: int, ref_path: Path, stream_path: Path) -> None:
    """Reference CSV (attributes + y) and a stationary stream CSV (+ y_hat).

    Rows are drawn from one surrogate sample and split by a seeded
    permutation; ``y_hat`` comes from a depth-8 tree fitted on the reference.
    """
    rows = census_sample(n=REF_ROWS + stream_rows, seed=seed)
    perm = np.random.default_rng(np.random.SeedSequence([0x52454631, seed])).permutation(len(rows))
    ref_idx, stream_idx = perm[:REF_ROWS], perm[REF_ROWS:]
    cols = ColumnData(rows)
    X = cols.feature_matrix()
    model = fit_tree(X[ref_idx], cols.y[ref_idx], max_depth=TREE_DEPTH)
    y_hat = model.predict(X[stream_idx])
    write_csv(ref_path, (rows[i] for i in ref_idx), [*ADULT_COLUMNS, "y"])
    stream = []
    for i, yh in zip(stream_idx, y_hat):
        rec = dict(rows[i])
        rec["y_hat"] = int(yh)
        stream.append(rec)
    write_csv(stream_path, stream, [*ADULT_COLUMNS, "y", "y_hat"])


def eval_inputs(seed: int, data_path: Path, ref_path: Path | None = None) -> None:
    """The full-size surrogate for the injection suite, drawn from the seed,
    and optionally a seeded half of it as a reference to mine."""
    rows = census_sample(n=SURROGATE_ROWS, seed=seed)
    write_csv(data_path, rows, [*ADULT_COLUMNS, "y"])
    if ref_path is not None:
        perm = np.random.default_rng(np.random.SeedSequence([0x52454631, seed])).permutation(len(rows))
        write_csv(ref_path, (rows[i] for i in perm[:REF_ROWS]), [*ADULT_COLUMNS, "y"])


def pick_target(seed: int, artifact_path: Path, band: tuple[float, float]) -> str:
    """A seed-chosen mined subgroup of two or more items with support in
    ``band``, as the ``--subgroup`` argument of ``driftscope inject``.
    Candidates are taken in catalog order so the choice depends on the seed
    and the mined catalog only.
    """
    with open(artifact_path, encoding="utf-8") as fh:
        art = json.load(fh)
    items = {e["id"]: (e["attribute"], e["value"]) for e in art["item_catalog"]["items"]}
    lo, hi = band
    band_sgs = [
        tuple(e["items"])
        for e in art["subgroup_catalog"]["subgroups"]
        if len(e["items"]) >= 2 and lo <= e["support"] <= hi
    ]
    if not band_sgs:
        raise RuntimeError(f"no mined subgroup with support in [{lo}, {hi}]")
    rng = np.random.default_rng(np.random.SeedSequence([0x54475431, seed]))
    target = band_sgs[int(rng.integers(len(band_sgs)))]
    return ",".join(f"{items[i][0]}={items[i][1]}" for i in target)
