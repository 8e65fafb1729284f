"""Regenerate the golden outputs that ``tests/test_golden.py`` compares with.

The pipeline is small and reads only the program's own seeded inputs: a
``census_sample`` table (reference rows, and a stream with predictions), and
``gen --dataset sea``. It runs, in one working directory and with relative
paths, ``mine`` at high support and max_len 3, ``inject``, ``monitor`` in
JSONL and in CSV over the injected stream, ``report`` as Markdown and CSV with
``--shapley``, a 2-experiment ``eval --suite inject`` and ``eval --suite sea``.

Run from the repository root after a change that alters an output on purpose:

    PYTHONPATH=src python tests/golden/update.py

It rewrites ``tests/golden/out/`` and ``tests/golden/numpy.txt`` (the numpy
version that wrote them) and prints each file that changed.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from driftscope.cli import main
from driftscope.datasets import census_sample

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
NUMPY = HERE / "numpy.txt"

# A manifest is compared on these fields only: "python" names the interpreter
# and "argv" is the calling process's own (the test runner's, in process).
# Every path in "config" is relative to the working directory, so stable.
MANIFEST_FIELDS = ("tool", "version", "config")

# The pipeline's inputs, written by it and not compared.
INPUTS = ("reference.csv", "stream.csv")

CENSUS_COLUMNS = ("age", "workclass", "education", "marital_status", "relationship", "sex", "hours_per_week", "y")

STEPS = [
    ["gen", "--dataset", "sea", "--concepts", "0,2", "--drift-center", "100", "--drift-width", "40",
     "--n-batches", "6", "--batch-size", "25", "--train-size", "100", "--seed", "3",
     "--out", "sea.csv", "--train-out", "sea_train.csv"],
    ["mine", "--input", "reference.csv", "--min-support", "0.1", "--max-len", "3", "--out", "catalog.json"],
    ["inject", "--input", "stream.csv", "--catalog", "catalog.json", "--subgroup", "sex=Female",
     "--p-max", "0.9", "--normal", "4", "--transition", "2", "--drift", "4", "--seed", "1",
     "--out", "injected.csv", "--mask", "mask.csv"],
    ["monitor", "--catalog", "catalog.json", "--input", "injected.csv", "--window", "3",
     "--batch-size", "40", "--top-k", "8", "--out", "monitor"],
    ["monitor", "--catalog", "catalog.json", "--input", "injected.csv", "--window", "3",
     "--batch-size", "40", "--top-k", "8", "--format", "csv", "--out", "monitor_csv"],
    ["report", "--reports", "monitor", "--catalog", "catalog.json", "--top", "12", "--shapley",
     "--out", "report.md"],
    ["report", "--reports", "monitor", "--catalog", "catalog.json", "--top", "12", "--prune-t", "2",
     "--format", "csv", "--shapley", "--out", "pruned.csv"],
    ["eval", "--suite", "inject", "--rows", "2000", "--supports", "0.1", "--n-exp", "1", "--out", "eval_inject.csv"],
    ["eval", "--suite", "sea", "--n-exp", "1", "--out", "eval_sea.csv"],
]


def _write_inputs(work: Path) -> None:
    """1000 reference rows and a 400-row stream of census rows, the stream
    with a prediction ``y_hat`` that disagrees with ``y`` on ~15% of rows."""
    rows = census_sample(n=1400, seed=5)
    flip = np.random.default_rng(5).random(400) < 0.15
    stream = [{**r, "y_hat": r["y"] ^ int(f)} for r, f in zip(rows[1000:], flip)]
    for name, part, columns in (
        ("reference.csv", rows[:1000], CENSUS_COLUMNS),
        ("stream.csv", stream, (*CENSUS_COLUMNS, "y_hat")),
    ):
        with open(work / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, columns, extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            writer.writerows(part)


def outputs(work: Path) -> dict[str, bytes]:
    """Run the pipeline in ``work`` and return every file it wrote, by
    relative path; a manifest holds its ``MANIFEST_FIELDS`` only."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        _write_inputs(work)
        for step in STEPS:
            if main(step) != 0:
                raise RuntimeError(f"driftscope {' '.join(step)} failed")
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(work.rglob("*")):
        name = path.relative_to(work).as_posix()
        if not path.is_file() or name in INPUTS:
            continue
        data = path.read_bytes()
        if name.endswith("manifest.json"):
            manifest = json.loads(data)
            stable = {k: manifest[k] for k in MANIFEST_FIELDS}
            data = (json.dumps(stable, indent=2, sort_keys=True) + "\n").encode()
        files[name] = data
    return files


def update() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = outputs(Path(tmp))
    old = {p.relative_to(OUT).as_posix(): p.read_bytes() for p in OUT.rglob("*") if p.is_file()}
    shutil.rmtree(OUT, ignore_errors=True)
    for name, data in files.items():
        (OUT / name).parent.mkdir(parents=True, exist_ok=True)
        (OUT / name).write_bytes(data)
    NUMPY.write_text(np.__version__ + "\n")
    for name in sorted(set(files) | set(old)):
        if files.get(name) != old.get(name):
            status = "added" if name not in old else "removed" if name not in files else "changed"
            print(f"{status}: tests/golden/out/{name}")


if __name__ == "__main__":
    update()
