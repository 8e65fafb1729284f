"""driftscope benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload monitor-deep --seed 1 --seconds 6 --trace 0

``--trace 0`` runs the workload's CLI commands untraced, each in a fresh
process, and reports the end-to-end metrics; ``--trace 1`` runs the same
commands in this process with the program's layer functions wrapped in spans
and reports the per-layer metrics (spans are written to
``.perfbench_out/<workload>.spans.jsonl``). Human-readable lines come first;
the last line of standard output is the JSON result. Exit code 2 means the
program under test (``src/driftscope``) is not in this checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one thread of work per process: set before numpy loads, inherited by the CLI
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def result_line(result: dict, units: dict) -> dict:
    """The JSON result: operation totals and exactly the expected metrics."""
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    if got != units:
        raise RuntimeError(f"metric names or units differ from the declared ones: {sorted(set(got) ^ set(units))}")
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in result["metrics"].items()},
    }


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    result = workloads.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    facts = machine_facts(args.seed)
    facts["mining.n_subgroups"] = {args.workload: result["extra"].pop("n_subgroups")}
    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    line = result_line(result, units)
    metrics = line["metrics"]

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:36s} {m['value']:14.6g} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"{args.workload:16s} {name:36s} {'n/a' if value is None else format(value, '14.6g')}")
    for failure in result["failures"]:
        print(f"failed: {failure}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "machine": facts, **result}
    kind = "trace" if args.trace else "result"
    with open(out_dir / f"{args.workload}.{kind}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=float)

    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if not (SRC / "driftscope" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'driftscope'} not found; run from a driftscope checkout", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
