"""Byte-identity of a small pipeline's outputs with the checked-in goldens.

A change that alters an output on purpose regenerates them with
``tests/golden/update.py`` and names each changed file in CHANGES.md.
"""

import difflib
import time

import numpy as np

from golden.update import NUMPY, OUT, outputs


def _first_difference(name: str, want: bytes, got: bytes) -> str:
    diff = difflib.unified_diff(
        want.decode().splitlines(), got.decode().splitlines(), f"golden/{name}", f"run/{name}", lineterm="", n=0
    )
    return "\n".join(list(diff)[:8])


def test_pipeline_outputs_match_the_goldens(tmp_path):
    start = time.perf_counter()
    got = outputs(tmp_path)
    elapsed = time.perf_counter() - start
    want = {p.relative_to(OUT).as_posix(): p.read_bytes() for p in sorted(OUT.rglob("*")) if p.is_file()}
    versions = f"goldens written with numpy {NUMPY.read_text().strip()}, this run has numpy {np.__version__}"
    assert sorted(got) == sorted(want), versions
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, (
        f"{len(changed)} output(s) differ from tests/golden/out ({versions}): {', '.join(changed)}\n"
        + _first_difference(changed[0], want[changed[0]], got[changed[0]])
        + "\nregenerate with tests/golden/update.py if the change is intended"
    )
    assert elapsed < 5.0, f"the golden pipeline took {elapsed:.1f} s"
