"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-pools --seed 0 --seconds 30 \\
        --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
A run first sets up: it times fresh interpreters importing the library,
then builds every pool's environment, generates the inputs from the seed
and makes one untimed warm-up plan, several times over.  It then repeats
whole *passes* over the workload's inputs until the next pass would end
after ``--seconds`` (at least one pass).  Every chosen plan and every
applied reconfiguration is checked against a fresh simulator.  Durations
are reported at a fixed reference speed measured between the operations
(``speed.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, records spans around each layer's public
functions (``spans.py``), writes them to ``.perfbench_out/`` and reports
the per-layer metrics, the unattributed share and the tracing overhead.
``LAYERS.md`` describes the workloads and maps the two sets of metrics
onto each other.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library under {ROOT / 'src'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    # Before numpy loads: the planner is single-threaded numpy, and one
    # BLAS thread (at most nproc) keeps runs steady on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
