"""fsilab benchmark: end-to-end and per-layer timings of three tube workloads.

Run from the repository root:

    python3 perfbench/run.py --workload tube-ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus the tracing overhead against an untraced run in
the same process). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment, the iteration-count fingerprint, the raw
pass times and every failed operation. ``--smoke`` runs every workload on a
tiny tube in both modes, checks the metric names and units against
``BENCHMARK.json`` and checks that perturbed outputs are counted as failed.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# BLAS pools are sized when numpy loads, so the thread count is fixed before
# anything imports numpy; the tube iteration counts depend on it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="tube-ref, capgrid or picard-aitken")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the shipped tube1d.cfg unchanged")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not (SRC / "fsilab" / "__init__.py").is_file():
        print(f"error: no fsilab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import fsilab

    if Path(fsilab.__file__).resolve().parent != SRC / "fsilab":
        print(f"error: imported fsilab from {fsilab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in (None, *bench.workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    if args.smoke:
        return bench.smoke()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
