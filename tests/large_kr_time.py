"""Time the finite-volume engine's passes at large K R in this tree and in a
second source tree, alternating, and print medians and win counts.

    python3 tests/large_kr_time.py OTHER_SRC [--pairs N]

OTHER_SRC is the src/ directory of another checkout of this package (the
parent commit, say).  Each case below calls the engine's omega_in
quadrature (`bubble._sums`, n_in 2 to n_out 1.5) on output points spread
evenly up to K R, with tol 0, so that every point goes through all
_LEVELS levels of panels before the expected NumericalError.  Each call
runs in a child process that imports one tree; the N pairs (default 10)
run this tree first in even pairs and the other first in odd ones, so a
drift of the host's speed falls on both.  Wall and CPU time are those of
the call alone, max RSS that of the whole child.  It prints per case the
median of each tree and the number of pairs this tree won on each.  The
name does not match test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (K R, output points)
CASES = ((11500.0, 10), (40000.0, 3))

CHILD = """
import json, resource, sys, time
import numpy as np
from sonophoton import NumericalError, bubble
kr, points = float(sys.argv[1]), int(sys.argv[2])
u = kr * np.arange(1, points + 1) / points
wall, cpu = time.perf_counter(), time.process_time()
try:
    bubble._sums(u, 2.0, 1.5, kr, 0.0)
except NumericalError:
    pass
print(json.dumps({"wall_s": time.perf_counter() - wall,
                  "cpu_s": time.process_time() - cpu,
                  "max_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def one_run(src: Path, kr: float, points: int) -> dict[str, float]:
    """wall_s, cpu_s and max_rss_mb of one child process of src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(kr), str(points)],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=600)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = (ROOT / "src", args.other_src.resolve())
    for kr, points in CASES:
        runs: tuple[list[dict], list[dict]] = ([], [])
        for i in range(args.pairs):
            for tree in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[tree].append(one_run(trees[tree], kr, points))
        print(f"K R {kr:g} x {points} points, {args.pairs} pairs")
        for key in ("wall_s", "cpu_s", "max_rss_mb"):
            this, other = ([run[key] for run in side] for side in runs)
            wins = sum(a < b for a, b in zip(this, other))
            print(f"  {key:<10} this {statistics.median(this):9.3f}  other "
                  f"{statistics.median(other):9.3f}  this won "
                  f"{wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
