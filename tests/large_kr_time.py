"""Time the finite-volume engine's passes at large K R in this tree and in a
second source tree, alternating, and print medians and win counts.

    python3 tests/large_kr_time.py OTHER_SRC [--pairs N]

OTHER_SRC is the src/ directory of another checkout of this package (the
parent commit, say); both trees are loaded in this process
(tests/two_trees.py).  Each case below calls the engine's omega_in
quadrature (`bubble._sums` with `_direct_weight`, n_in 2 to n_out 1.5,
on the ungraded `_panel_edges` of K R, as `spectrum_finite` calls it) on
output points spread evenly up to K R, with tol 0, so that every point
goes through all _LEVELS levels of panels before the expected
NumericalError; the edges are built inside the timed call.  Each tree's
lazily loaded bubble module runs before the first timed call.  The N
pairs (default 10) run this tree first in even pairs and the other first
in odd ones, so a drift of the host's speed falls on both.  Wall and CPU
time are those of the call alone; `OPENBLAS_NUM_THREADS=1 python3
tests/large_kr_time.py OTHER_SRC` times both trees with one BLAS thread.
It prints per case the median of each tree and the number of pairs this
tree won on each.  The name does not match test_*.py, so pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from two_trees import load

ROOT = Path(__file__).resolve().parents[1]

# (K R, output points)
CASES = ((11500.0, 10), (40000.0, 3))


def quadrature(package):
    """(K R, points) -> (wall s, CPU s) of one of package's calls; taking
    its functions runs the lazily loaded bubble module."""
    sums, panel_edges = package.bubble._sums, package.bubble._panel_edges
    weight = functools.partial(package.bubble._direct_weight, 2.0, 1.5)

    def run(kr: float, points: int) -> tuple[float, float]:
        u = kr * np.arange(1, points + 1) / points
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            sums(u, panel_edges(kr, False), weight, 0.0)
        except package.NumericalError:
            pass
        return time.perf_counter() - wall, time.process_time() - cpu
    return run


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    runs = (quadrature(load(ROOT / "src", "sonophoton")),
            quadrature(load(args.other_src.resolve(), "sonophoton_other")))
    for kr, points in CASES:
        times: tuple[list, list] = ([], [])
        for i in range(args.pairs):
            for tree in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[tree].append(runs[tree](kr, points))
        print(f"K R {kr:g} x {points} points, {args.pairs} pairs")
        for column, key in enumerate(("wall_s", "cpu_s")):
            this, other = ([run[column] for run in side] for side in times)
            wins = sum(a < b for a, b in zip(this, other))
            print(f"  {key:<6} this {statistics.median(this):9.3f}  other "
                  f"{statistics.median(other):9.3f}  this won "
                  f"{wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
