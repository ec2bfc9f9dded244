"""Time closed-form CLI requests of this tree and of a second source tree
in one process, in pairs, and print medians, ratios and win counts.

    python3 tests/request_time.py OTHER_SRC [--rounds N]

OTHER_SRC is the src/ directory of another checkout of this package (the
parent commit, say).  Both trees are loaded in this process
(tests/two_trees.py), this one as ``sonophoton`` and OTHER_SRC's as
``sonophoton_other``.  Each request is one ``cli.main(argv)`` call with
stdout captured, as perfbench's worker makes it.

First every argv of perfbench's closed-form pool (256 solve-nin, 256
totals --model infinite, 16 sweep) runs once on each tree, and the two
must give the same exit code and output.  Then, N rounds (default 6):

- for solve-nin, totals and sweep, every pool argv of that command runs
  on both trees back to back, this tree first in even pairs and the
  other first in odd ones, so a drift of the host's speed falls on both;
- the same for each request of a whole seed-1 pass (2000 requests, the
  mix perfbench's closed-form workload sends).

For each group it prints the median request time of each tree, their
ratio, the median of the per-pair ratios and the number of pairs this
tree won; for the pass also each tree's summed time.  One-shot process
times, start-up included, are tests/startup_time.py's.  The name does
not match test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

from two_trees import load

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's request pool)


def run(main, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, stdout) of one main(argv) call."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    return time.perf_counter() - start, code, sink.getvalue()


def paired(mains, argvs: list[list[str]], rounds: int):
    """Per tree, the times of each argv over the rounds, in pair order."""
    times: tuple[list[float], list[float]] = ([], [])
    for r in range(rounds):
        for i, argv in enumerate(argvs):
            for tree in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                times[tree].append(run(mains[tree], argv)[0])
    return times


def report(name: str, times, total: bool = False) -> None:
    this, other = times
    med_this, med_other = statistics.median(this), statistics.median(other)
    pair_ratio = statistics.median(a / b for a, b in zip(this, other))
    wins = sum(a < b for a, b in zip(this, other))
    line = (f"{name:<10} this {1e6 * med_this:8.1f} us  other "
            f"{1e6 * med_other:8.1f} us  ratio {med_this / med_other:.3f}  "
            f"paired {pair_ratio:.3f}  this won {wins}/{len(this)}")
    if total:
        line += (f"  sums {sum(this):.3f} s / {sum(other):.3f} s "
                 f"({sum(this) / sum(other):.3f})")
    print(line)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    mains = (load(ROOT / "src", "sonophoton").cli.main,
             load(args.other_src.resolve(), "sonophoton_other").cli.main)
    pools = dict(zip(("solve-nin", "totals", "sweep"),
                     ([list(a) for a in pool]
                      for pool in workloads.closed_form_pool())))
    for argvs in pools.values():
        for request in argvs:
            this, other = (run(m, request)[1:] for m in mains)
            if this != other:
                print(f"outputs differ: {' '.join(request)}\n"
                      f"this:  {this}\nother: {other}", file=sys.stderr)
                return 1
    print(f"outputs equal on {sum(map(len, pools.values()))} pool argvs")
    for name, argvs in pools.items():
        report(name, paired(mains, argvs, args.rounds))
    seed_pass = [list(r.argv) for r in workloads.get("closed-form", 1).requests]
    report("seed-1", paired(mains, seed_pass, args.rounds), total=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
