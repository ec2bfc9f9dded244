"""Time one-shot `python -m sonophoton.cli` processes of this tree and of a
second source tree, alternating, and print medians and win counts; or
time the compiling of the modules that `import sonophoton.cli` executes.

    python3 tests/startup_time.py OTHER_SRC [--pairs N] [--only NAME ...]
    python3 tests/startup_time.py --compile

OTHER_SRC is the src/ directory of another checkout of this package (the
parent commit, say).  For each request below (import: `python -c "import
sonophoton.cli"`, the shape of perfbench's set-up probe; then solve-nin,
totals --model infinite, sweep, the headline spectrum and table1), or
for those named by --only, it runs N pairs of processes (default 12),
this tree first in even pairs and the other first in odd ones, so a
drift of the host's speed falls on both.  Each time is the wall time of
the whole process, start-up included, with its output discarded.  It
prints per request the median time of each tree, their ratio and the
number of pairs this tree won.

With --compile it imports sonophoton.cli from this tree, noting each of
the package's modules that the import executes (through the "exec"
audit event; the lazily registered bubble and specfun are not executed
until first used), and prints for each module the fastest of 30
compile() calls of its source, as the import compiles it when no
bytecode cache is read, then their sum and whether
sys.dont_write_bytecode is set (PYTHONDONTWRITEBYTECODE, -B).  The name
does not match test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CLI = ["-m", "sonophoton.cli"]
# name -> the interpreter's arguments
REQUESTS = {
    "import": ["-c", "import sonophoton.cli"],
    "solve-nin": [*CLI, "solve-nin", "--n-out", "12", "--target", "1e6"],
    "totals": [*CLI, "totals", "--n-in", "1", "--n-out", "12",
               "--model", "infinite"],
    "sweep": [*CLI, "sweep"],
    "spectrum": [*CLI, "spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                 "--n-liquid", "1.3", "--radius-nm", "500",
                 "--cutoff-nm", "200", "--model", "both"],
    "table1": [*CLI, "table1"],
}


def one_shot(src: Path, args: list[str]) -> float:
    """Wall seconds of one `python args` process with src on its path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms,
    # which quantises the times
    subprocess.run([sys.executable, *args], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def compile_times(reps: int = 30) -> None:
    """Print the fastest of reps compile() calls of each package module
    that `import sonophoton.cli` executes, and their sum."""
    package = str(ROOT / "src" / "sonophoton")
    executed: list[str] = []

    def on_exec(event: str, args: tuple) -> None:
        name = getattr(args[0], "co_filename", "") if event == "exec" else ""
        if name.startswith(package):
            executed.append(name)

    sys.addaudithook(on_exec)
    sys.path.insert(0, str(ROOT / "src"))
    import sonophoton.cli  # noqa: F401

    total = 0.0
    for path in executed:
        source = Path(path).read_bytes()
        best = min(timeit.repeat(
            lambda: compile(source, path, "exec", dont_inherit=True),
            number=1, repeat=reps))
        total += best
        lines = source.count(b"\n")
        print(f"{Path(path).name:<15} {lines:5d} lines {1e3 * best:7.2f} ms")
    print(f"{'sum':<27} {1e3 * total:7.2f} ms  "
          f"sys.dont_write_bytecode={sys.dont_write_bytecode}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--only", action="append", choices=REQUESTS,
                        help="time only this request (repeatable)")
    parser.add_argument("--compile", action="store_true",
                        help="time compiling the modules the CLI imports")
    args = parser.parse_args(argv)
    if args.compile:
        compile_times()
        return 0
    if args.other_src is None:
        parser.error("OTHER_SRC is required without --compile")
    trees = (ROOT / "src", args.other_src.resolve())
    for name in args.only or REQUESTS:
        request = REQUESTS[name]
        times: tuple[list[float], list[float]] = ([], [])
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for tree in order:
                times[tree].append(one_shot(trees[tree], request))
        this, other = (statistics.median(t) for t in times)
        wins = sum(a < b for a, b in zip(*times))
        print(f"{name:<9} this {1e3 * this:9.1f} ms  other "
              f"{1e3 * other:9.1f} ms  ratio {this / other:.3f}  "
              f"this won {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
