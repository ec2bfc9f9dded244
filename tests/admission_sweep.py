"""Compare which finite-volume problems this tree and a second source tree
admit, and print the problems that only the other one admits.

    python3 tests/admission_sweep.py OTHER_SRC

OTHER_SRC is the src/ directory of another checkout of this package (the
parent commit, say).  For each tree one child process calls
`spectrum_finite` on every problem of the grid below, with `bubble._sums`
patched to raise a sentinel: a problem that reaches the sentinel passed
both size guards (admitted), one that raises `DomainError` was refused,
and no engine pass runs.  The grid: gas-side K R = 10^(k/4) for
k = -8..32 (1e-2 to 1e8), grid_points = round(2 10^(k/2)) for k = 0..12
(2 to 2e6), grid_extend 1, 1.3 and 4, and n_in 1 and 2 against n_out 1.5
(the first panel graded and not).  It prints each tree's admitted count
and every problem that OTHER_SRC admits and this tree refuses, and exits
1 if there is one.  The name does not match test_*.py, so pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from sonophoton import (DomainError, FiniteSpectrumConfig, MediumTransition,
                        bubble, build_geometry_from_kr, spectrum_finite)

class Admitted(Exception):
    pass

def admitted(*args):
    raise Admitted

bubble._sums = admitted
verdicts = []
for n_in in (1.0, 2.0):
    tr = MediumTransition(n_in=n_in, n_out=1.5)
    for k in range(-8, 33):
        geom = build_geometry_from_kr(10.0**(k / 4) * 1.3 / 1.5, 1.3)
        for g in range(13):
            for extend in (1.0, 1.3, 4.0):
                cfg = FiniteSpectrumConfig(grid_points=round(2 * 10**(g / 2)),
                                           grid_extend=extend)
                try:
                    spectrum_finite(tr, geom, cfg)
                except Admitted:
                    verdict = "admitted"
                except DomainError:
                    verdict = "refused"
                verdicts.append([n_in, k / 4, cfg.grid_points, extend,
                                 verdict])
print(json.dumps(verdicts))
"""


def verdicts(src: Path) -> list[list]:
    """[n_in, log10 K R, grid_points, grid_extend, verdict] per problem."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    args = parser.parse_args(argv)
    this, other = verdicts(ROOT / "src"), verdicts(args.other_src.resolve())
    for name, runs in (("this", this), ("other", other)):
        count = sum(run[-1] == "admitted" for run in runs)
        print(f"{name}: {count} of {len(runs)} problems admitted")
    lost = [mine[:-1] for mine, theirs in zip(this, other)
            if theirs[-1] == "admitted" and mine[-1] != "admitted"]
    print(f"admitted by other, refused by this: {len(lost)}")
    for n_in, log_kr, grid_points, extend in lost:
        print(f"  n_in {n_in:g}, K R 1e{log_kr:g}, grid_points "
              f"{grid_points}, grid_extend {extend:g}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
