"""Sweep sph_jn_table over about a million arguments per order and
compare it with the sph_jn_table of a second source tree.

    python3 tests/bessel_sweep.py OTHER_SRC [--n N] [--seed S]

OTHER_SRC is the src/ directory of another checkout of this package
(the parent commit, say).  At lmax 10, 63 and 463 the sweep takes N
seeded arguments (default 1e6): x = 0 and x = lmax, half the rest
log-uniform on [1e-12, lmax) (the downward branch down to tiny x), half
uniform on [0, 2 lmax) (the oscillatory region and the upward branch).
It evaluates both trees' tables in chunks, asserts that every value of
this tree's table is finite, and prints per lmax the largest
|this - other| over the column's largest |j_l| of this tree, with the
order and argument where it occurs.  The name does not match
test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sonophoton.specfun import sph_jn_table  # noqa: E402

CHUNK = 4096


def load_other(src: Path):
    """sonophoton.specfun of the tree src, imported as another package."""
    name = "sonophoton_other"
    spec = importlib.util.spec_from_file_location(
        name, src / "sonophoton" / "__init__.py",
        submodule_search_locations=[str(src / "sonophoton")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".specfun")


def arguments(lmax: int, n: int, rng: np.random.Generator) -> np.ndarray:
    half = (n - 2) // 2
    return np.concatenate((
        [0.0, float(lmax)],
        np.exp(rng.uniform(np.log(1e-12), np.log(lmax), half)),
        rng.uniform(0.0, 2.0 * lmax, n - 2 - half)))


def sweep(lmax: int, xs: np.ndarray, other) -> tuple[float, int, float]:
    """(largest relative difference, its order, its argument)."""
    worst = (0.0, 0, 0.0)
    for c0 in range(0, xs.size, CHUNK):
        x = xs[c0:c0 + CHUNK]
        tab = sph_jn_table(lmax, x)
        assert np.all(np.isfinite(tab)), f"non-finite j_l at lmax {lmax}"
        rel = np.abs(tab - other.sph_jn_table(lmax, x)) / np.abs(tab).max(0)
        l, col = np.unravel_index(np.argmax(rel), rel.shape)
        if rel[l, col] > worst[0]:
            worst = (float(rel[l, col]), int(l), float(x[col]))
    return worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path)
    parser.add_argument("--n", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    other = load_other(args.other_src.resolve())
    rng = np.random.default_rng(args.seed)
    for lmax in (10, 63, 463):
        start = time.perf_counter()
        rel, l, x = sweep(lmax, arguments(lmax, args.n, rng), other)
        print(f"lmax {lmax}: {args.n} arguments, largest |diff| / column "
              f"max {rel:.3g} at j_{l}({x!r}) "
              f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
