"""Workload definitions: the CLI requests each workload issues per pass.

A request is one ``sonophoton.cli.main(argv)`` call.  Requests that
write a file get ``--output <path>`` appended by the worker; the others
write CSV to stdout, which the worker captures.  ``golden_key`` names
the committed seed-commit output the request is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Reference rows of the paper's emission table: (n_gas_in, n_gas_out) ->
# (photon count, <E>/(hbar omega_max)).  Kept here, not imported from the
# program, so a refactor of the CLI cannot move the yardstick.
TABLE1_REFERENCE = {
    (2e4, 1.0): (1.06e6, 0.803),
    (71.0, 25.0): (1.00e6, 0.750),
    (68.0, 34.0): (1.06e6, 0.751),
    (9.0, 25.0): (0.955e6, 0.750),
    (1.0, 12.0): (0.98e6, 0.765),
}
# Metric suffixes of the cases, in the order the CLI runs them.
TABLE1_CASE_NAMES = ("2e4_1", "71_25", "68_34", "9_25", "1_12")

# Relative deviation from the golden outputs that still counts as correct.
# Finite-volume values may move within the quadrature tolerance and by the
# <= 2e-4 that a change of the l-truncation rule is allowed; the closed
# forms are exact up to rounding.
FINITE_TOL = 1e-3
CLOSED_FORM_TOL = 1e-9

# The closed-form request pool is fixed (its outputs are committed); the run
# seed only chooses which pool entries are sent and in what order.
CLOSED_FORM_POOL_SEED = 1998
CLOSED_FORM_REQUESTS = 2000


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    to_file: bool
    golden_key: str | None


@dataclass(frozen=True)
class Workload:
    name: str
    engine: bool            # whether the finite-volume engine must run
    warmup: bool            # run one untimed pass before timing
    min_passes: int
    requests: tuple[Request, ...] = field(repr=False)
    golden_file: str | None
    tol: float
    timeout_s: float = 170.0
    segment: int = 1        # requests per stretch between host-speed samples
    speed_samples: int = 1  # host-speed samples in each gap between stretches


def _g(value: float) -> str:
    return f"{value:.6g}"


def closed_form_pool() -> tuple[list, list, list]:
    """The fixed solve-nin, totals and sweep argument lists."""
    rng = random.Random(CLOSED_FORM_POOL_SEED)
    solve = [("solve-nin", "--n-out", _g(rng.uniform(1.0, 100.0)),
              "--target", _g(10.0 ** rng.uniform(4.0, 8.0)))
             for _ in range(256)]
    totals = [("totals", "--n-in", _g(10.0 ** rng.uniform(-0.3, 4.3)),
               "--n-out", _g(rng.uniform(1.0, 100.0)),
               "--radius-nm", _g(rng.uniform(100.0, 2000.0)),
               "--model", "infinite")
              for _ in range(256)]
    sweep = [("sweep", "--target", _g(10.0 ** rng.uniform(4.0, 8.0)),
              "--n-out-points", "200")
             for _ in range(16)]
    return solve, totals, sweep


def _closed_form_requests(seed: int, count: int) -> tuple[Request, ...]:
    pools = closed_form_pool()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        argv = rng.choice(pools[rng.randrange(3)])
        out.append(Request(argv, False, " ".join(argv)))
    return tuple(out)


HEADLINE_ARGV = ("spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                 "--n-liquid", "1.3", "--radius-nm", "500", "--cutoff-nm", "200",
                 "--model", "both")
ROW_ARGV = ("totals", "--n-in", "1", "--n-out", "12", "--model", "finite")


def get(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks it for the self-test."""
    if name == "spectrum-headline":
        argv = (HEADLINE_ARGV[:9] + ("--k-obs-r", "3", "--grid-points", "20",
                                     "--model", "both")) if tiny else HEADLINE_ARGV
        return Workload(
            name, engine=True, warmup=True, min_passes=3,
            requests=(Request(argv, True, None if tiny else name),),
            golden_file=None if tiny else f"{name}.csv", tol=FINITE_TOL,
            speed_samples=3)
    if name == "table1-1_12":
        argv = ROW_ARGV + (("--k-obs-r", "4", "--grid-points", "16") if tiny else ())
        return Workload(
            name, engine=True, warmup=False, min_passes=2,
            requests=(Request(argv, True, None if tiny else name),),
            golden_file=None if tiny else f"{name}.csv", tol=FINITE_TOL)
    if name == "closed-form":
        return Workload(
            name, engine=False, warmup=True, min_passes=3,
            requests=_closed_form_requests(seed, 36 if tiny else CLOSED_FORM_REQUESTS),
            golden_file=None if tiny else f"{name}.json", tol=CLOSED_FORM_TOL,
            segment=12 if tiny else 50)
    if name == "table1":
        argv = ("table1",) + (("--k-obs-r", "3", "--grid-points", "12") if tiny else ())
        return Workload(
            name, engine=True, warmup=False, min_passes=1,
            requests=(Request(argv, True, None if tiny else name),),
            golden_file=None if tiny else f"{name}.csv", tol=FINITE_TOL,
            timeout_s=1800.0)
    raise KeyError(name)


NAMES = ("spectrum-headline", "table1-1_12", "closed-form", "table1")
