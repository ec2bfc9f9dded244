"""The command line's one invariant over every command and option.

`cli.main` returns 0 to 3 and never raises.  On exit 0 every numeric
cell of the CSV rows is finite and >= 0, apart from table1's signed
deviations (N_rel_dev, ratio_dev) and blank cells, and a spectrum's
grid columns (x, omega_out_rad_s, nu_Hz) start above 0 and strictly
increase.  On exit 1 or 3 stderr holds exactly one "error:" or
"numerical error:" line.

Argvs are drawn from `cli._plain_table()`: each command's option strings,
types and choices, so a new option is fuzzed without editing this file.
--config and --output are left out.  Numbers are log-uniform over
1e-320 to 1e308, either sign, or an edge of the float range (0, the
smallest subnormal and normal, the largest float, inf, nan), or near the
option's default.  Each finite-volume problem is bounded by the engine's
own first-pass pair guard, lowered to PAIR_BUDGET (~40 ms a problem).

Tier-1 runs a derandomized slice.  Deep sweeps run as a script:

    PYTHONPATH=src python tests/test_cli_invariants.py --examples 5000 --seed 1

which prints the exit codes met per command and exits 1 on a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
import warnings
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from sonophoton import bubble, cli

# first-pass (node, point) pairs a finite-volume problem may sum here
PAIR_BUDGET = 2_000_000
LEFT_OUT = frozenset({"--config", "--output"})
# table1's signed deviations; text columns hold names, not numbers
SIGNED = frozenset({"N_rel_dev", "ratio_dev"})
TEXT = frozenset({"model", "branch", "status"})
# a spectrum's grid columns
GRID = ("x", "omega_out_rad_s", "nu_Hz")
FLOAT_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               math.inf, math.nan)
INT_EDGES = (0, 2**31, 2**63, 10**30, 10**308, 10**309)
ERROR_PREFIXES = ("error:", "numerical error:")


def value(action):
    """Text of a value for one option, drawn by its type and choices."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    sign = st.sampled_from((1, 1, 1, -1))
    if action.type is int:
        magnitude = st.one_of(st.integers(0, 1000), st.sampled_from(INT_EDGES))
        return st.builds(lambda s, m: str(s * m), sign, magnitude)
    default = action.default if action.default else 1.0
    magnitude = st.one_of(
        st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
        st.sampled_from(FLOAT_EDGES),
        st.floats(-2.0, 2.0).map(lambda e: default * 10.0**e))
    return st.builds(lambda s, m: repr(s * m), sign, magnitude)


@st.composite
def argvs(draw):
    """A command and pairs of its option strings and values: every
    required option, and any of the others."""
    table = cli._plain_table()
    command = draw(st.sampled_from(sorted(table)))
    options, _, required = table[command]
    argv = [command]
    for flag in sorted(set(options) - LEFT_OUT):
        action = options[flag]
        if action in required or draw(st.booleans()):
            argv += [flag, draw(value(action))]
    return argv


def check(argv) -> int:
    """Run argv through cli.main, assert the invariant and return the
    exit code."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(bubble, "_MAX_NODE_PAIRS", PAIR_BUDGET),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), code
    if code in (1, 3):
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith(ERROR_PREFIXES)]
        assert len(errors) == 1, err.getvalue()
    if code == 0:
        header, *rows = [line.split(",")
                         for line in out.getvalue().splitlines()
                         if not line.startswith("#")]
        for row in rows:
            assert len(row) == len(header), row
            for name, cell in zip(header, row):
                if cell and name not in SIGNED | TEXT:
                    assert math.isfinite(float(cell)) and float(cell) >= 0.0, (
                        name, cell)
        if argv[0] == "spectrum":
            for name in GRID:
                column = [float(row[header.index(name)]) for row in rows]
                assert 0.0 < column[0] and all(
                    a < b for a, b in zip(column, column[1:])), name
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
# K R underflows to 0 on a graded problem: an IndexError before it was refused
@example(argv=["totals", "--n-in", "1e-160", "--n-out", "1e-150", "--model",
               "finite", "--k-obs-r", "1e-300"])
# K R underflows to 0 on the infinite model: 261 rows of x = omega = nu = 0
@example(argv=["spectrum", "--n-gas-in", "1", "--n-gas-out", "2",
               "--radius-nm", "1e-200", "--cutoff-nm", "1e200", "--model",
               "infinite"])
# omega_out = x c / (n_out R) overflows: numpy's overflow warning, then an
# error about an inf never given
@example(argv=["spectrum", "--n-gas-in", "1", "--n-gas-out", "1e-200",
               "--radius-nm", "1e-91", "--cutoff-nm", "6e-291"])
def test_cli_invariant(argv):
    check(argv)


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--examples", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(args)
    # as under pytest (pyproject.toml), a RuntimeWarning is a failure
    warnings.simplefilter("error", RuntimeWarning)
    exits = Counter()

    def count(argv):
        exits[argv[0], check(argv)] += 1

    sweep = seed(opts.seed)(settings(
        max_examples=opts.examples, deadline=None, database=None,
        suppress_health_check=list(HealthCheck))(given(argv=argvs())(count)))
    try:
        sweep()
    finally:
        print(f"seed {opts.seed}: {sum(exits.values())} argvs")
        for (command, code), n in sorted(exits.items()):
            print(f"  {command} exit {code}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
