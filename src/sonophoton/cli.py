"""Command-line interface: spectra, totals, inverse solves, benchmark table.

All commands emit deterministic CSV (RFC-4180-style rows, '#'-prefixed
metadata preamble, shortest round-trip float formatting) so repeated
runs are byte-identical.  Exit codes: 0 success, 1 usage/validation,
2 I/O, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

# bubble is executed, and numpy imported, on the first engine call
from . import __version__, bubble
from .core import (_MIN_REL_TOL, BubbleGeometry, DomainError,
                   FiniteSpectrumConfig, MediumTransition, NumericalError,
                   build_geometry_from_kr, check_grid_points, joule_to_ev,
                   nm_to_m)
from .homogeneous import (POLARIZATIONS, photons_from_count_formula,
                          spectrum_infinite, total_photons_closed_form,
                          totals_closed_form)
from .inverse import solve_n_in, sweep_figure1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

# Benchmark emission scenarios: (n_gas_in, n_gas_out) with reference
# photon counts and <E>/(hbar omega_max) ratios for the standard
# sonoluminescence geometry.
TABLE1_CASES = ((2e4, 1.0), (71.0, 25.0), (68.0, 34.0), (9.0, 25.0), (1.0, 12.0))
TABLE1_REF_COUNT = (1.06e6, 1.00e6, 1.06e6, 0.955e6, 0.98e6)
TABLE1_REF_RATIO = (0.803, 0.750, 0.751, 0.750, 0.765)
# table1's aligned text report of the CSV rows, N_rel_dev in percent
_TABLE1_HEAD = ("  n_in   n_out     N_finite    N_ref    dev%   "
                "<E>/hw_max   ref    dev     N_closed  fin/closed")
_TABLE1_ROW = ("  {:<7g} {:<7g} {:12.4e} {:9.3e} {:+6.1f}   {:8.3f} "
               "{:6.3f} {:+6.3f} {:12.4e} {:9.3f}")


class _Failure(Exception):
    """A usage (EXIT_USAGE) or I/O (EXIT_IO) failure and its exit code."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Failure(message, EXIT_USAGE)


class _QuietParser(_Parser):
    # argparse prints usage, help and the version through _print_message,
    # then ends -h and --version with exit
    def _print_message(self, message, file=None):
        pass

    def exit(self, status=0, message=None):
        raise _Failure(message or "", status)


@functools.cache
def _build_parser(quiet: bool = False) -> _Parser:
    """The one declaration of every parameter: name, type, default and
    allowed values.  Config-file entries are parsed by the same subparsers.

    Strict (the default), it is the CLI's parser.  Quiet, no option is
    required and the parser prints nothing: -h, --version and every error
    end its parse with _Failure.  main() reads --config with the quiet one,
    so that a required parameter may come from the file.

    Each is built on the first main() call that needs it, not at import,
    and reused for the rest of the process: the build costs ~20x a parse.
    """
    parser = (_QuietParser if quiet else _Parser)(
        prog="sonophoton",
        description="Photon emission from a sudden refractive-index change "
                    "inside a dielectric bubble")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    numerics = FiniteSpectrumConfig()

    def add_cutoff(p):
        p.add_argument("--n-liquid", type=float, default=1.3,
                       help="ambient liquid refractive index "
                            "(default %(default)s)")
        p.add_argument("--k-obs-r", type=float, default=15.0,
                       help="dimensionless k_observed * R "
                            "(default %(default)s)")

    def add_geometry(p):
        add_cutoff(p)
        p.add_argument("--radius-nm", type=float, default=500.0,
                       help="bubble radius in nm (default %(default)s)")
        p.add_argument("--cutoff-nm", type=float, default=None,
                       help="observed cutoff wavelength in the liquid, nm "
                            "(overrides --k-obs-r; default unset)")

    def add_numerics(p):
        p.add_argument("--grid-points", type=int,
                       default=numerics.grid_points,
                       help="frequency samples up to the cutoff "
                            "(default %(default)s)")
        p.add_argument("--tol", type=float, default=numerics.quad_rel_tol,
                       help="relative quadrature tolerance, at least "
                            f"{_MIN_REL_TOL:g} (default %(default)s)")
        p.add_argument("--grid-extend", type=float,
                       default=numerics.grid_extend,
                       help="grid extension factor past the cutoff "
                            "(default %(default)s)")

    def add_common(p):
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; flags override file values")
        p.add_argument("--output", type=str, default=None,
                       help="CSV output path (default: stdout)")

    for name, summary, n_in, n_out, model in (
            ("spectrum", "dN/domega_out curve", "--n-gas-in", "--n-gas-out",
             "both"),
            ("totals", "photon count and emitted energy", "--n-in", "--n-out",
             "infinite")):
        p = sub.add_parser(name, help=summary)
        p.add_argument(n_in, type=float, required=not quiet,
                       help="gas refractive index before the change")
        p.add_argument(n_out, type=float, required=not quiet,
                       help="gas refractive index after the change")
        p.add_argument("--model", choices=("infinite", "finite", "both"),
                       default=model,
                       help="emission model (default %(default)s)")
        add_geometry(p)
        add_numerics(p)
        add_common(p)

    p = sub.add_parser("solve-nin", help="both n_in branches for a target count")
    p.add_argument("--n-out", type=float, required=not quiet,
                   help="gas refractive index after the change")
    p.add_argument("--target", type=float, required=not quiet,
                   help="photon count to reach")
    add_cutoff(p)
    add_common(p)

    p = sub.add_parser("table1", help="benchmark table of five emission cases")
    add_geometry(p)
    add_numerics(p)
    add_common(p)

    p = sub.add_parser("sweep", help="two-branch n_in(n_out) curve")
    p.add_argument("--target", type=float, default=1e6,
                   help="photon count to reach (default %(default)s)")
    p.add_argument("--n-out-min", type=float, default=1.0,
                   help="first n_out (default %(default)s)")
    p.add_argument("--n-out-max", type=float, default=100.0,
                   help="last n_out (default %(default)s)")
    p.add_argument("--n-out-points", type=int, default=200,
                   help="n_out samples (default %(default)s)")
    add_cutoff(p)
    add_common(p)

    return parser


@functools.cache
def _plain_table() -> dict[str, tuple[dict, dict, frozenset]]:
    """Per command of _build_parser: its plain options (exact option
    string -> store action of one value), every dest's default as argparse
    sets it, and the required actions.  Built on the first main() call."""
    # argparse keeps a parser's actions, the subparsers included, in _actions
    commands = next(action.choices for action in _build_parser()._actions
                    if action.dest == "command")
    table = {}
    for name, sub in commands.items():
        options, defaults = {}, {}
        for action in sub._actions:
            if argparse.SUPPRESS in (action.dest, action.default):
                continue
            defaults.setdefault(action.dest, action.default)
            if type(action) is argparse._StoreAction and action.nargs is None:
                options.update(dict.fromkeys(action.option_strings, action))
        table[name] = (options, defaults,
                       frozenset(a for a in sub._actions if a.required))
    return table


def _parse_plain(argv: list[str]) -> dict | None:
    """vars(_build_parser().parse_args(argv)) without argparse, for argv of
    a command and pairs of an exact option string and a value that does not
    start with "-", converts with the option's type and is one of its
    choices, with every required option given; None for any other argv,
    whose parse (or error) is argparse's."""
    entry = _plain_table().get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    options, defaults, required = entry
    params = {"command": argv[0], **defaults}
    seen = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        action = options.get(flag)
        if action is None or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # the conversion errors argparse reports
        if action.choices is not None and value not in action.choices:
            return None
        params[action.dest] = value
        seen.add(action)
    return params if required <= seen else None


def _config_tokens(path: str) -> list[str]:
    """The key = value lines of a config file as --key=value flags, in
    file order, so the subparser checks them exactly like flags."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, equals, val = line.partition("=")
                key = key.strip().replace("_", "-")
                if not (equals and key):
                    raise DomainError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                # A key that abbreviates "config" would set --config, which
                # the command line's --config then overrides without notice.
                if "config".startswith(key):
                    raise DomainError(
                        f"{path}:{lineno}: key {key!r} is not allowed in a "
                        f"config file")
                tokens.append(f"--{key}={val.strip()}")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read config file {path}: {exc}",
                       EXIT_IO) from exc
    return tokens


def _geometry(params: dict) -> BubbleGeometry:
    radius = nm_to_m(params["radius_nm"])
    if params.get("cutoff_nm") is not None:
        return BubbleGeometry(radius, params["n_liquid"],
                              nm_to_m(params["cutoff_nm"]))
    return build_geometry_from_kr(params["k_obs_r"], params["n_liquid"],
                                  radius)


def _finite_config(params: dict) -> FiniteSpectrumConfig:
    return FiniteSpectrumConfig(params["tol"], params["grid_points"],
                                params["grid_extend"])


def _cell(value) -> str:
    """'' for None, else str (for a float, its shortest round-trip repr)."""
    return "" if value is None else str(value)


# Each command renders its own data lines: one f-string of its header's
# shape with a "{cell!s}" slot per column, "" for a column left blank, so a
# cell is its str (for a float the shortest round-trip repr, nearly all of
# the cost).  On CPython 3.11 that spares each row an inner comprehension's
# call and each cell a None test and a str call, 11-16 % of a row's time;
# str.format templates, per-row % and one flat comprehension saved <= 6 %.
# The preamble is rendered the same way, one f-string a parameter line
# giving _cell's text without the call; its fixed lines are formed here.
_VERSION_LINE = f"# sonophoton {__version__}"
_POLARIZATION_LINE = f"# polarization_factor = {POLARIZATIONS!s}"


def _write_csv(command: str, params: dict, header: str, lines: list[str],
               output: str | None, **extra) -> None:
    """Writes the '#' preamble (version, command, polarization factor,
    then params and extra by sorted key), the header and the data lines
    to output or stdout."""
    merged = {**params, **extra}
    text = "\n".join([_VERSION_LINE, f"# command = {command}",
                      _POLARIZATION_LINE,
                      *[f"# {key} = {'' if (v := merged[key]) is None else v!s}"
                        for key in sorted(merged)],
                      header, *lines]) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(f"cannot write {output}: {exc}", EXIT_IO) from exc


def cmd_spectrum(params: dict, output: str | None) -> int:
    n_in, n_out = params["n_gas_in"], params["n_gas_out"]
    transition = MediumTransition(n_in=n_in, n_out=n_out)
    geometry = _geometry(params)
    cutoff_x = geometry.k_gas_cutoff(n_out) * geometry.radius
    fconfig = _finite_config(params)
    model = params["model"]
    if model == "infinite":
        omega, x = bubble.spectral_grid(transition, geometry, fconfig)
    else:
        dens = bubble.spectrum_finite(transition, geometry, fconfig)
        omega, x = dens.grid, dens.dimensionless_x
    # the model not run leaves its column blank
    blank = [""] * x.size
    infinite = (blank if model == "finite" else
                spectrum_infinite(transition, geometry, omega).tolist())
    finite = blank if model == "infinite" else dens.values.tolist()
    lines = [f"{a!s},{w!s},{nu!s},{inf!s},{fin!s}"
             for a, w, nu, inf, fin in zip(
                 x.tolist(), omega.tolist(),
                 (omega / (2.0 * math.pi)).tolist(), infinite, finite)]
    _write_csv("spectrum", params,
               "x,omega_out_rad_s,nu_Hz,dNdomega_infinite,dNdomega_finite",
               lines, output,
               k_gas_cutoff_x=cutoff_x)
    return EXIT_OK


def cmd_totals(params: dict, output: str | None) -> int:
    transition = MediumTransition(n_in=params["n_in"], n_out=params["n_out"])
    geometry = _geometry(params)
    model = params["model"]
    rows = []
    if model in ("infinite", "both"):
        rows.append(("infinite", totals_closed_form(transition, geometry)))
    if model in ("finite", "both"):
        rows.append(("finite", bubble.totals_finite(transition, geometry,
                                                    _finite_config(params))))
    _write_csv("totals", params,
               "model,photon_count,total_energy_J,mean_energy_J,"
               "mean_energy_eV,mean_over_cutoff",
               [f"{name!s},{s.photon_count!s},{s.total_energy!s},"
                f"{s.mean_energy!s},{joule_to_ev(s.mean_energy)!s},"
                f"{s.mean_over_cutoff!s}" for name, s in rows],
               output)
    return EXIT_OK


def cmd_solve_nin(params: dict, output: str | None) -> int:
    n_out, target = params["n_out"], params["target"]
    pair = solve_n_in(n_out, target, params["n_liquid"], params["k_obs_r"])
    lines = []
    for name, root in (("low", pair.n_in_low), ("high", pair.n_in_high)):
        back = photons_from_count_formula(root, n_out, params["n_liquid"],
                                          params["k_obs_r"])
        lines.append(
            f"{name!s},{root!s},{back!s},{abs(back - target) / target!s}")
    _write_csv("solve-nin", params,
               "branch,n_in,back_substituted_count,relative_residual", lines,
               output)
    return EXIT_OK


def cmd_table1(params: dict, output: str | None) -> int:
    fconfig = _finite_config(params)
    geometry = _geometry(params)
    rows = []
    for (n_in, n_out), ref_n, ref_ratio in zip(
            TABLE1_CASES, TABLE1_REF_COUNT, TABLE1_REF_RATIO):
        transition = MediumTransition(n_in=n_in, n_out=n_out)
        closed = total_photons_closed_form(transition, geometry)
        try:
            summary = bubble.totals_finite(transition, geometry, fconfig)
        except NumericalError as exc:
            rows.append((n_in, n_out, None, ref_n, None, None, ref_ratio,
                         None, closed, None, f"failed: {exc}"))
            continue
        n_fin, ratio = summary.photon_count, summary.mean_over_cutoff
        rows.append((n_in, n_out, n_fin, ref_n, n_fin / ref_n - 1.0, ratio,
                     ref_ratio, ratio - ref_ratio, closed, n_fin / closed,
                     "ok"))
    # a failed case's missing values are blank cells
    _write_csv("table1", params,
               "n_gas_in,n_gas_out,N_finite,N_reference,N_rel_dev,"
               "ratio_finite,ratio_reference,ratio_dev,N_closed_form,"
               "finite_over_closed,status",
               [",".join([_cell(cell) for cell in row]) for row in rows],
               output)
    report = [_TABLE1_HEAD] + [
        _TABLE1_ROW.format(*row[:4], 100 * row[4], *row[5:10])
        if row[-1] == "ok" else
        f"  {row[0]:<7g} {row[1]:<7g} {row[-1].replace('failed', 'FAILED', 1)}"
        for row in rows]
    # beside the CSV: on stdout when the CSV goes to a file
    print(*report, sep="\n", file=sys.stderr if output is None else sys.stdout)
    return EXIT_OK if all(row[-1] == "ok" for row in rows) else EXIT_NUMERICAL


def cmd_sweep(params: dict, output: str | None) -> int:
    lo, hi, npts = params["n_out_min"], params["n_out_max"], params["n_out_points"]
    if npts < 2 or not (0.0 < lo < hi):
        raise DomainError("need 0 < n-out-min < n-out-max and n-out-points >= 2")
    check_grid_points(npts, "n-out-points")
    import numpy as np

    # each n_out is lo + (hi - lo) * i / (npts - 1) evaluated in that
    # order, as in Python floats; an infinite n-out-max gives NaN and inf,
    # which sweep_figure1 refuses
    with np.errstate(all="ignore"):
        grid = lo + (hi - lo) * np.arange(npts) / (npts - 1)
    rows = sweep_figure1(params["target"], params["n_liquid"],
                         params["k_obs_r"], grid)
    _write_csv("sweep", params, "n_out,n_in_low,n_in_high",
               [f"{n!s},{low!s},{high!s}" for n, low, high in rows], output)
    return EXIT_OK


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "totals": cmd_totals,
    "solve-nin": cmd_solve_nin,
    "table1": cmd_table1,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        # A plain argv can name --config only by its exact string.
        params = _parse_plain(argv)
        if params is None or params["config"] is not None:
            # argparse says which token is --config; an argv it refuses is
            # left for the strict parse to report, before any file is read.
            # Unknown arguments are the strict parse's to report too, once
            # the file has supplied any required option.
            quiet = _build_parser(quiet=True)
            try:
                path = vars(quiet.parse_known_args(argv)[0]).get("config")
            except _Failure:
                path = None
            if path is not None:
                # File values go before the flags, so the flags win.
                argv = argv[:1] + _config_tokens(path) + argv[1:]
            params = vars(parser.parse_args(argv))
        command = params.pop("command")
        if command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        del params["config"]
        output = params.pop("output")
        return _HANDLERS[command](params, output)
    except _Failure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        # Python's float ** and / raise where a result over- or underflows
        sys.stderr.write(f"numerical error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
