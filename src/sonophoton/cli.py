"""Command-line interface: spectra, totals, inverse solves, benchmark table.

All commands emit deterministic CSV (RFC-4180-style rows, '#'-prefixed
metadata preamble, shortest round-trip float formatting) so repeated
runs are byte-identical.  Exit codes: 0 success, 1 usage/validation,
2 I/O, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .bubble import FiniteSpectrumConfig, spectral_grid, spectrum_finite, totals_finite
from .core import (BubbleGeometry, DomainError, MediumTransition,
                   NumericalError, build_geometry_from_kr, fs_to_s,
                   joule_to_ev, nm_to_m)
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


# CLI key -> FiniteSpectrumConfig field; the field defaults are the CLI's.
_NUMERICS_FIELDS = {"grid_points": "grid_points", "tol": "quad_rel_tol",
                    "lmax": "l_max", "grid_extend": "grid_extend"}


def _build_parser() -> _Parser:
    """The one declaration of every parameter: name, type, default and
    allowed values.  Config-file entries are parsed by the same subparsers."""
    parser = _Parser(prog="sonophoton",
                     description="Photon emission from a sudden refractive-"
                                 "index change inside a dielectric bubble")
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
                       help="relative quadrature tolerance "
                            "(default %(default)s)")
        p.add_argument("--lmax", type=int, default=numerics.l_max,
                       help="explicit angular-momentum cutoff (default auto)")
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
        p.add_argument(n_in, type=float, required=True,
                       help="gas refractive index before the change")
        p.add_argument(n_out, type=float, required=True,
                       help="gas refractive index after the change")
        p.add_argument("--model", choices=("infinite", "finite", "both"),
                       default=model,
                       help="emission model (default %(default)s)")
        p.add_argument("--t0-fs", type=float, default=1.0,
                       help="transition timescale in fs (metadata; the "
                            "sudden-limit results do not depend on it; "
                            "default %(default)s)")
        add_geometry(p)
        add_numerics(p)
        add_common(p)

    p = sub.add_parser("solve-nin", help="both n_in branches for a target count")
    p.add_argument("--n-out", type=float, required=True,
                   help="gas refractive index after the change")
    p.add_argument("--target", type=float, required=True,
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
                if "=" not in line:
                    raise DomainError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("_", "-")
                # A key that abbreviates "config" would set --config, which
                # the command line's --config then overrides without notice.
                if "config".startswith(key):
                    raise DomainError(
                        f"{path}:{lineno}: key {key!r} is not allowed in a "
                        f"config file")
                tokens.append(f"--{key}={val.strip()}")
    except OSError as exc:
        raise _Failure(f"cannot read config file {path}: {exc}",
                       EXIT_IO) from exc
    return tokens


def _config_path(args: list[str]) -> str | None:
    """--config from the command line, read before the full parse so that
    a required parameter may come from the file."""
    # argparse reads --config only from an argument that starts with "--c"
    # (--config, a unique prefix of it, or --config=PATH).
    if not any(arg.startswith("--c") for arg in args):
        return None
    pre = _Parser(prog="sonophoton", add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(args)[0].config


def _geometry(params: dict, n_out: float):
    radius = nm_to_m(params["radius_nm"])
    if params.get("cutoff_nm") is not None:
        return BubbleGeometry(radius, params["n_liquid"],
                              nm_to_m(params["cutoff_nm"]), n_out)
    return build_geometry_from_kr(params["k_obs_r"], params["n_liquid"],
                                  n_out, radius)


def _finite_config(params: dict) -> FiniteSpectrumConfig:
    return FiniteSpectrumConfig(**{field: params[key]
                                   for key, field in _NUMERICS_FIELDS.items()})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _preamble(command: str, params: dict,
              extra: dict | None = None) -> list[str]:
    lines = [f"# sonophoton {__version__}",
             f"# command = {command}",
             f"# polarization_factor = {_fmt(POLARIZATIONS)}"]
    merged = {**params, **(extra or {})}
    for key in sorted(merged):
        lines.append(f"# {key} = {_fmt(merged[key])}")
    return lines


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
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
    transition = MediumTransition(n_in=n_in, n_out=n_out,
                                  t0=fs_to_s(params["t0_fs"]))
    geometry = _geometry(params, n_out)
    fconfig = _finite_config(params)
    model = params["model"]

    if model == "infinite":
        omega_grid, x_grid = spectral_grid(geometry, fconfig)
        finite_vals = [None] * len(omega_grid)
    else:
        dens = spectrum_finite(transition, params["n_liquid"], geometry, fconfig)
        omega_grid, x_grid, finite_vals = (dens.grid, dens.dimensionless_x,
                                           dens.values)
    if model == "finite":
        infinite_vals = [None] * len(omega_grid)
    else:
        infinite_vals = [spectrum_infinite(transition, geometry, w)
                         for w in omega_grid]

    lines = _preamble("spectrum", params, {
        "k_gas_cutoff_x": geometry.k_gas_cutoff * geometry.radius})
    lines.append("x,omega_out_rad_s,nu_Hz,dNdomega_infinite,dNdomega_finite")
    for i, omega in enumerate(omega_grid):
        lines.append(",".join([
            _fmt(x_grid[i]), _fmt(omega), _fmt(omega / (2.0 * math.pi)),
            _fmt(infinite_vals[i]), _fmt(finite_vals[i])]))
    _emit(lines, output)
    return EXIT_OK


def cmd_totals(params: dict, output: str | None) -> int:
    transition = MediumTransition(n_in=params["n_in"], n_out=params["n_out"],
                                  t0=fs_to_s(params["t0_fs"]))
    geometry = _geometry(params, params["n_out"])
    model = params["model"]
    rows = []
    if model in ("infinite", "both"):
        rows.append(("infinite", totals_closed_form(transition, geometry)))
    if model in ("finite", "both"):
        rows.append(("finite", totals_finite(transition, params["n_liquid"],
                                             geometry, _finite_config(params))))
    lines = _preamble("totals", params)
    lines.append("model,photon_count,total_energy_J,mean_energy_J,"
                 "mean_energy_eV,mean_over_cutoff")
    for name, summary in rows:
        lines.append(",".join([
            name, _fmt(summary.photon_count), _fmt(summary.total_energy),
            _fmt(summary.mean_energy), _fmt(joule_to_ev(summary.mean_energy)),
            _fmt(summary.mean_over_cutoff)]))
    _emit(lines, output)
    return EXIT_OK


def cmd_solve_nin(params: dict, output: str | None) -> int:
    pair = solve_n_in(params["n_out"], params["target"], params["n_liquid"],
                      params["k_obs_r"])
    lines = _preamble("solve-nin", params)
    lines.append("branch,n_in,back_substituted_count,relative_residual")
    for name, root in (("low", pair.n_in_low), ("high", pair.n_in_high)):
        back = photons_from_count_formula(root, params["n_out"],
                                          params["n_liquid"], params["k_obs_r"])
        resid = abs(back - params["target"]) / params["target"]
        lines.append(",".join([name, _fmt(root), _fmt(back), _fmt(resid)]))
    _emit(lines, output)
    return EXIT_OK


def cmd_table1(params: dict, output: str | None) -> int:
    fconfig = _finite_config(params)
    lines = _preamble("table1", params)
    lines.append("n_gas_in,n_gas_out,N_finite,N_reference,N_rel_dev,"
                 "ratio_finite,ratio_reference,ratio_dev,N_closed_form,"
                 "finite_over_closed,status")
    failures = 0
    report = ["  n_in   n_out     N_finite    N_ref    dev%   "
              "<E>/hw_max   ref    dev     N_closed  fin/closed"]
    for idx, (n_in, n_out) in enumerate(TABLE1_CASES):
        transition = MediumTransition(n_in=n_in, n_out=n_out)
        geometry = _geometry(params, n_out)
        closed = total_photons_closed_form(transition, geometry)
        try:
            summary = totals_finite(transition, params["n_liquid"], geometry,
                                    fconfig)
        except NumericalError as exc:
            failures += 1
            lines.append(",".join([_fmt(n_in), _fmt(n_out), "",
                                   _fmt(TABLE1_REF_COUNT[idx]), "", "",
                                   _fmt(TABLE1_REF_RATIO[idx]), "",
                                   _fmt(closed), "", f"failed: {exc}"]))
            report.append(f"  {n_in:<7g} {n_out:<7g} FAILED: {exc}")
            continue
        n_fin = summary.photon_count
        ratio = summary.mean_over_cutoff
        dev_n = n_fin / TABLE1_REF_COUNT[idx] - 1.0
        dev_r = ratio - TABLE1_REF_RATIO[idx]
        lines.append(",".join([
            _fmt(n_in), _fmt(n_out), _fmt(n_fin), _fmt(TABLE1_REF_COUNT[idx]),
            _fmt(dev_n), _fmt(ratio), _fmt(TABLE1_REF_RATIO[idx]), _fmt(dev_r),
            _fmt(closed), _fmt(n_fin / closed), "ok"]))
        report.append(
            f"  {n_in:<7g} {n_out:<7g} {n_fin:12.4e} {TABLE1_REF_COUNT[idx]:9.3e}"
            f" {100 * dev_n:+6.1f}   {ratio:8.3f} {TABLE1_REF_RATIO[idx]:6.3f}"
            f" {dev_r:+6.3f} {closed:12.4e} {n_fin / closed:9.3f}")
    if output is not None:
        _emit(lines, output)
        sys.stdout.write("\n".join(report) + "\n")
    else:
        _emit(lines, None)
        sys.stderr.write("\n".join(report) + "\n")
    return EXIT_NUMERICAL if failures else EXIT_OK


def cmd_sweep(params: dict, output: str | None) -> int:
    lo, hi, npts = params["n_out_min"], params["n_out_max"], params["n_out_points"]
    if npts < 2 or not (0.0 < lo < hi):
        raise DomainError("need 0 < n-out-min < n-out-max and n-out-points >= 2")
    grid = [lo + (hi - lo) * i / (npts - 1) for i in range(npts)]
    rows = sweep_figure1(params["target"], params["n_liquid"],
                         params["k_obs_r"], grid)
    lines = _preamble("sweep", params)
    lines.append("n_out,n_in_low,n_in_high")
    for n_out, low, high in rows:
        lines.append(",".join([_fmt(n_out), _fmt(low), _fmt(high)]))
    _emit(lines, output)
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
        # File values go before the flags, so the flags win.
        path = _config_path(argv[1:])
        if path:
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


if __name__ == "__main__":
    sys.exit(main())
