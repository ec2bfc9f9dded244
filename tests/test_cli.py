import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sonophoton
from sonophoton import bubble, cli, specfun
from sonophoton.cli import main
from sonophoton.core import nm_to_m

from oracles import rel_err

FAST_SPECTRUM = ["spectrum", "--n-gas-in", "3", "--n-gas-out", "1.5",
                 "--k-obs-r", "5", "--grid-points", "30", "--model", "both"]
HEADLINE_SPECTRUM = ["spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                     "--n-liquid", "1.3", "--radius-nm", "500",
                     "--cutoff-nm", "200", "--model", "both"]
SRC = str(Path(sonophoton.__file__).resolve().parents[1])
GOLDEN_CLOSED_FORM = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
                      / "closed-form.json")
CHILD = "import sys; from sonophoton.cli import main; sys.exit(main(sys.argv[1:]))"


def random_spectrum(seed):
    """A small finite-volume spectrum request with seeded random indices,
    K R and grid."""
    rng = np.random.default_rng(seed)
    n_in, n_out = (10.0 ** rng.uniform(0.0, 1.5, size=2)).tolist()
    return ["spectrum", "--n-gas-in", repr(n_in), "--n-gas-out", repr(n_out),
            "--k-obs-r", repr(rng.uniform(1.0, 30.0)),
            "--grid-points", str(rng.integers(8, 41)), "--model", "both"]


def run_child(args, **env):
    """Exit code, stdout and stderr bytes of one request in a new process,
    with env added to this process's environment."""
    env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80", **env}
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_csv(text):
    preamble, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            preamble.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return preamble, header, rows


class TestSpectrumCommand:
    def test_schema_and_metadata(self, tmp_path):
        code, text = run(FAST_SPECTRUM, tmp_path)
        assert code == 0
        preamble, header, rows = parse_csv(text)
        assert header == ["x", "omega_out_rad_s", "nu_Hz",
                          "dNdomega_infinite", "dNdomega_finite"]
        assert any("polarization_factor = 2.0" in line for line in preamble)
        assert any("k_obs_r = 5" in line for line in preamble)
        assert len(rows) > 30

    def test_determinism(self, tmp_path):
        _, first = run(FAST_SPECTRUM, tmp_path, "a.csv")
        _, second = run(FAST_SPECTRUM, tmp_path, "b.csv")
        assert first == second

    @pytest.mark.parametrize("args", [
        FAST_SPECTRUM, HEADLINE_SPECTRUM,
        *(random_spectrum(seed) for seed in range(3)),
        # K R 11 538: 36 760 nodes a pass, in tiles
        ["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5", "--k-obs-r",
         "1e4", "--model", "finite", "--grid-points", "8"],
    ], ids=["fast", "headline", "random-0", "random-1", "random-2", "tiles"])
    def test_identical_across_blas_threads(self, tmp_path, args):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            code, _, err = run_child(args + ["--output", str(out)],
                                     OPENBLAS_NUM_THREADS=threads)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_x_nu_relation(self, tmp_path):
        args = ["spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                "--n-liquid", "1.3", "--radius-nm", "500", "--cutoff-nm",
                "200", "--model", "infinite", "--grid-points", "25"]
        code, text = run(args, tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        # x = 2 pi nu n_out R / c: for n_out = 1, R = 500 nm the ratio
        # x / nu is 1.05e-14 s
        for row in rows[::5]:
            x, nu = float(row[0]), float(row[2])
            assert rel_err(x / nu, 2.0 * math.pi * 500e-9 / 2.99792458e8) < 1e-12
        # infinite model: finite column left empty
        assert all(row[4] == "" for row in rows)

    def test_infinite_hard_cut_and_quadratic(self, tmp_path):
        args = ["spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                "--n-liquid", "1.3", "--radius-nm", "500", "--cutoff-nm",
                "200", "--model", "infinite", "--grid-points", "40"]
        _, text = run(args, tmp_path)
        _, _, rows = parse_csv(text)
        kr = (2.0 * math.pi / 200e-9) / 1.3 * 500e-9
        below = [(float(r[0]), float(r[3])) for r in rows
                 if float(r[0]) <= kr * (1 + 1e-12)]
        above = [float(r[3]) for r in rows if float(r[0]) > kr * (1 + 1e-12)]
        assert all(v == 0.0 for v in above)
        x0, y0 = below[9]
        x1, y1 = below[19]
        assert rel_err(y1 / y0, (x1 / x0) ** 2) < 1e-12

    def test_grid_columns_identical_across_models(self, tmp_path):
        # each model writes x, omega and nu from its own arrays
        base = FAST_SPECTRUM[:-1]
        columns = []
        for model in ("infinite", "finite", "both"):
            code, text = run(base + [model], tmp_path, f"{model}.csv")
            assert code == 0
            columns.append([row[:3] for row in parse_csv(text)[2]])
        assert columns[0] == columns[1] == columns[2]

    @pytest.mark.parametrize("model", ["both", "finite", "infinite"])
    def test_rows_are_the_cells_str(self, model, tmp_path):
        # each model's row template: a cell per column, its str, and the
        # model not run left as an empty field
        code, text = run(HEADLINE_SPECTRUM[:-1] + [model], tmp_path)
        assert code == 0
        transition = sonophoton.MediumTransition(n_in=2e4, n_out=1.0)
        geometry = sonophoton.BubbleGeometry(nm_to_m(500.0), 1.3,
                                             nm_to_m(200.0))
        dens = sonophoton.spectrum_finite(transition, geometry)
        omega = dens.grid
        infinite = sonophoton.spectrum_infinite(transition, geometry,
                                                omega).tolist()
        finite = dens.values.tolist()
        blank = [None] * omega.size
        rows = zip(dens.dimensionless_x.tolist(), omega.tolist(),
                   (omega / (2.0 * math.pi)).tolist(),
                   blank if model == "finite" else infinite,
                   blank if model == "infinite" else finite)
        data = [line for line in text.splitlines() if not line.startswith("#")]
        assert data[1:] == [",".join("" if c is None else str(c) for c in row)
                            for row in rows]
        assert len(data) == 262

    def test_no_change_zero_spectrum(self, tmp_path):
        args = ["spectrum", "--n-gas-in", "5", "--n-gas-out", "5",
                "--k-obs-r", "5", "--grid-points", "12", "--model", "both"]
        code, text = run(args, tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)


class TestTable1Command:
    def test_failed_case_row_is_blank(self, tmp_path, monkeypatch):
        # a case whose finite-volume run fails keeps its row, with the
        # values it lacks blank, and the other four rows are written
        totals = bubble.totals_finite

        def fail_68(transition, geometry, config):
            if transition.n_in == 68.0:
                raise sonophoton.NumericalError("no convergence")
            return totals(transition, geometry, config)

        monkeypatch.setattr(bubble, "totals_finite", fail_68)
        code, text = run(["table1", "--k-obs-r", "3", "--grid-points", "12"],
                         tmp_path)
        assert code == 3
        _, header, rows = parse_csv(text)
        assert len(header) == 11
        assert [row[:2] for row in rows] == [
            [repr(n_in), repr(n_out)] for n_in, n_out in cli.TABLE1_CASES]
        assert [row[-1] for row in rows] == [
            "ok", "ok", "failed: no convergence", "ok", "ok"]
        failed = rows[2]
        assert [i for i, cell in enumerate(failed) if cell == ""] == [
            2, 4, 5, 7, 9]
        assert failed[3] == "1060000.0" and failed[6] == "0.751"
        assert float(failed[8]) > 0.0
        assert all("" not in row for i, row in enumerate(rows) if i != 2)


class TestTotalsCommand:
    def test_infinite_reference(self, tmp_path):
        code, text = run(["totals", "--n-in", "1", "--n-out", "12",
                          "--model", "infinite"], tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        record = dict(zip(header, rows[0]))
        assert record["model"] == "infinite"
        assert rel_err(float(record["photon_count"]), 946671.2773440547) < 1e-12
        assert rel_err(float(record["mean_over_cutoff"]), 0.75) < 1e-12

    def test_finite_model_runs(self, tmp_path):
        code, text = run(["totals", "--n-in", "2", "--n-out", "1.5",
                          "--model", "both", "--k-obs-r", "5",
                          "--grid-points", "40"], tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        assert [r[0] for r in rows] == ["infinite", "finite"]
        n_inf = float(rows[0][1])
        n_fin = float(rows[1][1])
        assert 0.5 < n_fin / n_inf < 1.1


class TestSolveNinCommand:
    def test_reference_branches(self, tmp_path):
        code, text = run(["solve-nin", "--n-out", "25", "--target", "1e6"],
                         tmp_path)
        assert code == 0
        _, header, rows = parse_csv(text)
        low = dict(zip(header, rows[0]))
        high = dict(zip(header, rows[1]))
        assert rel_err(float(low["n_in"]), 8.853239009650653) < 1e-12
        assert rel_err(float(high["n_in"]), 70.59563164607959) < 1e-12
        assert float(low["relative_residual"]) < 1e-8
        assert float(high["relative_residual"]) < 1e-8


class TestSweepCommand:
    def test_vieta_rows(self, tmp_path):
        code, text = run(["sweep", "--target", "1e6", "--n-out-min", "1",
                          "--n-out-max", "100", "--n-out-points", "12"],
                         tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 12
        for row in rows:
            n_out, low, high = map(float, row)
            assert rel_err(low * high, n_out**2) < 1e-10

    @pytest.mark.parametrize("n_out_max", ["inf", "1e308"])
    def test_non_finite_grid_is_usage(self, n_out_max):
        # (hi - lo) * i overflows or is inf * 0: NaN and inf reach the
        # grid without a RuntimeWarning, and sweep_figure1 refuses them
        assert main(["sweep", "--n-out-max", n_out_max]) == 1

    @pytest.mark.parametrize("args", [
        ["--n-out-min", "5", "--n-out-max", "2"],
        ["--n-out-points", "1"],
    ], ids=["descending", "one-point"])
    def test_bad_grid_is_usage(self, args, capsys):
        assert main(["sweep", *args]) == 1
        assert "need 0 < n-out-min < n-out-max" in capsys.readouterr().err

    def test_default_grid_rows_are_pointwise_solves(self, tmp_path):
        code, text = run(["sweep"], tmp_path)
        assert code == 0
        want = []
        for i in range(200):
            n_out = 1.0 + (100.0 - 1.0) * i / 199
            pair = sonophoton.solve_n_in(n_out, 1e6, 1.3, 15.0)
            want.append(f"{n_out!r},{pair.n_in_low!r},{pair.n_in_high!r}")
        data = [line for line in text.split("\n") if not line.startswith("#")]
        assert data == ["n_out,n_in_low,n_in_high", *want, ""]


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_out = 12\ntarget = 1e6\nk-obs-r = 15  # comment\n")
        out = tmp_path / "out.csv"
        code = main(["solve-nin", "--config", str(cfg), "--target", "2e6",
                     "--output", str(out)])
        assert code == 0
        preamble, header, rows = parse_csv(out.read_text())
        # flag overrides file; file supplies n_out
        assert any("target = 2000000.0" in line for line in preamble)
        assert any("n_out = 12" in line for line in preamble)

    SOLVE = ["solve-nin", "--n-out", "12", "--target", "1e6"]

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n# a comment\n   \nn_out = 12\n  # indented\n"
                       "target = 1e6\n")
        code, text = run(["solve-nin", "--config", str(cfg)], tmp_path)
        assert code == 0
        preamble, _, _ = parse_csv(text)
        assert "# n_out = 12.0" in preamble

    def test_line_without_equals_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_out = 12\ntarget 1e6\n")
        assert main(["solve-nin", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err

    def test_empty_key_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_out = 12\n = 5\n")
        assert main(["solve-nin", "--config", str(cfg), "--target", "1e6"]) == 1
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err

    def test_undecodable_file_is_io_error(self, tmp_path, capsys):
        # a file that is not UTF-8 cannot be read, as a missing one
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"n_out = 12\n\xff = 3\n")
        assert main(["solve-nin", "--config", str(cfg), "--target", "1e6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, entry", [
        (SOLVE, "bogus = 1"),
        (["totals", "--n-in", "2", "--n-out", "12"], "model = bogus"),
        (SOLVE, "config = other.cfg"),
        (SOLVE, "n_liquid = abc"),
        # the angular sum is exact, so there is no l cutoff to set
        (["totals", "--n-in", "2", "--n-out", "12"], "lmax = 40"),
    ], ids=["unknown-key", "bad-choice", "config-key", "non-numeric",
            "removed-lmax"])
    def test_invalid_entry_rejected(self, tmp_path, argv, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]
                    + ["--output", str(tmp_path / "out.csv")]) == 1

    def test_preamble_keys(self, tmp_path):
        # The preamble names every parameter; file keys are the same names.
        shared = ["cutoff_nm", "grid_extend", "grid_points", "k_obs_r",
                  "n_liquid", "radius_nm", "tol"]
        cases = {
            "spectrum": (["--n-gas-in", "3", "--n-gas-out", "1.5",
                          "--model", "infinite"],
                         shared + ["k_gas_cutoff_x", "model", "n_gas_in",
                                     "n_gas_out"]),
            "totals": (["--n-in", "3", "--n-out", "1.5"],
                       shared + ["model", "n_in", "n_out"]),
            "solve-nin": (["--n-out", "25", "--target", "1e6"],
                          ["k_obs_r", "n_liquid", "n_out", "target"]),
            # values that only shrink the run; the key set is the default's
            "table1": (["--k-obs-r", "0.5", "--grid-points", "2"], shared),
            "sweep": ([], ["k_obs_r", "n_liquid", "n_out_max", "n_out_min",
                           "n_out_points", "target"]),
        }
        for command, (args, keys) in cases.items():
            code, text = run([command] + args, tmp_path)
            assert code == 0, command
            preamble, _, _ = parse_csv(text)
            found = [line[2:].split(" = ")[0] for line in preamble
                     if " = " in line]
            assert found[:2] == ["command", "polarization_factor"]
            assert found[2:] == sorted(keys), command

    def test_config_beside_cutoff_pre_parsed_once(self, tmp_path):
        # --cutoff-nm starts with "--c", as --config does; the file is
        # still read, and the parsers of the first request serve the second
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 20\n")
        misses = []
        for name in ("a.csv", "b.csv"):
            code, text = run(["spectrum", "--config", str(cfg),
                              "--n-gas-in", "3", "--n-gas-out", "1.5",
                              "--cutoff-nm", "2000", "--model", "infinite"],
                             tmp_path, name)
            assert code == 0
            preamble, _, _ = parse_csv(text)
            assert "# grid_points = 20" in preamble
            assert "# cutoff_nm = 2000.0" in preamble
            misses.append(cli._build_parser.cache_info().misses)
        assert misses[0] == misses[1]

    @pytest.mark.parametrize("cutoff", [["--cutoff-nm", "200"],
                                        ["--cutoff=200"]],
                             ids=["exact", "abbreviated"])
    def test_request_without_config_skips_the_pre_parse(self, cutoff,
                                                        tmp_path,
                                                        monkeypatch):
        # --cutoff-nm starts with "--c" but can never be --config
        def no_file(path):
            raise AssertionError(f"config file {path!r} read")

        monkeypatch.setattr(cli, "_config_tokens", no_file)
        code, text = run(["spectrum", "--n-gas-in", "2e4", "--n-gas-out", "1",
                          *cutoff, "--model", "infinite"], tmp_path)
        assert code == 0
        assert "# cutoff_nm = 200.0" in text.splitlines()

    def test_last_config_wins(self, tmp_path):
        # as for any option given twice; only the last file is read
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("n_out = 12\ntarget = 1e6\n")
        last.write_text("n_out = 25\ntarget = 1e6\n")
        for earlier in (first, tmp_path / "nope.cfg"):
            code, text = run(["solve-nin", "--config", str(earlier),
                              "--config", str(last)], tmp_path)
            assert code == 0
            preamble, _, _ = parse_csv(text)
            assert "# n_out = 25.0" in preamble

    @pytest.mark.parametrize("extra", [["--frequency", "3"], ["--", "x"],
                                       ["--version"]],
                             ids=["unknown-flag", "after-dashes", "version"])
    def test_unknown_argument_beside_config_is_usage(self, extra, tmp_path,
                                                     capsys):
        # the file is read, so argparse reports the unknown argument, not
        # the --target the file supplies
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = 1e6\n")
        argv = ["solve-nin", "--config", str(cfg), "--n-out", "12", *extra]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "error: unrecognized arguments: " + " ".join(extra)

    def test_required_split_between_file_and_flag(self, tmp_path):
        # "--n-out=12" is not plain, so argparse reads the --config path
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = 1e6\n")
        code, text = run(["solve-nin", "--n-out=12", "--config", str(cfg)],
                         tmp_path)
        assert code == 0
        preamble, _, _ = parse_csv(text)
        assert "# n_out = 12.0" in preamble
        assert "# target = 1000000.0" in preamble

    @pytest.mark.parametrize("flag", [["--c", "{}"], ["--conf", "{}"],
                                      ["--config={}"]],
                             ids=["c", "conf", "config="])
    def test_config_prefixes_read_the_file(self, flag, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_out = 12\ntarget = 1e6\n")
        code, text = run(["solve-nin"] + [t.format(cfg) for t in flag],
                         tmp_path)
        assert code == 0
        preamble, _, _ = parse_csv(text)
        assert "# n_out = 12.0" in preamble

    @pytest.mark.parametrize("flag", [["--c", "{}"], ["--c={}"]],
                             ids=["c", "c="])
    def test_ambiguous_config_prefix_is_usage(self, flag, tmp_path, capsys):
        # on spectrum "--c" also starts --cutoff-nm: argparse's ambiguity
        # error (exit 1), whether or not the file exists, and no file read
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 20\n")
        spectrum = ["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5"]
        for path in (cfg, "200"):
            code = main(spectrum + [t.format(path) for t in flag])
            err = capsys.readouterr().err.splitlines()[-1]
            assert code == 1
            assert err.startswith("error: ambiguous option: --c")
            assert err.endswith(" could match --cutoff-nm, --config")
        # a longer prefix names --config alone and reads the file
        code, text = run(spectrum + ["--con", str(cfg), "--model",
                                     "infinite"], tmp_path)
        assert code == 0
        assert "# grid_points = 20" in parse_csv(text)[0]

    def test_empty_prefix_with_value_is_usage(self, tmp_path, capsys):
        # "--" in "--=PATH" prefixes every option: argparse's ambiguity
        # error (exit 1), before the missing file could be read (exit 2)
        assert main(["solve-nin", "--=" + str(tmp_path / "nope.cfg")]) == 1
        assert "error: ambiguous option: --=" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["solve-nin", "--config", str(tmp_path / "nope.cfg"),
                     "--n-out", "12", "--target", "1e6"]) == 2

    @pytest.mark.parametrize("flag", [["--config="], ["--config", ""]],
                             ids=["config=", "config-empty"])
    def test_empty_config_path_is_io_error(self, flag, capsys):
        # an empty path names no file that can be read, as a missing one
        assert main(self.SOLVE + flag) == 2
        assert "error: cannot read config file" in capsys.readouterr().err

    def test_config_without_value_is_commands_usage(self, capsys,
                                                    monkeypatch):
        # the same usage and error as any other option with no value
        monkeypatch.setenv("COLUMNS", "80")
        errs = {}
        for flag in ("--config", "--output"):
            assert main(self.SOLVE + [flag]) == 1
            *errs[flag], last = capsys.readouterr().err.splitlines()
            assert last == f"error: argument {flag}: expected one argument"
        assert errs["--config"][0].startswith("usage: sonophoton solve-nin ")
        assert errs["--config"] == errs["--output"]


class TestExitCodes:
    def test_missing_required_is_usage(self):
        assert main(["solve-nin", "--n-out", "25"]) == 1

    def test_invalid_value_is_usage(self):
        assert main(["totals", "--n-in", "-3", "--n-out", "12"]) == 1

    def test_unwritable_output_is_io(self, tmp_path):
        assert main(["solve-nin", "--n-out", "25", "--target", "1e6",
                     "--output", str(tmp_path / "no" / "dir" / "x.csv")]) == 2

    def test_bad_flag_is_usage(self):
        assert main(["totals", "--frequency", "12"]) == 1

    def test_no_command_is_usage(self):
        assert main([]) == 1

    @pytest.mark.parametrize("flag", [["--config", "{}"], ["--={}"]],
                             ids=["config", "empty-prefix"])
    def test_unknown_command_with_config_is_usage(self, flag, tmp_path,
                                                  capsys):
        # argparse refuses the argv (exit 1) before the missing file could
        # be read (exit 2), as it refuses ["bogus"]
        path = tmp_path / "nope.cfg"
        assert main(["bogus"] + [t.format(path) for t in flag]) == 1
        assert "cannot read config file" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-nin", "--n-out", "abc", "--target", "1e6"],
        ["sweep", "--n-out-points", "2.5"],
        ["totals", "--n-in", "2", "--n-out", "12", "--model", "bogus"],
        ["solve-nin", "--n-out", "25"],
        ["totals", "--n-in", "2", "--n-out", "12", "--frequency", "12"],
        ["solve-nin", "--n-out", "25", "--target", "-1e5"],
        # with a config file: --c starts --config, but on spectrum it also
        # abbreviates --cutoff-nm, so no file is read
        ["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5", "--c", "{}"],
    ], ids=["non-numeric", "non-integer", "bad-choice", "missing-required",
            "unknown-flag", "dashed-value", "ambiguous-c"])
    def test_errors_are_argparse_s(self, argv, tmp_path, capsys, monkeypatch):
        # the same exit code and stderr as with argparse parsing every argv
        monkeypatch.setenv("COLUMNS", "80")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 20\n")
        argv = [token.format(cfg) for token in argv]
        results = []
        for parse_plain in (cli._parse_plain, lambda argv: None):
            monkeypatch.setattr(cli, "_parse_plain", parse_plain)
            code = main(argv)
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        code, (out, err) = results[0]
        assert code == 1 and out == "" and err.startswith("usage: ")

    def test_oversized_finite_problem_is_usage(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a Bessel table or a pass was built")

        # K R 2.3e6 on the default grid: 1.9e9 node pairs, above the limit.
        # No output point lies below 1/2, so only _closed_form, which every
        # pass calls, shows a pass began
        monkeypatch.setattr(bubble, "sph_jn_table", no_table)
        monkeypatch.setattr(bubble, "_closed_form", no_table)
        start = time.perf_counter()
        assert main(["totals", "--n-in", "2", "--n-out", "1.5",
                     "--model", "finite", "--k-obs-r", "2e6"]) == 1
        assert time.perf_counter() - start < 1.0

    def test_oversized_finite_arrays_are_usage(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("an output grid was built")

        # 2e6 points, all below 1/2, at K R 1.15: 3.2e8 node pairs, below
        # their limit, but ~2 GiB of arrays
        monkeypatch.setattr(np, "arange", no_grid)
        assert main(["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5",
                     "--k-obs-r", "1", "--grid-points", "2000000",
                     "--grid-extend", "1", "--model", "finite"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "GiB of arrays" in err

    def test_oversized_infinite_grid_is_usage(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("an output grid was built")

        monkeypatch.setattr(np, "arange", no_grid)
        start = time.perf_counter()
        assert main(["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5",
                     "--model", "infinite",
                     "--grid-points", "1000000000"]) == 1
        assert time.perf_counter() - start < 1.0

    def test_oversized_sweep_grid_is_usage(self, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("an n_out grid was built")

        limit = bubble._MAX_ENGINE_BYTES // bubble._POINT_BYTES
        bubble.check_grid_points(limit, "n-out-points")
        monkeypatch.setattr(np, "arange", no_grid)
        for points in (limit + 1, 10**12):
            start = time.perf_counter()
            assert main(["sweep", "--n-out-points", str(points)]) == 1
            assert time.perf_counter() - start < 1.0
            assert "lower n-out-points" in capsys.readouterr().err

    def test_tolerance_below_floor_is_usage(self, monkeypatch, capsys):
        # refused, naming the floor, before the engine is built
        def no_engine(*args):
            raise AssertionError("the engine was built")

        monkeypatch.setattr(bubble, "_sums", no_engine)
        for argv in (HEADLINE_SPECTRUM + ["--model", "finite"], ["table1"]):
            assert main(argv + ["--tol", "9e-14"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(
                "error: quad_rel_tol must lie in [1e-13, 1), got 9e-14")

    @pytest.mark.parametrize("argv", [HEADLINE_SPECTRUM, ["table1"]],
                             ids=["headline", "table1"])
    def test_tolerance_at_floor_converges(self, argv, tmp_path):
        # the headline spectrum and all five table1 cases converge there
        code, text = run(argv + ["--tol", "1e-13"], tmp_path)
        assert code == 0
        assert "# tol = 1e-13" in text.splitlines()

    @pytest.mark.parametrize("argv", [
        # n_liquid**3 underflows to 0 in the back-substituted count
        ["solve-nin", "--n-out", "1", "--target", "1e6",
         "--n-liquid", "1e-120"],
        ["sweep", "--n-liquid", "0.5"],
    ], ids=["solve-nin", "sweep"])
    def test_n_liquid_below_one_is_usage(self, argv, capsys):
        # the domain spectrum, totals and table1 have through BubbleGeometry
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n_liquid must be >= 1")

    @pytest.mark.parametrize("argv, name", [
        (["totals", "--n-in", "1", "--n-out", "12", "--k-obs-r", "1e120"],
         "K R"),
        (["totals", "--n-in", "1", "--n-out", "12", "--radius-nm", "1e300",
          "--cutoff-nm", "1e-300"], "radius"),
        # K overflows where K R is ~17: K is named, not K R
        (["totals", "--n-in", "2", "--n-out", "1.5", "--radius-nm", "1e-300"],
         "K (1/m)"),
    ], ids=["k-obs-r", "radius", "k-overflow"])
    def test_geometry_whose_cube_overflows_is_usage(self, argv, name, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {name}")
        assert "so that its cube is finite" in err

    def test_cutoff_wavelength_overflow_names_k_obs_r(self, capsys):
        # lambda_obs = 2 pi R / k_obs_r overflows: the error names the
        # k_obs_r given, not a lambda_obs of inf
        assert main(["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5",
                     "--k-obs-r", "1e-320"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: k_obs_r 1e-320 at radius")
        assert "inf" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, want", [
        (["solve-nin", "--n-out", "1e-170", "--target", "1e6"], 3),
        (["solve-nin", "--n-out", "12", "--target", "1e6",
          "--n-liquid", "1e200"], 1),
        (["solve-nin", "--n-out", "12", "--target", "1e6",
          "--k-obs-r", "1e120"], 1),
        (["solve-nin", "--n-out", "1e155", "--target", "1e300",
          "--n-liquid", "1e3"], 3),
        (["totals", "--n-in", "1", "--n-out", "12", "--k-obs-r", "1e120"], 1),
        (["totals", "--n-in", "1", "--n-out", "12", "--radius-nm", "1e300",
          "--cutoff-nm", "1e-300"], 1),
        (["totals", "--n-in", "1e300", "--n-out", "1e-300"], 1),
        # n_in n_out underflows, and N ~ 1e309 leaves the float range
        (["totals", "--n-in", "5e-324", "--n-out", "1e-4"], 3),
        # N ~ 1e338 itself leaves the float range
        (["totals", "--n-in", "1e-300", "--n-out", "1e60",
          "--k-obs-r", "1e-30"], 3),
        # the infinite spectrum's values, ~1e323 at the first point
        (["spectrum", "--n-gas-in", "1", "--n-gas-out", "1e110",
          "--k-obs-r", "1e-50", "--model", "infinite", "--grid-points", "2",
          "--grid-extend", "1"], 3),
        # the spectra's common factor: its square root is ~4e362
        (["spectrum", "--n-gas-in", "5e-324", "--n-gas-out", "9e153",
          "--radius-nm", "5e111", "--cutoff-nm", "1e300", "--model", "both",
          "--grid-points", "2", "--grid-extend", "1"], 3),
    ], ids=["solve-c0-underflow", "solve-n-liquid-cube", "solve-k-obs-r-cube",
            "solve-nan-discriminant", "totals-k-obs-r", "totals-radius",
            "totals-indices", "totals-index-product-underflow",
            "totals-count-overflow", "spectrum-infinite-overflow",
            "spectrum-root-overflow"])
    def test_over_and_underflow_is_a_one_line_error(self, argv, want, capsys):
        # no traceback and no nan cell: usage or numerical exit, one line
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == want and out == ""
        assert err.startswith("error: " if code == 1 else "numerical error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv, want", [
    # (Dn)^2 R / (4 c n_in) 2 x^2 / (3 pi) at x = K R / 2, below the float
    # maximum though a product of its factors in another order overflows
    (["spectrum", "--n-gas-in", "1", "--n-gas-out", "1e110",
      "--k-obs-r", "1e-60", "--model", "infinite"], 2.6177699501361663e+303),
    # ... and above the smallest normal float though (Dn)^2 n_out / (2c)
    # underflows: 3 N / (4 omega_max)
    (["spectrum", "--n-gas-in", "1e-100", "--n-gas-out", "1e-150",
      "--k-obs-r", "1e60", "--model", "infinite"], 2.6177699501361655e-297),
], ids=["near-max", "near-min"])
def test_infinite_spectrum_cell_is_the_value_where_that_is_a_float(
        argv, want, capsys):
    # a two-point grid, [K R / 2, K R]
    assert main(argv + ["--grid-points", "2", "--grid-extend", "1"]) == 0
    out, err = capsys.readouterr()
    first = [line for line in out.splitlines() if not line.startswith("#")][1]
    assert err == "" and rel_err(float(first.split(",")[3]), want) < 2e-15


def test_spectra_where_the_index_difference_squared_times_radius_overflows(
        capsys):
    # (Dn)^2 R ~ 1e310; both spectra, ~1e149 to ~1e152, are floats
    assert main(["spectrum", "--n-gas-in", "1e150", "--n-gas-out", "1",
                 "--radius-nm", "1e19", "--k-obs-r", "3", "--grid-points",
                 "2", "--grid-extend", "1"]) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert err == "" and len(rows) == 2
    assert all(1e148 < float(cell) < 1e153 for row in rows for cell in row[3:])


@pytest.mark.parametrize("k_obs_r", [
    # K R 69 231: 5 510 panels in tiles, ~14 MB at the peak
    "60000",
    # K R 1.2e-310: every point below 1/2, and 1/2 grid_points / K R is inf
    "1e-310",
], ids=["large-kr", "vanishing-kr"])
def test_finite_spectrum_at_extreme_kr(k_obs_r, capsys):
    assert main(["spectrum", "--n-gas-in", "2", "--n-gas-out", "1.5",
                 "--k-obs-r", k_obs_r, "--grid-points", "2", "--grid-extend",
                 "1", "--model", "finite"]) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    cells = [float(row[4]) for row in rows]
    assert err == "" and len(rows) == 2
    assert all(math.isfinite(cell) and cell >= 0.0 for cell in cells)


# omega_out = x c / (n_out R) above the float range
_OMEGA_OVERFLOW = ["--n-gas-in", "1", "--n-gas-out", "1e-200", "--radius-nm",
                   "1e-91", "--cutoff-nm", "6e-291"]


@pytest.mark.parametrize("argv", [
    # K R underflows to 0, the first panel graded or not
    ["totals", "--n-in", "1e-160", "--n-out", "1e-150", "--model", "finite",
     "--k-obs-r", "1e-300"],
    ["spectrum", "--n-gas-in", "1", "--n-gas-out", "2", "--radius-nm",
     "1e-200", "--cutoff-nm", "1e200", "--model", "finite"],
    ["totals", "--n-in", "2", "--n-out", "1.5", "--radius-nm", "1e-200",
     "--cutoff-nm", "1e200", "--model", "finite"],
    ["spectrum", "--n-gas-in", "1", "--n-gas-out", "2", "--radius-nm",
     "1e-200", "--cutoff-nm", "1e200", "--model", "infinite"],
    # K R ~6e-200, but the omega_out spacing underflows to 0
    ["spectrum", "--n-gas-in", "1", "--n-gas-out", "1e100", "--n-liquid",
     "1e100", "--radius-nm", "1e100", "--cutoff-nm", "1e300",
     "--grid-points", "2"],
    *[["spectrum", *_OMEGA_OVERFLOW, "--model", model]
      for model in ("infinite", "finite", "both")],
    ["totals", "--n-in", "1", "--n-out", "1e-200", "--radius-nm", "1e-91",
     "--cutoff-nm", "6e-291", "--model", "finite"],
], ids=["graded-totals", "graded-spectrum", "ungraded-totals", "kr-spacing",
        "omega-spacing", "overflow-infinite", "overflow-finite",
        "overflow-both", "overflow-totals"])
def test_grid_outside_the_float_range_is_refused(argv, capsys):
    # one usage line naming K R and the omega_out range: not an IndexError
    # from the panel edges, rows of x = omega = nu = 0, a numpy warning or
    # a complaint about a grid or an inf never given
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: output grid not representable at K R")


def test_totals_where_the_index_product_underflows(capsys):
    # n_in n_out underflows to 0; the count, ~1.6e-222, does not
    assert main(["totals", "--n-in", "1e-200", "--n-out", "1e-150",
                 "--k-obs-r", "1e60"]) == 0
    out, err = capsys.readouterr()
    name, count = out.splitlines()[-1].split(",")[:2]
    assert err == "" and name == "infinite"
    assert 1.6e-222 < float(count) < 1.62e-222


@pytest.mark.parametrize("argv", [
    # the spectrum is finite, its integral is not
    ["totals", "--n-in", "2.2250738585072014e-308", "--n-out", "1",
     "--radius-nm", "1", "--grid-extend", "1", "--model", "finite"],
    # C0 n_out^2 overflows, so L is 0 and the low root lies one ulp below
    # the double root, where the count is ~1e375
    ["solve-nin", "--n-out", "1.7395814803004553e+68", "--target",
     "1.7395814803004553e+68", "--k-obs-r", "1.7395814803004553e+68"],
], ids=["totals-finite", "solve-nin"])
def test_count_above_the_float_range_is_numerical(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("numerical error:") and "float range" in err


def test_untyped_arithmetic_error_is_one_numerical_line(monkeypatch, capsys):
    # main's last handler: an ArithmeticError that no function typed
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "totals_closed_form", overflow)
    assert main(["totals", "--n-in", "2", "--n-out", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical error: OverflowError: math range error\n"


def test_csv_writer_cells(capsys):
    # every float form repr produces, strings and None cells, with None
    # in some rows only: a None cell is blank, the string "None" is not
    forms = (2.0, 1e-05, 1e+16, 0.060415243338265257, 5e-324, -0.0, 7)
    rows = [(forms[i % len(forms)], f"s{i}",
             None if i % 5 == 0 else forms[(3 * i) % len(forms)],
             None if i > 20 else "None")
            for i in range(40)]
    cli._write_csv("test", {}, "a,b,c,d",
                   [",".join([cli._cell(c) for c in row]) for row in rows],
                   None)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-len(rows) - 1] == "a,b,c,d"
    assert lines[-len(rows):] == [
        ",".join("" if c is None else str(c) for c in row) for row in rows]
    assert lines[-len(rows)] == "2.0,s0,,None"


def test_closed_form_golden_replay(capsys):
    # every closed-form request of the benchmark pool, replayed in process:
    # the data lines (all but the '#' preamble) must equal the committed
    # outputs byte for byte
    golden = json.loads(GOLDEN_CLOSED_FORM.read_text(encoding="utf-8"))
    assert len(golden) == 528
    for request, want in golden.items():
        assert main(request.split()) == 0, request
        out = capsys.readouterr().out
        got = "".join(line for line in out.splitlines(keepends=True)
                      if not line.startswith("#"))
        assert got == want, request


def test_workload_requests_take_the_plain_parse():
    # the benchmark's requests skip argparse: every closed-form request and
    # the headline spectrum, which gets --output appended
    golden = json.loads(GOLDEN_CLOSED_FORM.read_text(encoding="utf-8"))
    argvs = [request.split() for request in golden]
    argvs.append(HEADLINE_SPECTRUM + ["--output", "spectrum.csv"])
    for argv in argvs:
        plain = cli._parse_plain(argv)
        assert plain is not None, argv
        assert plain == vars(cli._build_parser().parse_args(argv)), argv


def test_headline_spectrum_calls_the_bessel_table(monkeypatch, tmp_path):
    # the traced benchmark run of the headline request (perfbench's
    # worker.integrity) requires at least one specfun.sph_jn_table call: the
    # small-argument Lommel block's j_l table
    table, calls = specfun.sph_jn_table, []

    def counted(*args):
        calls.append(args)
        return table(*args)

    for module in (specfun, bubble):
        monkeypatch.setattr(module, "sph_jn_table", counted)
    code, _ = run(HEADLINE_SPECTRUM, tmp_path)
    assert code == 0
    assert len(calls) >= 1


class TestParserReuse:
    def test_requests_match_fresh_processes(self, capsys, monkeypatch,
                                            tmp_path):
        # one strict and one quiet parser serve every main() call of a
        # process; an invalid, --config or -h request must leave them as a
        # fresh process would find them
        monkeypatch.setenv("COLUMNS", "80")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = 1e6\n")
        requests = [["totals", "--n-in", "2", "--n-out", "12",
                     "--model", "bogus"],
                    ["solve-nin", "--config", str(cfg), "--n-out", "12"],
                    ["solve-nin", "-h"],
                    ["solve-nin", "--n-out", "25", "--target", "1e6"]]
        in_process = []
        for args in requests:
            try:
                code = main(args)
            except SystemExit as exc:  # -h: argparse's exit
                code = exc.code
            out, err = capsys.readouterr()
            in_process.append((code, out.encode(), err.encode()))
        assert in_process == [run_child(args) for args in requests]
        assert [code for code, _, _ in in_process] == [1, 0, 0, 0]
        assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv", [["-h"], ["solve-nin", "-h"], ["--version"]],
                         ids=["help", "command-help", "version"])
def test_help_and_version_print_once(argv, capsys, monkeypatch):
    # the quiet parse that looks for --config prints nothing; the strict
    # parse prints what argparse alone prints, and exits 0
    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for parse in (main, cli._build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    out, err = printed[0]
    assert err == ""
    if argv[-1] == "--version":
        assert out == sonophoton.__version__ + "\n"
    else:
        assert out.startswith("usage: sonophoton ") and out.count("usage:") == 1


STARTUP_CHILD = """
import contextlib, io, sys
import sonophoton.cli
assert "numpy" not in sys.modules, "import sonophoton.cli loaded numpy"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["solve-nin", "--n-out", "12", "--target", "1e6"],
                 ["totals", "--n-in", "1", "--n-out", "12",
                  "--model", "infinite"]):
        assert sonophoton.cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, f"{argv} loaded numpy"
assert {"sonophoton.bubble", "sonophoton.specfun"} <= set(sys.modules)
for name in sonophoton.__all__:
    getattr(sonophoton, name)
assert "numpy" in sys.modules
"""


def test_closed_form_commands_start_without_numpy():
    # the engine modules are registered at import and executed on first
    # use, so the closed-form commands never import numpy; every public
    # name still resolves, the engine's through the package
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_dataclasses_inspect_numpy_nor_typing():
    # -S: no site .pth file preloads any of them before the check
    code = ("import sys, sonophoton.cli; print(sorted({'dataclasses', "
            "'inspect', 'numpy', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
