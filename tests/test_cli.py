import math

import pytest

from sonophoton.cli import main

from oracles import rel_err

FAST_SPECTRUM = ["spectrum", "--n-gas-in", "3", "--n-gas-out", "1.5",
                 "--k-obs-r", "5", "--grid-points", "30", "--model", "both"]


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

    def test_no_change_zero_spectrum(self, tmp_path):
        args = ["spectrum", "--n-gas-in", "5", "--n-gas-out", "5",
                "--k-obs-r", "5", "--grid-points", "12", "--model", "both"]
        code, text = run(args, tmp_path)
        assert code == 0
        _, _, rows = parse_csv(text)
        assert all(float(r[3]) == 0.0 and float(r[4]) == 0.0 for r in rows)


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

    @pytest.mark.parametrize("argv, entry", [
        (SOLVE, "bogus = 1"),
        (["totals", "--n-in", "2", "--n-out", "12"], "model = bogus"),
        (SOLVE, "config = other.cfg"),
        (SOLVE, "n_liquid = abc"),
    ], ids=["unknown-key", "bad-choice", "config-key", "non-numeric"])
    def test_invalid_entry_rejected(self, tmp_path, argv, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]
                    + ["--output", str(tmp_path / "out.csv")]) == 1

    def test_preamble_keys(self, tmp_path):
        # The preamble names every parameter; file keys are the same names.
        shared = ["cutoff_nm", "grid_extend", "grid_points", "k_obs_r",
                    "lmax", "n_liquid", "radius_nm", "tol"]
        cases = {
            "spectrum": (["--n-gas-in", "3", "--n-gas-out", "1.5",
                          "--model", "infinite"],
                         shared + ["k_gas_cutoff_x", "model", "n_gas_in",
                                     "n_gas_out", "t0_fs"]),
            "totals": (["--n-in", "3", "--n-out", "1.5"],
                       shared + ["model", "n_in", "n_out", "t0_fs"]),
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

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["solve-nin", "--config", str(tmp_path / "nope.cfg"),
                     "--n-out", "12", "--target", "1e6"]) == 2


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
