"""Configuration parsing, snapshots, diagnostics CSV, CLI surface."""

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ebpe
from ebpe import cli, diagnostics, make_grid
from ebpe.config import ConfigError, RunConfig, parse_config
from ebpe.linops import SolveError
from ebpe.snapshots import SnapshotError, read_snapshot, write_snapshot
from ebpe.timestep import initial_state, run_deterministic

MINIMAL = """
[grid]
nx = 8
ny = 8
nz = 8
"""


class TestParseConfig:
    def test_minimal_file_applies_defaults(self):
        cfg = parse_config(MINIMAL)
        assert (cfg.nx, cfg.ny, cfg.nz) == (8, 8, 8)
        assert cfg.beta1 == 0.38 and cfg.beta2 == 0.68
        assert cfg.rho_ref == 0.0
        assert cfg.dt == 1e-3

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top\n[grid]\nnx=8 # inline\nny=8\nnz=8\n\n")
        assert cfg.nx == 8

    def test_coalbedo_order_violation(self):
        text = MINIMAL + "[physics]\nbeta1 = 0.7\nbeta2 = 0.5\n"
        with pytest.raises(ConfigError, match="0 < beta1 < beta2"):
            parse_config(text)

    def test_insolation_positivity(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(MINIMAL + "[physics]\nq1 = 1.2\n")

    def test_stochastic_surface_trace_rejected(self):
        text = MINIMAL + "[physics]\ntransport = surface_trace\n[noise]\nsigma = 0.1\n"
        with pytest.raises(ConfigError, match="vertical_average"):
            parse_config(text)
        ok = parse_config(
            MINIMAL + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\n"
        )
        assert ok.noise_sigma == 0.1

    def test_unknown_key_reports_line(self):
        text = "[grid]\nnx = 8\nny = 8\nnz = 8\nbogus = 1\n"
        with pytest.raises(ConfigError, match="line 5") as err:
            parse_config(text)
        assert "bogus" in str(err.value)

    def test_type_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nnx = eight\nny = 8\nnz = 8\n")

    def test_all_errors_reported_in_one_pass(self):
        text = "[grid]\nnx = 7\nny = 8\nnz = 8\n[physics]\nbeta1 = 0.9\n[time]\ndt = -1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "nx" in msg and "beta1" in msg and "dt" in msg

    def test_t_end_zero_allowed(self):
        cfg = parse_config(MINIMAL + "[time]\nt_end = 0.0\n")
        assert cfg.n_steps() == 0

    def test_t_end_must_divide(self):
        with pytest.raises(ConfigError, match="whole number of steps"):
            parse_config(MINIMAL + "[time]\ndt = 3e-3\nt_end = 0.01\n")

    def test_noise_decay_floor(self):
        with pytest.raises(ConfigError, match="decay"):
            parse_config(MINIMAL + "[physics]\ntransport=vertical_average\n[noise]\nsigma=0.1\ndecay=1.0\n")

    def test_negative_seeds_rejected_in_one_pass(self):
        text = MINIMAL + "[init]\nseed = -1\n[noise]\nseed = -3\n[time]\ndt = -1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.messages[-3:] == [
            "dt must be positive, got -1.0",
            "ic_seed must be >= 0, got -1",
            "noise_seed must be >= 0, got -3",
        ]

    def test_seed_override_helper(self):
        cfg = parse_config(MINIMAL)
        c2 = cfg.with_seed(77)
        assert c2.ic_seed == 77 and c2.noise_seed == 77


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path, grid8, rng):
        state = initial_state(grid8, "random_smooth", amplitude=0.7, seed=13)
        state.t = 0.625
        path = tmp_path / "s.bin"
        write_snapshot(state, path)
        back, z = read_snapshot(path, grid8)
        assert z is None
        assert back.t == state.t
        assert np.array_equal(back.v, state.v)
        assert np.array_equal(back.T, state.T)
        assert np.array_equal(back.rho, state.rho)

    def test_z_rho_channel(self, tmp_path, grid8, rng):
        state = initial_state(grid8, "zero")
        z_rho = rng.standard_normal((8, 8))
        path = tmp_path / "s.bin"
        write_snapshot(state, path, z_rho=z_rho)
        _, z = read_snapshot(path)
        assert np.array_equal(z, z_rho)

    def test_truncated_file_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_wrong_version_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_dimension_mismatch_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        with pytest.raises(SnapshotError, match="dimensions"):
            read_snapshot(path, make_grid(8, 8, 4))

    def test_trailing_bytes_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotError, match="trailing"):
            read_snapshot(path)

    def test_oversized_header_rejected_before_allocation(self, tmp_path):
        # a 64-byte file whose header claims 100000 x 100000 x 1000 points
        header = struct.pack("<4sBBIIId", b"EBPE", 1, 0, 100_000, 100_000, 1000, 0.0)
        path = tmp_path / "huge.bin"
        path.write_bytes(header.ljust(64, b"\0"))
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)
        assert cli.main(["check", str(path)]) == 1

    def test_unknown_flag_bits_rejected(self, tmp_path, grid8):
        path = tmp_path / "s.bin"
        write_snapshot(initial_state(grid8, "zero"), path)
        raw = bytearray(path.read_bytes())
        raw[5] = 0x02  # the flags byte follows the magic and the version
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="flag"):
            read_snapshot(path)
        assert cli.main(["check", str(path)]) == 1


class TestDiagnosticsCsv:
    def test_float_formatting_round_trips(self):
        row = diagnostics.DiagnosticsRow(
            step=3, t=1 / 3, energy=np.pi, dissipation=1e-17, rho_l5=0.0,
            sup_T=2.0, sup_rho=0.5, trace_res=0.0, div_res=3e-16, flags=0,
        )
        fields = row.format().split(",")
        assert float(fields[1]) == 1 / 3
        assert float(fields[2]) == np.pi

    def test_csv_layout(self):
        text = diagnostics.format_csv([], footer="status=ok")
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == diagnostics.HEADER
        assert lines[-1].startswith("# footer")


class TestRestartSplicing:
    def test_spliced_rows_match_uninterrupted_run(self, tmp_path):
        base = RunConfig(nx=8, ny=8, nz=8, dt=1e-3, t_end=0.1, cadence=10,
                         ic_kind="random_smooth", ic_amplitude=0.6, ic_seed=21)
        full = run_deterministic(base)

        half = dataclasses.replace(base, t_end=0.05)
        first = run_deterministic(half)
        snap = tmp_path / "mid.bin"
        write_snapshot(first.final_state, snap)

        resumed, _ = read_snapshot(snap)
        resumed.step = int(round(resumed.t / base.dt))
        second = run_deterministic(base, initial=resumed)

        rows_full = diagnostics.rows_from_records(full.csv_records)
        rows_spliced = diagnostics.rows_from_records(
            first.csv_records + second.csv_records
        )
        assert [r.format() for r in rows_full] == [r.format() for r in rows_spliced]
        assert np.array_equal(full.final_state.T, second.final_state.T)
        assert np.array_equal(full.final_state.v, second.final_state.v)


def write_config(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


RUN_INI = """
[grid]
nx = 8
ny = 8
nz = 8
[time]
dt = 1e-3
t_end = 0.01
[init]
kind = random_smooth
amplitude = 0.5
seed = 3
[output]
cadence = 5
"""


class TestCli:
    def test_run_det_success(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "out"
        code = cli.main(["run-det", "--config", str(cfgp), "--out", str(out)])
        assert code == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "state_final.bin").exists()

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfgp = write_config(tmp_path, RUN_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out2)]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "state_final.bin").read_bytes() == (out2 / "state_final.bin").read_bytes()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, RUN_INI + "[physics]\nbeta1 = 0.9\n")
        assert cli.main(["run-det", "--config", str(bad)]) == 1
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("cadence", ["0", "-5"])
    def test_invalid_cadence_override_rejected(self, tmp_path, capsys, cadence):
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "out"
        argv = ["run-det", "--config", str(cfgp), "--out", str(out), "--cadence", cadence]
        assert cli.main(argv) == 1
        assert "cadence" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, section, key, attr", [
        ("run-det", "time", "dt", "dt"),
        ("run-det", "time", "t_end", "t_end"),
        ("run-stoch", "noise", "sigma", "noise_sigma"),
        ("run-det", "physics", "q0", "q0"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, command, section, key,
                                       attr, value):
        text = (RUN_INI + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\n"
                + f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{attr} must be finite"):
            parse_config(text)
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfgp), "--out", str(out)]) == 1
        assert f"{attr} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_run_det_rejects_noise(self, tmp_path, capsys):
        text = RUN_INI + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\n"
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run-stoch" in err and "run-direct-em" in err
        assert not out.exists()

    def test_stochastic_surface_trace_exit_code(self, tmp_path):
        text = RUN_INI + "[physics]\ntransport = surface_trace\n[noise]\nsigma = 0.1\n"
        bad = write_config(tmp_path, text)
        assert cli.main(["run-stoch", "--config", str(bad)]) == 1

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = """
[grid]
nx = 8
ny = 8
nz = 8
[time]
dt = 10.0
t_end = 100.0
[init]
kind = uniform
value = 3.0
"""
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out)]) == 2
        assert (out / "state_blowup.bin").exists()

    def test_monitor_failure_exit_code(self, tmp_path):
        text = """
[grid]
nx = 8
ny = 8
nz = 8
[time]
dt = 10.0
t_end = 100.0
[init]
kind = random_smooth
amplitude = 3.0
[output]
monitors = on
"""
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out)]) == 3

    def test_check_snapshot(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "out"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out)]) == 0
        assert cli.main(["check", str(out / "state_final.bin")]) == 0
        captured = capsys.readouterr().out
        assert "trace" in captured and "solenoidal" in captured

    def test_check_corrupt_snapshot(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"EBPEjunkjunk")
        assert cli.main(["check", str(p)]) == 1

    def test_run_stoch_and_direct_em(self, tmp_path):
        text = RUN_INI + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\nseed = 4\n"
        cfgp = write_config(tmp_path, text)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert cli.main(["run-stoch", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert cli.main(["run-direct-em", "--config", str(cfgp), "--out", str(out2)]) == 0
        # split snapshot carries the noise channel
        _, z = read_snapshot(out1 / "state_final.bin")
        assert z is not None

    @pytest.mark.parametrize("command", ["run-stoch", "run-direct-em"])
    def test_stochastic_cnab2_rejected(self, tmp_path, capsys, command):
        text = (RUN_INI.replace("t_end = 0.01", "t_end = 0.01\nscheme = cnab2")
                + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\n")
        cfgp = write_config(tmp_path, text)
        assert cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
        assert "imex_euler" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-stoch", "run-direct-em"])
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, command):
        text = (RUN_INI.replace("t_end = 0.01", "t_end = 0.01\nscheme = cnab2")
                + "[physics]\ntransport = vertical_average\n[noise]\nsigma = 0.1\n")
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfgp), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-stoch", "run-direct-em"])
    def test_stochastic_monitor_failure_exit_code(self, tmp_path, command):
        text = """
[grid]
nx = 8
ny = 8
nz = 8
[physics]
transport = vertical_average
[time]
dt = 10.0
t_end = 100.0
[init]
kind = random_smooth
amplitude = 3.0
[noise]
sigma = 0.1
[output]
monitors = on
"""
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfgp), "--out", str(out)]) == 3
        lines = (out / "diagnostics.csv").read_text().splitlines()
        flags = [int(line.rsplit(",", 1)[1]) for line in lines if line[0].isdigit()]
        assert any(flags)
        assert "monitor_failure" in lines[-1]

    def test_spectrum_command(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--config", str(cfgp), "--out", str(out)]) == 0
        text = (out / "spectrum.csv").read_text()
        assert "phi_hat" in text
        assert "k1,k2,re,im" in text

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_spectrum_non_finite_omega_rejected(self, tmp_path, capsys, omega):
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "spec"
        argv = ["spectrum", "--config", str(cfgp), "--out", str(out), "--omega", omega]
        assert cli.main(argv) == 1
        assert "omega" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing_report(grid, omega):
            raise SolveError("eigensolver failed: test")

        monkeypatch.setattr(cli, "spectrum_report", failing_report)
        cfgp = write_config(tmp_path, RUN_INI)
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--config", str(cfgp), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: eigensolver failed")
        assert not out.exists()

    def test_package_imports_without_scipy(self):
        # scipy is a test-only dependency: importing the package and its
        # entry points must not load it
        code = ("import sys, ebpe, ebpe.cli, ebpe.stochastic, ebpe.manufactured; "
                "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                "assert not loaded, loaded")
        src = str(Path(ebpe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_seed_override_changes_output(self, tmp_path):
        cfgp = write_config(tmp_path, RUN_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out1), "--seed", "1"]) == 0
        assert cli.main(["run-det", "--config", str(cfgp), "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "state_final.bin").read_bytes() != (out2 / "state_final.bin").read_bytes()

    @pytest.mark.parametrize("command", ["run-det", "run-stoch", "run-direct-em"])
    def test_negative_seed_override_rejected(self, tmp_path, capsys, command):
        text = RUN_INI + "[physics]\ntransport = vertical_average\n"
        if command != "run-det":
            text += "[noise]\nsigma = 0.1\n"
        cfgp = write_config(tmp_path, text)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfgp), "--out", str(out), "--seed", "-2"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "ic_seed must be >= 0" in err and "noise_seed must be >= 0" in err
        assert not out.exists()

    def test_usage_error_exit_code(self):
        assert cli.main(["run-det"]) == 1  # missing --config
        assert cli.main(["no-such-command"]) == 1
