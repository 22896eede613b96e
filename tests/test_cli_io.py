import hashlib
import json
import os
import platform
import re
import resource
import shutil
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from layerqg import dynamics
from layerqg.cli import build_parser, main
from layerqg.dynamics import parse_observables, run_trajectory
from layerqg.errors import (ConfigurationError, FieldFormatError,
                            FieldLengthError, TimeStepError)
from layerqg.fieldio import read_field, write_field
from layerqg.measures import tightness_diagnostic
from layerqg.runconfig import RunSettings, parse_config, realize
from layerqg.spectral import LayerField

from conftest import random_band_coeffs


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_single_assignment(self, tmp_path):
        settings, defaulted = parse_config(self.write(tmp_path, "gamma=0.5\n"))
        assert settings.gamma == 0.5
        assert "gamma" not in defaulted
        assert "dt" in defaulted

    def test_negative_gamma_named(self, tmp_path):
        settings, _ = parse_config(self.write(tmp_path, "gamma=-1\n"))
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            realize(settings, seed=0)

    def test_empty_file_all_defaults(self, tmp_path):
        settings, defaulted = parse_config(self.write(tmp_path, ""))
        assert settings == RunSettings()
        assert sorted(defaulted) == sorted(settings.echo())

    def test_comments_and_blanks(self, tmp_path):
        text = "# a comment\n\ngamma=0.25   # trailing\n"
        settings, _ = parse_config(self.write(tmp_path, text))
        assert settings.gamma == 0.25

    def test_unknown_keys_all_listed(self, tmp_path):
        with pytest.raises(ConfigurationError) as err:
            parse_config(self.write(tmp_path, "gamma=0.5\nfoo=1\nbar=2\n"))
        assert "bar" in str(err.value) and "foo" in str(err.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigurationError, match=":2:"):
            parse_config(self.write(tmp_path, "gamma=0.5\nnot a pair\n"))

    def test_repeated_key_names_both_lines(self, tmp_path):
        with pytest.raises(ConfigurationError,
                           match=":3: modes_x already set on line 1$"):
            parse_config(self.write(
                tmp_path, "modes_x=8\ngamma=0.5\nmodes_x=12\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigurationError, match="modes_x"):
            parse_config(self.write(tmp_path, "modes_x=twelve\n"))

    def test_dealiasing_constraint_named(self, tmp_path):
        settings, _ = parse_config(
            self.write(tmp_path, "modes_x=16\ngrid_x=20\n"))
        with pytest.raises(ConfigurationError, match="dealiasing"):
            realize(settings, seed=0)

    def test_dt_ceiling_named(self, tmp_path):
        settings, _ = parse_config(self.write(tmp_path, "gamma=0.5\ndt=1.5\n"))
        with pytest.raises(TimeStepError, match="stability ceiling"):
            realize(settings, seed=0)

    @pytest.mark.parametrize("bad, snap_every, message", [
        (dict(nonlinearity="of"), 0, "nonlinearity must be 'on' or 'off'"),
        (dict(obs_every=0), 0, "obs_every must be >= 1"),
        ({}, -1, "snap_every must be >= 0")],
        ids=["nonlinearity", "obs_every", "snap_every"])
    def test_realize_rejects(self, bad, snap_every, message):
        settings = RunSettings(modes_x=4, modes_y=4, **bad)
        with pytest.raises(ConfigurationError, match=message):
            realize(settings, seed=0, snap_every=snap_every)

    def test_realize_builds_consistent_objects(self, tmp_path):
        # one mode along x gives the default noise_modes 3 * 1^2 // 4 = 0
        for text, nx, k in [
                ("modes_x=8\nmodes_y=8\nsigma=0.5\nnoise_modes=16\n", 8, 16),
                ("modes_x=1\nmodes_y=4\n", 1, 0)]:
            settings, _ = parse_config(self.write(tmp_path, text))
            config = realize(settings, seed=3)
            assert config.basis.nx == nx
            assert config.noise.k == k
            assert len(config.pairs) >= max(2 * config.noise.k, 1)


class TestFieldIO:
    def test_round_trip_spectral_bit_exact(self, tmp_path, basis16):
        rng = np.random.default_rng(0)
        field = LayerField.from_coeffs(basis16,
                                       random_band_coeffs(rng, basis16))
        path = tmp_path / "f.lqg"
        write_field(path, field)
        back = read_field(path, basis16)
        assert np.array_equal(back.coeffs, field.coeffs)

    def test_round_trip_grid_bit_exact(self, tmp_path, basis16):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((3,) + basis16.grid_shape)
        field = LayerField.from_grid(basis16, grid)
        path = tmp_path / "g.lqg"
        write_field(path, field)
        back = read_field(path, basis16)
        assert np.array_equal(back.grid, grid)

    def test_corrupted_magic(self, tmp_path, basis16):
        path = tmp_path / "bad.lqg"
        write_field(path, LayerField.zero(basis16))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFormatError, match="magic"):
            read_field(path, basis16)

    def test_unsupported_version(self, tmp_path, basis16):
        path = tmp_path / "v9.lqg"
        write_field(path, LayerField.zero(basis16))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFormatError, match="version"):
            read_field(path, basis16)

    def test_truncated_payload(self, tmp_path, basis16):
        path = tmp_path / "short.lqg"
        write_field(path, LayerField.zero(basis16))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FieldLengthError):
            read_field(path, basis16)

    def test_dims_vs_payload_mismatch(self, tmp_path, basis16):
        # header nx inflated beyond the payload length
        path = tmp_path / "mismatch.lqg"
        write_field(path, LayerField.zero(basis16))
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldLengthError):
            read_field(path, basis16)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    BASE = ("modes_x=12", "modes_y=12", "gamma=0.5", "sigma=0",
            "nonlinearity=off", "dt=0.01", "horizon=0.1",
            "init=mode:1,1:1,0,0")

    def write_cfg(self, tmp_path, extra=""):
        # a key that `extra` sets comments out its base line, so each key
        # is set once and `extra` still starts on line 9
        keys = {line.partition("=")[0] for line in extra.splitlines()}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            f"# {line}\n" if line.partition("=")[0] in keys else f"{line}\n"
            for line in self.BASE) + extra)
        return cfg

    def test_run_decay_columns(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--seed", "7",
                       "--out", str(out)) == 0
        rows = (out / "series.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header[0] == "time"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        t, l2 = data[:, 0], data[:, header.index("l2")]
        assert np.max(np.abs(l2 / (l2[0] * np.exp(-0.5 * t)) - 1)) < 1e-12

    def test_csv_numbers_round_trip(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "sigma=1.0\n")
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--seed", "3", "--out", str(out))
        rows = (out / "series.csv").read_text().strip().split("\n")[1:]
        for row in rows[:20]:
            for token in row.split(","):
                v = float(token)
                assert np.isfinite(v)
                assert f"{v:.17g}" == token

    def test_manifest_checksums(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--seed", "7", "--out", str(out),
                "--snap-every", "5")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert "defaults_applied" in manifest
        for artifact in manifest["artifacts"]:
            digest = hashlib.sha256(
                (out / artifact["path"]).read_bytes()).hexdigest()
            assert digest == artifact["sha256"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "sigma=1.0\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("run", "--config", str(cfg), "--seed", "11",
                    "--out", str(out), "--snap-every", "5")
            outs.append(out)
        for fname in ("series.csv", "snapshot_000000.lqg"):
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # 4 paths in batches of 3 and 1, which fan out over the threads
        # when BLAS is pinned: path p is the one-path run on stream p at
        # every thread count
        cfg = tmp_path / "inv.cfg"
        cfg.write_text("modes_x=12\nmodes_y=12\ngamma=0.5\nsigma=1.0\n"
                       "nonlinearity=off\ndt=0.02\nhorizon=20\ninit=zero\n"
                       "observables=l2,h1\n")
        config = realize(parse_config(cfg)[0], seed=9)
        obs = parse_observables("l2,h1")
        alone = [run_trajectory(config, obs, stream=p) for p in range(4)]
        monkeypatch.setattr(dynamics, "_BATCH_POINTS",
                            3 * 3 * config.basis.quad_weights.size)
        names = set()
        barrier = None
        advance = dynamics.Stepper.advance

        def spy(self, eta, w, t):
            name = threading.current_thread().name
            if barrier is not None and name not in names:
                # a pooled batch waits for the other at its first step, so
                # the first worker cannot take both batches
                names.add(name)
                barrier.wait(timeout=60)
            names.add(name)
            return advance(self, eta, w, t)

        def on_threads(pooled, call):
            # the two batches step on two pool threads, or on the caller's
            nonlocal barrier
            names.clear()
            barrier = threading.Barrier(2) if pooled else None
            result = call()
            assert len(names) == (2 if pooled else 1)
            assert ("MainThread" in names) != pooled
            return result

        monkeypatch.setattr(dynamics.Stepper, "advance", spy)
        digests = []
        for blas, threads in ((1, 1), (1, 2), (1, 3), (2, 2)):
            # BLAS's thread count is fixed when it loads: stand in for it
            monkeypatch.setattr(dynamics, "_blas_pinned",
                                lambda blas=blas: blas == 1)
            pooled = blas == 1 and threads > 1
            records = on_threads(pooled, lambda: dynamics._run_paths(
                config, obs, range(4), threads=threads))
            for rec, ref in zip(records, alone, strict=True):
                for name in ("l2", "h1"):
                    assert np.array_equal(rec.observables[name],
                                          ref.observables[name])
            out = tmp_path / f"t{threads}b{blas}"
            argv = ("invariant", "--config", str(cfg), "--seed", "9",
                    "--out", str(out), "--horizons", "10,20", "--paths", "4",
                    "--threads", str(threads))
            assert on_threads(pooled, lambda: run_cli(*argv)) == 0
            digests.append(hashlib.sha256(
                (out / "invariant.csv").read_bytes()).hexdigest())
        assert len(set(digests)) == 1

    def test_viscosity_report_rows(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.005\nhorizon=0.1\ninit=lowband:3:1.0:2\n"
                       "noise_modes=16\n")
        out = tmp_path / "out"
        assert run_cli("viscosity", "--config", str(cfg), "--seed", "1",
                       "--out", str(out),
                       "--eps-ladder", "0.2,0.1,0.05") == 0
        rows = (out / "viscosity.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2    # header + one row per rung pair

    CONSTRAINTS = {"gamma=-1": "gamma must be positive",
                   "dt=1.5": "stability ceiling",
                   "horizon=0.105": "horizon must be a multiple of dt",
                   "lambda2=-1": "lambda2 must be positive",
                   "nonlinearity=of": "nonlinearity must be 'on' or 'off'",
                   "obs_every=0": "obs_every must be >= 1",
                   "noise_modes=-1": "noise_modes must be nonnegative",
                   "init=mode:0,1:1,0,0": "bad init descriptor",
                   "init=lowband:0:1.0:2": "bad init descriptor",
                   "init=lowband:3:nan:2": "bad init descriptor",
                   "init=lowband:3:inf:2": "bad init descriptor",
                   "observables=l2,hx": "hx: expected h<alpha>",
                   "observables=l2,l3": "p=3: finite exponents must be even",
                   "observables=l0": "p=0: finite exponents must be even",
                   "observables=l2,h1,h1.0": "h1.0: repeats observable 'h1'"}

    @pytest.mark.parametrize("line", list(CONSTRAINTS))
    def test_constraint_error_exit_code(self, tmp_path, capsys, line):
        # the realized objects reject the config before any output exists
        cfg = self.write_cfg(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.CONSTRAINTS[line] in err
        assert not out.exists()

    def test_repeated_config_key_exit_code(self, tmp_path, capsys):
        # the second modes_x would otherwise win silently
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + "modes_x=16\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:9: modes_x already set on line 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "observables=l2,l3", "observables=l2,h1,h1.0"])
    def test_invariant_rejects_bad_observables(self, tmp_path, capsys, line):
        # invariant reads the same observables key as run
        cfg = self.write_cfg(tmp_path, line + "\n")
        out = tmp_path / "out"
        assert run_cli("invariant", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--horizons", "0.05") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.CONSTRAINTS[line] in err
        assert not out.exists()

    def test_invariant_rejects_no_observables(self, tmp_path, capsys):
        # nothing to average: rejected before any step or output
        cfg = self.write_cfg(tmp_path, "observables=\n")
        out = tmp_path / "out"
        assert run_cli("invariant", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--horizons", "0.05") == 2
        assert capsys.readouterr().err == "error: no observables to average\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, content", [
        ("missing.cfg", None), ("latin1.cfg", "gamma=0.5 # \xe9t\xe9\n")],
        ids=["missing", "not-utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, name,
                                         content):
        cfg = tmp_path / name
        if content is not None:
            cfg.write_bytes(content.encode("latin-1"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {cfg}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("galerkin", "--n-ladder"), ("viscosity", "--eps-ladder"),
        ("stability", "--delta-ladder"), ("invariant", "--horizons")],
        ids=lambda v: v.lstrip("-"))
    def test_bad_ladder_flag_exit_code(self, tmp_path, capsys, command, flag):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(out), flag, "4,x,8") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flag}: cannot parse '4,x,8'")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "run", "galerkin", "viscosity", "stability", "diagnose"])
    def test_negative_snap_every_exit_code(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--snap-every", "-1") == 2
        assert capsys.readouterr().err == \
            "error: snap_every must be >= 0\n"
        assert not out.exists()

    NON_FINITE = [("run", "dt=nan", []), ("run", "horizon=inf", []),
                  ("run", "lambda1=nan", []), ("run", "sigma=nan", []),
                  ("run", "cfl_safety=nan", []),
                  ("tightness", "", ["--horizon", "inf"]),
                  ("tightness", "", ["--horizon", "nan"]),
                  ("tightness", "", ["--rate", "nan"]),
                  ("stability", "", ["--delta-ladder", "nan,0.1,0.01"]),
                  ("viscosity", "", ["--eps-ladder", "nan,0.1,0.05"]),
                  ("invariant", "", ["--horizons", "0.05,inf"])]

    @pytest.mark.parametrize(
        "command, line, flags", NON_FINITE,
        ids=[f"{c}-{line or '='.join(flags)}" for c, line, flags in NON_FINITE])
    def test_non_finite_number_rejected(self, tmp_path, capsys, command,
                                        line, flags):
        # a config value names its key and line; a flag value its flag
        cfg = self.write_cfg(tmp_path, line + "\n" if line else "")
        out = tmp_path / "out"
        try:
            code = run_cli(command, "--config", str(cfg), "--seed", "1",
                           "--out", str(out), *flags)
        except SystemExit as exit_:         # argparse rejects a flag value
            code = exit_.code
        assert code == 2
        err = capsys.readouterr().err
        named = f":9: {line.partition('=')[0]}=" if line else flags[0]
        assert named in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "galerkin", "viscosity",
                                         "stability", "invariant",
                                         "tightness", "diagnose"])
    def test_thread_count_below_one_rejected(self, tmp_path, capsys,
                                             command):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        for value in ("0", "-1", "x"):
            with pytest.raises(SystemExit) as exit_:
                run_cli(command, "--config", str(cfg), "--seed", "1",
                        "--out", str(out), "--threads", value)
            assert exit_.value.code == 2
            assert (f"error: argument --threads: needs an integer >= 1: "
                    f"'{value}'") in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "galerkin", "viscosity",
                                         "stability", "invariant",
                                         "tightness", "diagnose"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # the config rejects it before any noise is drawn or output exists
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.01\nhorizon=0.05\nnoise_modes=16\n")
        out = tmp_path / "out"
        flags = ["--horizons", "0.05"] if command == "invariant" else []
        assert run_cli(command, "--config", str(cfg), "--seed", "-1",
                       "--out", str(out), *flags) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_blow_up_exit_code(self, tmp_path):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=0\n"
                       "dt=0.01\nhorizon=0.1\ninit=mode:1,1:1e200,0,0\n"
                       "cfl_safety=0\nnoise_modes=8\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 3

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    def test_cfl_abort_leaves_a_record(self, tmp_path, command):
        # the adaptive CFL guard trips in the first step, as in
        # test_adaptive_cfl_trips; the run stops with exit code 2
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text("modes_x=16\nmodes_y=16\ngamma=0.5\nsigma=0\n"
                       "dt=0.01\nhorizon=0.05\ninit=mode:1,1:2000,0,0\n"
                       "noise_modes=16\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        abort = manifest["abort"]
        assert "CFL" in abort["reason"]
        assert abort["time"] == 0.0
        assert abort["umax"] > 0
        assert 0 < abort["dt_ceiling"] < 0.01
        artifacts = [a["path"] for a in manifest["artifacts"]]
        if command == "run":
            assert artifacts == ["series.csv"]
            rows = (out / "series.csv").read_text().strip().split("\n")
            assert rows[0].startswith("time,") and len(rows) == 2
        else:
            assert artifacts == []

    def test_diagnose_blow_up_writes_manifest(self, tmp_path):
        cfg = tmp_path / "blow.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=0\n"
                       "dt=0.01\nhorizon=0.1\ninit=mode:1,1:1e200,0,0\n"
                       "cfl_safety=0\nnoise_modes=8\n")
        out = tmp_path / "out"
        assert run_cli("diagnose", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 3
        abort = json.loads((out / "manifest.json").read_text())["abort"]
        assert abort["time"] == 0.0 and "overflow" in abort["reason"]

    def test_diagnose_needs_three_samples(self, tmp_path, capsys,
                                          monkeypatch):
        # one step gives two samples, too few for the weak residual's
        # quadrature: rejected before any step, with no output directory
        def no_run(*args, **kwargs):
            raise AssertionError("stepped a run it then rejects")

        monkeypatch.setattr("layerqg.cli.run_trajectory", no_run)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\nsigma=1.0\ndt=0.01\n"
                       "horizon=0.01\nnoise_modes=16\n"
                       "init=lowband:3:1.0:2\n")
        out = tmp_path / "out"
        assert run_cli("diagnose", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 3 samples" in err
        assert not out.exists()

    # VmHWM is the peak of this program image alone: the ru_maxrss of a
    # child also counts the test process's pages it held before its exec,
    # which hides any growth below the test process's own size
    PEAK_SCRIPT = textwrap.dedent("""
        import sys
        from layerqg.cli import main
        assert main(sys.argv[1:]) == 0
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh
                       if line.startswith("VmHWM:")))
        """)

    @classmethod
    def _peak_mb(cls, tmp_path, command, flags, configs):
        """Peak RSS (VmHWM) in MiB of `command` with `flags`, one fresh
        process with BLAS on one thread per config text; run i writes to
        tmp_path/out<i>."""
        peak_mb = []
        for i, text in enumerate(configs):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-c", cls.PEAK_SCRIPT, command, "--config",
                 str(cfg), *flags, "--out", str(tmp_path / f"out{i}")],
                env=dict(os.environ, PYTHONPATH=str(SRC),
                         OPENBLAS_NUM_THREADS="1"),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            peak_mb.append(int(proc.stdout) / 1024)
        return peak_mb

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    def test_diagnose_memory_does_not_grow_with_the_samples(self, tmp_path):
        # the monitor series are scalars per sample; stored q and W
        # snapshots of 300 more samples at N=32 would add 14 MB, and
        # stacking them into records about as much again
        counts = (100, 400)
        peak_mb = self._peak_mb(tmp_path, "diagnose", [], [
            "modes_x=32\nmodes_y=32\nsigma=2.0\nnoise_modes=48\ndt=0.001\n"
            f"horizon={(samples - 1) / 1000:g}\ninit=lowband:3:1.0:7\n"
            for samples in counts])
        for i, samples in enumerate(counts):
            rows = (tmp_path / f"out{i}" / "diagnostics.csv"
                    ).read_text().strip().split("\n")
            assert len(rows) == 1 + samples
        assert abs(peak_mb[1] - peak_mb[0]) < 3.0, peak_mb

    @classmethod
    def _peak_mb_per_sample_count(cls, tmp_path, command, flags):
        # peak RSS of `command` at N=32 with 1000 and with 2000 samples
        counts = (1000, 2000)
        peak_mb = cls._peak_mb(tmp_path, command, flags, [
            "modes_x=32\nmodes_y=32\nsigma=1.0\nnoise_modes=32\n"
            f"nonlinearity=off\ndt=0.001\nhorizon={(samples - 1) / 1000:g}\n"
            "init=lowband:3:1.0:7\nobservables=l2\n" for samples in counts])
        if command == "run":
            for i, samples in enumerate(counts):
                assert len(list((tmp_path / f"out{i}").glob(
                    "snapshot_*.lqg"))) == samples
        return peak_mb

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    def test_run_snapshots_keep_q_alone(self, tmp_path):
        # each snapshot is written when it is taken, so 1000 more snapshots
        # at N=32 add no field: stored, their q coefficients would be
        # 23.4 MiB.  What grows is the artifact list, kept as names, and
        # the sample times: 0.22 to 0.50 MiB measured.  The manifest's
        # entries are made and written one at a time; held as a list of
        # dicts they grew it to 0.56-0.58 MiB
        peak_mb = self._peak_mb_per_sample_count(
            tmp_path, "run", ["--snap-every", "1"])
        assert peak_mb[1] - peak_mb[0] < 0.75, peak_mb

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    @pytest.mark.parametrize("command, flags", [
        ("galerkin", ["--n-ladder", "8,16,32", "--snap-every", "1"]),
        ("stability", ["--snap-every", "1"])])
    def test_ladder_samples_keep_no_field(self, tmp_path, command, flags):
        # each sample is folded into a running result when it is taken, so
        # 1000 more samples at N=32 add no field: stored, their q
        # coefficients would be 23.4 MiB per path and rung
        peak_mb = self._peak_mb_per_sample_count(tmp_path, command, flags)
        assert peak_mb[1] - peak_mb[0] < 3.0, peak_mb

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads VmHWM from /proc/self/status")
    @pytest.mark.parametrize("command, flags", [
        ("galerkin", ["--n-ladder", "16,20,24"]),
        ("viscosity", ["--eps-ladder", "0.2,0.1,0.05"]),
        ("stability", [])])
    def test_ladder_memory_does_not_grow_with_the_horizon(
            self, tmp_path, command, flags):
        # every rung draws stream 0 in the loop: a pregenerated path of
        # the 4000 more steps' K=192 normals, and its weighted copy, would
        # add 11.7 MiB
        peak_mb = self._peak_mb(tmp_path, command, [
            *flags, "--snap-every", "500"], [
            "modes_x=16\nmodes_y=16\nsigma=1.0\nnoise_modes=192\n"
            f"nonlinearity=off\ndt=0.001\nhorizon={horizon}\n"
            "init=lowband:3:1.0:7\nobservables=l2\n" for horizon in (2, 6)])
        assert abs(peak_mb[1] - peak_mb[0]) < 3.0, peak_mb

    @pytest.mark.parametrize("command, cfg, flags", [
        ("galerkin", "modes_x=16\nmodes_y=16\ninit=mode:1,1:2000,0,0\n",
         ["--n-ladder", "4,6,8"]),
        ("viscosity", "modes_x=16\nmodes_y=16\ninit=mode:1,1:2000,0,0\n",
         ["--eps-ladder", "0.2,0.1,0.05"]),
        ("tightness", "modes_x=12\nmodes_y=12\nsigma=1e6\n",
         ["--horizon", "1"]),
        ("stability", "modes_x=16\nmodes_y=16\ninit=mode:1,1:2000,0,0\n",
         ["--delta-ladder", "0.1,0.01"])])
    def test_cfl_abort_leaves_a_manifest(self, tmp_path, command, cfg, flags):
        # a sweep rung, the stability batch or the tightness run trips the
        # adaptive CFL guard; the command still writes a manifest that
        # says so, with the earliest abort time of the lockstepped runs
        path = tmp_path / "cfl.cfg"
        path.write_text(cfg + "dt=0.01\nnoise_modes=8\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--seed", "1",
                       "--out", str(out), *flags) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        abort = manifest["abort"]
        assert "CFL" in abort["reason"]
        assert abort["time"] >= 0.0
        assert abort["umax"] > 0
        assert 0 < abort["dt_ceiling"] < 0.01
        assert re.fullmatch("[0-9a-f]{16}", manifest["config_hash"])

    def test_manifest_names_the_environment(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert sorted(env) == ["blas", "blas_threads", "blas_version",
                               "cpu_count", "numpy", "python"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] == os.cpu_count()

    def test_manifest_names_the_blas_threads(self, tmp_path):
        # the count BLAS runs with, which a variable set after start-up
        # does not change
        cfg = self.write_cfg(tmp_path)
        script = textwrap.dedent(f"""
            import json, os, sys
            from layerqg import dynamics
            from layerqg.cli import main
            os.environ["OPENBLAS_NUM_THREADS"] = "3"
            assert main(["run", "--config", {str(cfg)!r},
                         "--out", sys.argv[1]]) == 0
            print(json.dumps(dynamics._blas_threads()))
            """)
        for blas in ("1", "2"):
            out = tmp_path / f"out{blas}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", script, str(out)],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            live = json.loads(proc.stdout)
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["blas_threads"] == live
            if dynamics._openblas_thread_query() is not None:
                assert live == int(blas)

    def test_galerkin_manifest_explains_the_run(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.01\nhorizon=0.05\ninit=lowband:2:1.0:2\n"
                       "noise_modes=4\n")
        out = tmp_path / "out"
        assert run_cli("galerkin", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--n-ladder", "4,6,8") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runtimes = manifest["runtimes"]
        assert len(runtimes) == 3 and all(t > 0 for t in runtimes)
        assert re.fullmatch("[0-9a-f]{16}", manifest["config_hash"])

    def test_cli_runs_on_numpy_alone(self, tmp_path):
        # a fresh interpreter imports the CLI, runs a tiny nonlinear
        # noisy `run` and `invariant`, and never loads SciPy
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.01\nhorizon=0.05\ninit=lowband:3:1.0:2\n"
                       "noise_modes=16\n")
        script = textwrap.dedent(f"""
            import sys
            from layerqg.cli import _environment, build_parser, main
            for argv in (["run", "--out", {str(tmp_path / "run")!r}],
                         ["invariant", "--out", {str(tmp_path / "inv")!r},
                          "--horizons", "0.05", "--paths", "2"]):
                assert main(argv + ["--config", {str(cfg)!r}]) == 0, argv
            print(sorted(m for m in sys.modules
                         if m.partition(".")[0] == "scipy"))
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "inv" / "invariant.csv").exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are glibc settings")
    def test_repeated_run_reuses_heap_pages(self, tmp_path):
        # a time step at N=64 frees about 25 grids of 400 KB; they must be
        # reused from the heap, not returned to the OS and faulted back in
        # (about a thousand page faults per step)
        cfg = tmp_path / "n64.cfg"
        cfg.write_text("modes_x=64\nmodes_y=64\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.001\nhorizon=0.01\ninit=lowband:4:1.0:2\n")
        argv = ("run", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "out"))
        assert run_cli(*argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(*argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt \
            - before < 1000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are glibc settings")
    def test_library_runs_reuse_heap_pages(self):
        # the stepping loop applies the CLI's heap settings itself, so a
        # library caller in a fresh interpreter gets them too
        script = textwrap.dedent("""
            import resource
            from layerqg.dynamics import run_trajectory
            from layerqg.runconfig import RunSettings, realize
            config = realize(RunSettings(
                modes_x=64, modes_y=64, sigma=1.0, dt=0.001, horizon=0.01,
                init="lowband:4:1.0:2"), seed=1)
            run_trajectory(config)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_trajectory(config)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    def test_diagnose_outputs(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\ngamma=0.5\nsigma=1.0\n"
                       "dt=0.005\nhorizon=0.1\ninit=lowband:3:1.0:2\n"
                       "noise_modes=16\n")
        out = tmp_path / "out"
        assert run_cli("diagnose", "--config", str(cfg), "--seed", "1",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["l2_dominated"] and manifest["l4_dominated"]
        header = (out / "diagnostics.csv").read_text().split("\n")[0]
        assert "weak_residual" in header

    @pytest.mark.parametrize("sigma, dominated", [(1.0, True),
                                                   (1e6, None)])
    def test_tightness_manifest_reports_theta_dominated(self, tmp_path,
                                                        sigma, dominated):
        # the report's verdict, or null when the envelope is uninformative
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"modes_x=8\nmodes_y=8\nsigma={sigma}\n"
                       "noise_modes=24\nnonlinearity=off\ndt=0.005\n")
        out = tmp_path / "out"
        assert run_cli("tightness", "--config", str(cfg), "--seed", "4",
                       "--out", str(out), "--rate", "2",
                       "--horizon", "0.5") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = tightness_diagnostic(
            realize(parse_config(cfg)[0], seed=4), rate=2.0, horizon=0.5)
        assert manifest["theta_dominated"] is report.theta_dominated
        assert manifest["theta_dominated"] is dominated
        assert manifest["envelope_uninformative"] is (dominated is None)

    def test_tightness_rejects_an_overflowing_ou_width(self, tmp_path,
                                                       capsys, monkeypatch):
        # c_k^2 overflows at sigma = 1e160 and leaves the OU width NaN: a
        # config error naming sigma and rate, raised before any step
        def no_step(*args):
            raise AssertionError("stepped with non-finite OU factors")

        monkeypatch.setattr(dynamics.Stepper, "advance", no_step)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\nsigma=1e160\n"
                       "noise_modes=24\nnonlinearity=off\ndt=0.005\n")
        out = tmp_path / "out"
        assert run_cli("tightness", "--config", str(cfg), "--seed", "4",
                       "--out", str(out), "--rate", "2",
                       "--horizon", "0.5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma and rate=2 ") and "OU" in err
        assert not out.exists()

    def test_repeated_calls_in_one_process_write_the_same_bytes(
            self, tmp_path):
        # the benchmark calls cli.main again and again in one process: no
        # stepper workspace or noise-mixer table may carry over a call
        cfg = self.write_cfg(tmp_path, "modes_x=8\nmodes_y=8\nsigma=1.0\n"
                             "nonlinearity=on\ninit=lowband:3:1.0:2\n"
                             "noise_modes=16\n")
        calls = {"tightness": ("tightness", "--seed", "4", "--rate", "2",
                               "--horizon", "0.2"),
                 "invariant": ("invariant", "--seed", "6", "--paths", "3",
                               "--horizons", "0.05,0.1")}

        def outputs(name):
            out = tmp_path / name
            assert run_cli(*calls[name], "--config", str(cfg), "--out",
                           str(out)) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            shutil.rmtree(out)
            return files

        first = {name: outputs(name) for name in calls}
        assert first == {name: outputs(name) for name in calls}

    def test_reused_parser_writes_first_call_bytes(self, tmp_path):
        # the argparse tree is built once per process: after parsing other
        # commands and flags it must give each command the bytes, manifest
        # included, of a call that builds the tree afresh
        cfg = self.write_cfg(tmp_path, "sigma=1.0\nnonlinearity=on\n"
                             "init=lowband:3:1.0:2\n")
        calls = {"run": ("run", "--seed", "3", "--snap-every", "5"),
                 "tightness": ("tightness", "--seed", "4", "--rate", "2",
                               "--horizon", "0.1"),
                 "run_again": ("run", "--seed", "5", "--threads", "2")}

        def outputs(name, argv):
            out = tmp_path / name
            assert run_cli(*argv, "--config", str(cfg), "--out",
                           str(out)) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            shutil.rmtree(out)
            return files

        reused = {name: outputs(name, argv) for name, argv in calls.items()}
        for name, argv in calls.items():
            build_parser.cache_clear()
            assert outputs(name, argv) == reused[name], name
