"""Command-line entry points.

Subcommands: run, galerkin, viscosity, stability, invariant, tightness,
diagnose.  Every run writes a manifest (resolved config echo and hash,
master seed, version, artifact checksums); numbers in CSVs are printed
with 17 significant digits so parsing them back reproduces the exact
doubles.  Exit codes: 0 success, 2 constraint error or CFL abort, 3
blow-up; a command stopped by a CFL abort or a blow-up still writes what
it has (the partial `series.csv` of `run` and the snapshots it took) and
a manifest whose `abort` block says when and why.  The manifest's
`environment` block names the Python, NumPy and BLAS versions, the BLAS
thread setting and the CPU count.
"""

from __future__ import annotations

# `dynamics` comes first: without cached bytecode its compile is the
# largest transient of the import, and made before NumPy and the
# modules below load it leaves the peak resident set as it was.
from .dynamics import (_blas_threads, _keep_freed_heap, parse_observables,
                       run_trajectory)

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, rng as rngmod
from .errors import (BlowUpError, ConfigurationError, TimeStepError)
from .fieldio import write_field
from .runconfig import parse_config, realize
from .spectral import LayerField, single_mode_field

# `measures`, `experiments` and `sweeps` are imported by the subcommands
# that run them, so no command pays for the others' imports.

FMT = "{:.17g}"
# Stands in for the manifest's artifact entries until they are written.
_ARTIFACTS = "\0artifacts"


def _fmt(x) -> str:
    return FMT.format(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@functools.cache
def _environment():
    """Interpreter, NumPy and BLAS versions, BLAS thread count and CPU
    count of this machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "cpu_count": os.cpu_count()}


def _config_snaps(args):
    """Snapshot cadence of the realized config: `run` writes the
    snapshots of its one trajectory; `diagnose` keeps its sample cadence
    there (at least every step), which `cmd_diagnose` moves to the
    observable cadence; the ladder studies sample at their own cadence."""
    if args.command == "run":
        return args.snap_every
    if args.command == "diagnose":
        return args.snap_every or 1
    return 0


def _finite_float(text):
    """A float flag's value: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number: {text!r}")
    return value


def _ladder(flag, text, cast):
    """The comma list `text` of a ladder flag, each value read by `cast`
    (`int` or `_finite_float`); a value that does not parse names the
    flag."""
    try:
        return [cast(v) for v in text.split(",")]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigurationError(f"{flag}: cannot parse {text!r}: {exc}")


class _Session:
    """One command: its settings, realized config, output directory and
    the names of the artifacts written there so far.  The directory is
    made at the first write, so a command rejected before it writes (a
    config or flag error) leaves none."""

    def __init__(self, args):
        self.args = args
        self.settings, self.defaulted = parse_config(args.config)
        self.config = realize(self.settings, args.seed,
                              snap_every=_config_snaps(args))
        self.out = Path(args.out)
        self.artifacts = []

    def path(self, name):
        """`name` in the output directory, which this makes if missing."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def csv(self, name, header, rows):
        _write_csv(self.path(name), header, rows)
        self.artifacts.append(name)

    def manifest(self, extra=None):
        args = self.args
        manifest = {
            "version": f"layerqg {__version__}",
            "master_seed": args.seed,
            "rng_scheme": rngmod.SCHEME,
            "config": self.settings.echo(),
            "config_hash": self.config.config_hash(),
            "defaults_applied": sorted(self.defaulted),
            "environment": _environment(),
            "flags": {k: v for k, v in vars(args).items()
                      if k not in ("func", "config")},
            "artifacts": _ARTIFACTS,
        }
        if extra:
            manifest.update(extra)
        # streamed: no string of the whole manifest is built, and the
        # artifact entries are made, hashed and written one at a time
        # where the encoder meets their placeholder
        placeholder = json.dumps(_ARTIFACTS)
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        with self.path("manifest.json").open("w") as fh:
            for chunk in encoder.iterencode(manifest):
                if chunk == placeholder:
                    self._write_artifacts(fh)
                else:
                    fh.write(chunk)
            fh.write("\n")

    def _write_artifacts(self, fh):
        """The manifest's `artifacts` list of {path, sha256} entries, laid
        out as `json.dump` with indent 2 lays out a list under a top-level
        key."""
        opening = "["
        for name in sorted(self.artifacts):
            entry = json.dumps({"path": name,
                                "sha256": _sha256(self.out / name)},
                               indent=2, sort_keys=True)
            fh.write(opening + "\n    " + entry.replace("\n", "\n    "))
            opening = ","
        fh.write("[]" if opening == "[" else "\n  ]")

    def stopped(self, err):
        """Write the manifest of a command that a blow-up or a CFL abort
        stopped, with an `abort` block saying why; returns the exit code."""
        abort = {"reason": str(err), "time": err.time}
        if isinstance(err, TimeStepError):
            abort.update(umax=err.umax, dt_ceiling=err.ceiling)
        self.manifest({"abort": abort})
        if isinstance(err, BlowUpError):
            print(f"blow-up at t={err.time}", file=sys.stderr)
            return 3
        print(f"error: {err}", file=sys.stderr)
        return 2


def _thread_count(text):
    """A `--threads` value: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1: {text!r}")
    return int(text)


def _common(parser):
    parser.add_argument("--config", required=True, help="key=value file")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--threads", type=_thread_count, default=1, metavar="K",
        help="invariant: fan its path batches out over K threads when BLAS "
             "runs on one thread; the other subcommands accept and ignore it")


def cmd_run(run):
    config = run.config
    observables = parse_observables(run.settings.observables, config.pairs)

    def snapshot(t, q):         # the artifacts so far are the snapshots
        name = f"snapshot_{len(run.artifacts):06d}.lqg"
        write_field(run.path(name), LayerField.from_coeffs(config.basis, q[0]))
        run.artifacts.append(name)

    try:
        record = run_trajectory(config, observables=observables,
                                sink=snapshot)
    except (BlowUpError, TimeStepError) as err:
        record, stop = err.record, err
    else:
        stop = None
    names = [ob.name for ob in observables]
    run.csv("series.csv", ["time"] + names,
            ([t] + [record.observables[n][i] for n in names]
             for i, t in enumerate(record.times)))
    if stop is not None:
        raise stop
    run.manifest()


def cmd_galerkin(run):
    from .sweeps import galerkin_sweep

    args = run.args
    ladder = _ladder("--n-ladder", args.n_ladder, int)
    report = galerkin_sweep(run.config, ladder,
                            snap_every=args.snap_every or 1)
    run.csv("galerkin.csv", ["rungs", report.distance_name],
            [[label, d] for label, d in report.rows()])
    run.manifest({
        "monotone_decreasing": report.monotone_decreasing,
        "first_violation": report.first_violation,
        "empirical_rate": report.empirical_rate,
        "runtimes": report.runtimes.tolist()})


def cmd_viscosity(run):
    from .sweeps import viscosity_sweep

    args = run.args
    ladder = _ladder("--eps-ladder", args.eps_ladder, _finite_float)
    report = viscosity_sweep(run.config, ladder,
                             snap_every=args.snap_every or 1)
    run.csv("viscosity.csv", ["rungs", report.distance_name],
            [[label, d] for label, d in report.rows()])
    run.csv("viscosity_est2.csv", ["eps", "eps_l2h1"],
            zip(ladder, report.extras["est2"]))
    run.manifest({
        "monotone_decreasing": report.monotone_decreasing,
        "first_violation": report.first_violation,
        "runtimes": report.runtimes.tolist()})


def cmd_stability(run):
    from .sweeps import yudovich_stability

    args = run.args
    ladder = _ladder("--delta-ladder", args.delta_ladder, _finite_float)
    pert = single_mode_field(run.config.basis, 1, 2, [1.0, -0.5, 0.25])
    report = yudovich_stability(run.config, ladder, pert,
                                snap_every=args.snap_every or 1)
    run.csv("stability.csv", ["delta", "z_T", "max_step_jump"],
            zip(ladder, report.distances, report.extras["max_jump"]))
    run.manifest({
        "z_decreasing": bool(np.all(np.diff(report.distances) < 0))})


def cmd_invariant(run):
    from .measures import kb_average

    args = run.args
    horizons = _ladder("--horizons", args.horizons, _finite_float)
    observables = parse_observables(run.settings.observables,
                                    run.config.pairs)
    measures = kb_average(run.config, horizons, observables,
                          n_paths=args.paths, threads=args.threads)
    rows = [[m.horizon, name, mean, err] for m in measures
            for name, mean, err in zip(m.names, m.means, m.stderrs)]
    run.csv("invariant.csv", ["horizon", "observable", "mean", "stderr"],
            rows)
    run.manifest({"n_paths": args.paths,
                         "observables": measures[0].names})


def cmd_tightness(run):
    from .measures import tightness_diagnostic

    report = tightness_diagnostic(run.config, rate=run.args.rate,
                                  horizon=run.args.horizon)
    run.csv("tightness_fractions.csv", ["radius", "fraction"],
            zip(report.radii, report.fractions))
    env = report.envelope if report.envelope is not None \
        else np.full_like(report.times, np.nan)
    run.csv("tightness_series.csv",
            ["time", "q_inf", "theta_inf", "zeta_h52", "envelope"],
            zip(report.times, report.q_inf_series,
                report.theta_inf_series, report.zeta_norm_series, env))
    run.manifest({
        "sup_q_inf": report.sup_q_inf,
        "thirds": report.thirds.tolist(),
        "trend_ok": report.trend_ok,
        "envelope_uninformative": report.envelope_uninformative,
        "envelope_condition_held": report.envelope_condition_held,
        "theta_dominated": report.theta_dominated})


def cmd_diagnose(run):
    from .experiments import (MIN_SAMPLES, dominated, log_estimate_monitor,
                              lp_envelope, monitor_observables, w14_monitor,
                              weak_residual)

    cadence = run.config.snap_every
    config = replace(run.config, obs_every=cadence)
    samples = config.n_samples(cadence)
    if samples < MIN_SAMPLES:
        raise ConfigurationError(
            f"diagnose needs at least {MIN_SAMPLES} samples, got {samples} "
            f"from {config.n_steps} steps at --snap-every {cadence}")
    phi = single_mode_field(config.basis, 1, 1, [1.0, 0.0, 0.0])
    # the loop evaluates every series of the four monitors at each sample
    record = run_trajectory(config, observables=monitor_observables(
        config.basis, exponents=(2, 4), test_functions=[phi]))
    log_rep = log_estimate_monitor(record)
    w14 = w14_monitor(record)
    rows = []
    envs = {}
    for k in (1, 2):
        q_norm, env_q, _, _ = lp_envelope(record, k)
        envs[k] = (q_norm, env_q)
    resid = weak_residual(record, [phi])[0]
    for i, t in enumerate(record.times):
        rows.append([t, log_rep.series[i], w14.series[i], w14.envelope[i],
                     envs[1][0][i], envs[1][1][i],
                     envs[2][0][i], envs[2][1][i], resid[i]])
    run.csv("diagnostics.csv", ["time", "log_ratio", "gradl4",
                                "gradl4_envelope", "l2", "l2_envelope",
                                "l4", "l4_envelope", "weak_residual"], rows)
    run.manifest({
        "log_ratio_max": log_rep.maximum,
        "w14_dominated": w14.dominated,
        "l2_dominated": dominated(*envs[1]),
        "l4_dominated": dominated(*envs[2])})


@functools.cache
def build_parser():
    """The argparse tree, built once per process: parsing leaves it as it
    was, and no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="layerqg",
        description="Damped stochastic 3-layer quasi-geostrophic experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single trajectory, CSV series")
    _common(p)
    p.add_argument("--snap-every", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("galerkin", help="mode-refinement study")
    _common(p)
    p.add_argument("--n-ladder", default="16,32,64")
    p.add_argument("--snap-every", type=int, default=0)
    p.set_defaults(func=cmd_galerkin)

    p = sub.add_parser("viscosity", help="vanishing-viscosity study")
    _common(p)
    p.add_argument("--eps-ladder", default="0.2,0.1,0.05,0.025")
    p.add_argument("--snap-every", type=int, default=0)
    p.set_defaults(func=cmd_viscosity)

    p = sub.add_parser("stability", help="perturbation-growth study")
    _common(p)
    p.add_argument("--delta-ladder", default="0.1,0.01,0.001")
    p.add_argument("--snap-every", type=int, default=0)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("invariant", help="time-averaged observables")
    _common(p)
    p.add_argument("--horizons", default="50,100,200")
    p.add_argument("--paths", type=int, default=4)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("tightness", help="long-run confinement diagnostic")
    _common(p)
    p.add_argument("--rate", type=_finite_float, default=2.0)
    p.add_argument("--horizon", type=_finite_float, default=100.0)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("diagnose", help="monitors and envelopes for one run")
    _common(p)
    p.add_argument("--snap-every", type=int, default=1,
                   help="sample cadence of the monitor series, in steps "
                        "(0 samples every step)")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        run = _Session(args)
        try:
            args.func(run)
        except (BlowUpError, TimeStepError) as err:
            return run.stopped(err)
        return 0
    except (ConfigurationError, TimeStepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
