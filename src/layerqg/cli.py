"""Command-line entry points.

Subcommands: run, galerkin, viscosity, stability, invariant, tightness,
diagnose.  Every run writes a manifest (resolved config echo and hash,
master seed, version, artifact checksums); numbers in CSVs are printed
with 17 significant digits so parsing them back reproduces the exact
doubles.  Exit codes: 0 success, 2 constraint error or CFL abort, 3
blow-up; a `run` or `diagnose` stopped by a CFL abort or a blow-up still
writes what it has (the partial `series.csv` of `run`) and a manifest
whose `abort` block says when and why.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, rng as rngmod
from .dynamics import parse_observables, run_trajectory
from .errors import (BlowUpError, ConfigurationError, TimeStepError)
from .experiments import (galerkin_sweep, log_estimate_monitor, lp_envelope,
                          viscosity_sweep, w14_monitor, weak_residual,
                          yudovich_stability)
from .fieldio import write_field
from .measures import kb_average, tightness_diagnostic
from .runconfig import parse_config, realize
from .spectral import LayerField, single_mode_field

FMT = "{:.17g}"


def _fmt(x) -> str:
    return FMT.format(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out: Path, settings, defaulted, args, config, artifacts,
                    extra=None):
    manifest = {
        "version": f"layerqg {__version__}",
        "master_seed": args.seed,
        "rng_scheme": rngmod.SCHEME,
        "config": settings.echo(),
        "config_hash": config.config_hash(),
        "defaults_applied": sorted(defaulted),
        "flags": {k: v for k, v in vars(args).items()
                  if k not in ("func", "config")},
        "artifacts": [{"path": p.name, "sha256": _sha256(p)}
                      for p in sorted(artifacts)],
    }
    if extra:
        manifest.update(extra)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _stopped(out, settings, defaulted, args, config, artifacts, err):
    """Write the manifest of a run that a blow-up or a CFL abort stopped,
    with an `abort` block saying why; returns the exit code."""
    abort = {"reason": str(err), "time": err.time}
    if isinstance(err, TimeStepError):
        abort.update(umax=err.umax, dt_ceiling=err.ceiling)
    _write_manifest(out, settings, defaulted, args, config, artifacts,
                    {"abort": abort})
    if isinstance(err, BlowUpError):
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return 3
    print(f"error: {err}", file=sys.stderr)
    return 2


def _series_rows(record, names):
    for i, t in enumerate(record.times):
        yield [t] + [record.observables[n][i] for n in names]


def _common(parser):
    parser.add_argument("--config", required=True, help="key=value file")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1)


def _setup(args, snap_every=0):
    settings, defaulted = parse_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = realize(settings, args.seed, snap_every=snap_every)
    return settings, defaulted, out, config


def cmd_run(args):
    settings, defaulted, out, config = _setup(args, snap_every=args.snap_every)
    observables = parse_observables(settings.observables, config.pairs)
    artifacts = []
    stop = None
    try:
        record = run_trajectory(config, observables=observables)
    except (BlowUpError, TimeStepError) as err:
        record, stop = err.record, err
    names = [ob.name for ob in observables]
    series = out / "series.csv"
    _write_csv(series, ["time"] + names, _series_rows(record, names))
    artifacts.append(series)
    for i, t in enumerate(record.snap_times):
        snap = out / f"snapshot_{i:06d}.lqg"
        write_field(snap, LayerField.from_coeffs(config.basis,
                                                 record.q_snapshots[i]))
        artifacts.append(snap)
    if stop is not None:
        return _stopped(out, settings, defaulted, args, config, artifacts,
                        stop)
    _write_manifest(out, settings, defaulted, args, config, artifacts)
    return 0


def cmd_galerkin(args):
    settings, defaulted, out, config = _setup(args)
    ladder = [int(v) for v in args.n_ladder.split(",")]
    report = galerkin_sweep(config, ladder, snap_every=args.snap_every or 1,
                            threads=args.threads)
    path = out / "galerkin.csv"
    _write_csv(path, ["rungs", report.distance_name],
               [[label, d] for label, d in report.rows()])
    _write_manifest(out, settings, defaulted, args, config, [path], {
        "monotone_decreasing": report.monotone_decreasing,
        "first_violation": report.first_violation,
        "empirical_rate": report.empirical_rate,
        "runtimes": report.runtimes.tolist()})
    return 0


def cmd_viscosity(args):
    settings, defaulted, out, config = _setup(args)
    ladder = [float(v) for v in args.eps_ladder.split(",")]
    report = viscosity_sweep(config, ladder, snap_every=args.snap_every or 1,
                             threads=args.threads)
    path = out / "viscosity.csv"
    _write_csv(path, ["rungs", report.distance_name],
               [[label, d] for label, d in report.rows()])
    est = out / "viscosity_est2.csv"
    _write_csv(est, ["eps", "eps_l2h1"],
               zip(ladder, report.extras["est2"]))
    _write_manifest(out, settings, defaulted, args, config, [path, est], {
        "monotone_decreasing": report.monotone_decreasing,
        "first_violation": report.first_violation,
        "runtimes": report.runtimes.tolist()})
    return 0


def cmd_stability(args):
    settings, defaulted, out, config = _setup(args)
    ladder = [float(v) for v in args.delta_ladder.split(",")]
    pert = single_mode_field(config.basis, 1, 2, [1.0, -0.5, 0.25])
    report = yudovich_stability(config, ladder, pert,
                                snap_every=args.snap_every or 1,
                                threads=args.threads)
    path = out / "stability.csv"
    _write_csv(path, ["delta", "z_T", "max_step_jump"],
               zip(ladder, report.distances, report.extras["max_jump"]))
    _write_manifest(out, settings, defaulted, args, config, [path], {
        "z_decreasing": bool(np.all(np.diff(report.distances) < 0)),
        "runtimes": report.runtimes.tolist()})
    return 0


def cmd_invariant(args):
    settings, defaulted, out, config = _setup(args)
    horizons = [float(v) for v in args.horizons.split(",")]
    observables = parse_observables(settings.observables, config.pairs)
    measures = kb_average(config, horizons, observables, n_paths=args.paths)
    path = out / "invariant.csv"
    names = measures[0].names
    rows = []
    for m in measures:
        for name, mean, err in zip(m.names, m.means, m.stderrs):
            rows.append([m.horizon, name, mean, err])
    _write_csv(path, ["horizon", "observable", "mean", "stderr"], rows)
    _write_manifest(out, settings, defaulted, args, config, [path],
                    {"n_paths": args.paths, "observables": names})
    return 0


def cmd_tightness(args):
    settings, defaulted, out, config = _setup(args)
    report = tightness_diagnostic(config, rate=args.rate,
                                  horizon=args.horizon)
    frac = out / "tightness_fractions.csv"
    _write_csv(frac, ["radius", "fraction"],
               zip(report.radii, report.fractions))
    series = out / "tightness_series.csv"
    env = report.envelope if report.envelope is not None \
        else np.full_like(report.times, np.nan)
    _write_csv(series, ["time", "q_inf", "theta_inf", "zeta_h52", "envelope"],
               zip(report.times, report.q_inf_series,
                   report.theta_inf_series, report.zeta_norm_series, env))
    _write_manifest(out, settings, defaulted, args, config, [frac, series], {
        "sup_q_inf": report.sup_q_inf,
        "thirds": report.thirds.tolist(),
        "trend_ok": report.trend_ok,
        "envelope_uninformative": report.envelope_uninformative,
        "envelope_condition_held": report.envelope_condition_held})
    return 0


def cmd_diagnose(args):
    settings, defaulted, out, config = _setup(
        args, snap_every=args.snap_every or 1)
    try:
        record = run_trajectory(config, observables=[])
    except (BlowUpError, TimeStepError) as err:
        return _stopped(out, settings, defaulted, args, config, [], err)
    artifacts = []
    log_rep = log_estimate_monitor(record)
    w14 = w14_monitor(record)
    rows = []
    envs = {}
    for k in (1, 2):
        q_norm, env_q, _, _ = lp_envelope(record, k)
        envs[k] = (q_norm, env_q)
    phi = single_mode_field(config.basis, 1, 1, [1.0, 0.0, 0.0])
    resid = weak_residual(record, [phi])[0]
    for i, t in enumerate(record.snap_times):
        rows.append([t, log_rep.series[i], w14.series[i], w14.envelope[i],
                     envs[1][0][i], envs[1][1][i],
                     envs[2][0][i], envs[2][1][i], resid[i]])
    path = out / "diagnostics.csv"
    _write_csv(path, ["time", "log_ratio", "gradl4", "gradl4_envelope",
                      "l2", "l2_envelope", "l4", "l4_envelope",
                      "weak_residual"], rows)
    artifacts.append(path)
    _write_manifest(out, settings, defaulted, args, config, artifacts, {
        "log_ratio_max": log_rep.maximum,
        "w14_dominated": w14.dominated,
        "l2_dominated": bool(np.all(envs[1][0] <= envs[1][1] * (1 + 1e-9))),
        "l4_dominated": bool(np.all(envs[2][0] <= envs[2][1] * (1 + 1e-9)))})
    return 0


def build_parser():
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
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument("--horizon", type=float, default=100.0)
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("diagnose", help="monitors and envelopes for one run")
    _common(p)
    p.add_argument("--snap-every", type=int, default=1)
    p.set_defaults(func=cmd_diagnose)
    return parser


@functools.cache
def _keep_freed_heap():
    """Let glibc keep freed heap memory instead of returning it to the OS.

    A time step allocates and frees a few dozen grid arrays of
    3 (Gx+2)(Gy+2) doubles, 400 KB at N = 64.  Under glibc's adaptive
    defaults the heap top is trimmed whenever two of them are freed
    together, and the next step faults the same pages back in: about a
    thousand page faults per step, a quarter of the step's time at N = 64,
    and the part that varies most on a shared host.  Fixed thresholds
    (arrays under 32 MB on the heap, trim only past 64 MB free) keep those
    pages mapped.  Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def main(argv=None):
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, TimeStepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
