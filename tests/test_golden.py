"""Golden outputs: nine small canonical runs against stored exact values.

The values in golden.json were written by `python tests/test_golden.py`
(`python tests/test_golden.py RUN ...` rewrites only the named runs) and
are compared with the declared tolerance

    |a - b| <= GOLDEN_TOL * max(1, max |column|)

per stored column.  A refactor that moves numbers beyond it must say so
and regenerate the file deliberately.  `python tests/test_golden.py
--drift` computes every run, writes nothing, and prints per run and
column the largest |got - stored| and how many values are not bitwise
equal, and ends with one line naming the worst scaled drift of all runs,
so a refactor can declare the moves that stay inside it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from layerqg.dynamics import parse_observables, run_trajectory
from layerqg.experiments import (log_estimate_monitor, lp_envelope,
                                 monitor_observables, w14_monitor,
                                 weak_residual)
from layerqg.measures import kb_average, tightness_diagnostic
from layerqg.runconfig import RunSettings, realize
from layerqg.spectral import single_mode_field
from layerqg.sweeps import (galerkin_sweep, viscosity_sweep,
                            yudovich_stability)

from conftest import run_with_snapshots

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_TOL = 1e-12
OBSERVABLES = "l2,l4,linf,h1,gradl4,pair:1.1.0"


def _trajectory(**settings):
    config = realize(RunSettings(**settings), seed=11, snap_every=10)
    obs = parse_observables(OBSERVABLES, config.pairs)
    (rec,), _, q = run_with_snapshots(config, observables=obs)
    out = {"time": rec.times.tolist()}
    out.update({name: series.tolist()
                for name, series in rec.observables.items()})
    out["final_q"] = q[-1, 0].ravel()[::7].tolist()
    return out


def _galerkin():
    config = realize(RunSettings(modes_x=8, modes_y=8, dt=2e-3, horizon=0.04,
                                 init="lowband:4:3.0:5", noise_modes=12),
                     seed=3)
    report = galerkin_sweep(config, [8, 12, 16], snap_every=5)
    return {"distances": report.distances.tolist()}


def _viscosity():
    config = realize(RunSettings(modes_x=8, modes_y=8, dt=2e-3, horizon=0.04,
                                 init="lowband:4:3.0:5", noise_modes=12),
                     seed=3)
    report = viscosity_sweep(config, [0.2, 0.1, 0.05], snap_every=5)
    return {"distances": report.distances.tolist(),
            "est2": report.extras["est2"].tolist()}


def _stability():
    """z_T, the largest step jump and every z series of a three-delta
    ladder from a nonzero datum."""
    config = realize(RunSettings(modes_x=8, modes_y=8, dt=2e-3, horizon=0.04,
                                 init="lowband:4:3.0:5", noise_modes=12),
                     seed=3)
    pert = single_mode_field(config.basis, 1, 2, [1.0, -0.5, 0.25])
    report = yudovich_stability(config, [0.1, 0.01, 0.001], pert,
                                snap_every=5)
    return {"times": report.extras["times"].tolist(),
            "z_T": report.distances.tolist(),
            "max_jump": report.extras["max_jump"].tolist(),
            "z_series": np.concatenate(report.extras["z_series"]).tolist()}


def _diagnose():
    """Every series of the four monitors and the weak residual."""
    config = realize(RunSettings(modes_x=16, modes_y=16, sigma=2.0,
                                 noise_modes=48, dt=1e-3, horizon=0.03,
                                 init="lowband:3:1.0:7", obs_every=2),
                     seed=13)
    phi = single_mode_field(config.basis, 1, 2, [1.0, -0.5, 0.25])
    rec = run_trajectory(config, observables=monitor_observables(
        config.basis, exponents=(2, 4), test_functions=[phi]))
    w14 = w14_monitor(rec)
    out = {"time": rec.times.tolist(),
           "log_ratio": log_estimate_monitor(rec).series.tolist(),
           "gradl4": w14.series.tolist(),
           "gradl4_envelope": w14.envelope.tolist()}
    for k in (1, 2):
        names = (f"l{2 * k}", f"l{2 * k}_envelope", f"eta_l{2 * k}",
                 f"eta_l{2 * k}_envelope")
        out.update({name: series.tolist() for name, series
                    in zip(names, lp_envelope(rec, k))})
    out["weak_residual"] = weak_residual(rec, [phi])[0].tolist()
    return out


def _tightness():
    """The three series of the confinement run with its coupled OU state."""
    config = realize(RunSettings(modes_x=8, modes_y=8, sigma=2.0,
                                 noise_modes=24, dt=5e-3, horizon=0.5),
                     seed=17)
    report = tightness_diagnostic(config, rate=2.0, horizon=0.5)
    return {"q_inf": report.q_inf_series.tolist(),
            "theta_inf": report.theta_inf_series.tolist(),
            "zeta_norm": report.zeta_norm_series.tolist()}


def _invariant():
    """Time averages and their standard errors of a five-path linear
    ensemble at two horizons, over pairings, squared pairings and l2."""
    config = realize(RunSettings(modes_x=8, modes_y=8, nonlinearity="off",
                                 sigma=2.0, noise_modes=24, dt=5e-3,
                                 horizon=0.5, obs_every=2),
                     seed=19)
    obs = parse_observables("pairsq:1.1.0,pairsq:1.2.1,pair:2.1.0,"
                            "pairsq:2.2.2,l2", config.pairs)
    measures = kb_average(config, [0.25, 0.5], obs, n_paths=5)
    return {"means": np.concatenate([m.means for m in measures]).tolist(),
            "stderrs": np.concatenate([m.stderrs for m in measures]).tolist()}


RUNS = {
    "linear_n8": lambda: _trajectory(
        modes_x=8, modes_y=8, nonlinearity="off", dt=2e-3, horizon=0.1,
        init="lowband:4:2.0:1", obs_every=5),
    "nonlinear_inviscid_n16": lambda: _trajectory(
        modes_x=16, modes_y=16, dt=1e-3, horizon=0.05,
        init="lowband:6:8.0:2", obs_every=5),
    "nonlinear_viscous_n16": lambda: _trajectory(
        modes_x=16, modes_y=16, viscosity=0.1, dt=1e-3, horizon=0.05,
        init="lowband:6:8.0:2", obs_every=5),
    "galerkin_sweep_8_12_16": _galerkin,
    "viscosity_n8": _viscosity,
    "stability_n8": _stability,
    "diagnose_n16": _diagnose,
    "tightness_n8": _tightness,
    "invariant_linear_n8": _invariant,
}


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_golden_run(run):
    expected = _golden()[run]
    actual = RUNS[run]()
    assert sorted(actual) == sorted(expected)
    for column, want in expected.items():
        want = np.asarray(want, dtype=float)
        got = np.asarray(actual[column], dtype=float)
        assert got.shape == want.shape, column
        tol = GOLDEN_TOL * max(1.0, float(np.max(np.abs(want))))
        drift = float(np.max(np.abs(got - want)))
        assert drift <= tol, f"{run}/{column}: drift {drift:.3e} > {tol:.3e}"


def _write_golden(only=()):
    """Rewrite golden.json; with run names, recompute only those runs and
    keep the stored values of the others."""
    stored = _golden() if only else {}
    lines = ["{"]
    names = sorted(RUNS)
    for i, run in enumerate(names):
        columns = (RUNS[run]() if not only or run in only
                   else stored[run])
        lines.append(f'  "{run}": {{')
        for j, (column, values) in enumerate(columns.items()):
            body = ", ".join(f"{v:.17g}" for v in values)
            tail = "," if j < len(columns) - 1 else ""
            lines.append(f'    "{column}": [{body}]{tail}')
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    lines.append("}")
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")


def _report_drift():
    """Compute every run against golden.json and write nothing: per run
    and column, the largest |got - stored|, that over the column's scale
    max(1, max |stored|), and how many values are not bitwise equal; then
    one line naming the worst scaled drift of all and its run/column."""
    stored = _golden()
    worst = (-1.0, "")
    for run in sorted(RUNS):
        actual = RUNS[run]()
        for column, want in stored[run].items():
            want = np.asarray(want, dtype=float)
            got = np.asarray(actual[column], dtype=float)
            drift = float(np.max(np.abs(got - want)))
            scale = max(1.0, float(np.max(np.abs(want))))
            moved = int(np.count_nonzero(got != want))
            print(f"{run}/{column}: drift {drift:.3e} scaled "
                  f"{drift / scale:.3e}, {moved} of {want.size} not "
                  f"bitwise equal")
            worst = max(worst, (drift / scale, f"{run}/{column}"))
    print(f"worst scaled drift {worst[0]:.3e} at {worst[1]} "
          f"(tolerance {GOLDEN_TOL:.0e})")


if __name__ == "__main__":
    import sys
    if sys.argv[1:] == ["--drift"]:
        _report_drift()
    else:
        _write_golden(sys.argv[1:])
