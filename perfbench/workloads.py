"""The four benchmark workloads: generated inputs, CLI calls and gates.

Each workload turns `--seed` into a config file plus a `layerqg` argv,
states how many time steps one repetition integrates (summed over
paths), and checks the files the repetition wrote.  Inputs are built
with NumPy and `reference` only, so they stay the same when the program
is refactored.  The sizes follow the paper's own experiments at lengths
that keep one repetition between about 0.5 and 1.6 s on a 2-core box.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# Gate tolerances.  The pairsq gate compares each mean, and the mean of
# the five mean/target ratios, with its exact standard error (never the
# one the CLI reports, which is an output under test); the false-failure
# rates these give are printed by gate_rates.py.
KB_LABEL_STDERRS = 6.0
KB_POOLED_STDERRS = 5.0
SKEW_REL = 1e-8         # criterion-2 bound, relative to max|u| * sum q_hat^2
TRANSPORT_REL = 1e-9    # program vs exact transport and step, relative
ENVELOPE_REL = 1e-9     # dominance slack, as in the package's own checks


@dataclass
class Inputs:
    """What one workload hands to the program for one benchmark run."""

    config: Path
    seed: int
    argv_tail: list          # subcommand flags after --config/--seed/--out
    steps: int               # time steps per repetition, summed over paths
    expect: dict             # values the gate compares against

    def argv(self, command, out, threads):
        return [command, "--config", str(self.config), "--seed",
                str(self.seed), "--out", str(out), "--threads",
                str(threads)] + self.argv_tail


def _rng(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _write_config(path, values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


def _lambdas(rng):
    return [float(v) for v in np.round(rng.uniform(0.8, 1.25, 3), 6)]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, key):
    return np.array([float(r[key]) for r in rows])


class Workload:
    name = ""
    command = ""
    why = ""
    # file whose bytes must be identical on every repetition of a run
    digest_file = ""
    # True if a repetition runs on the CLI's thread pool rather than in
    # the calling thread; its times are then scaled by the fan-out
    # reference kernel instead of the compute kernel (speed.py).
    fanout = False

    def make(self, seed, workdir) -> Inputs:
        raise NotImplementedError

    def check(self, inputs, out) -> list:
        """Problems found in the repetition's output (empty when correct)."""
        raise NotImplementedError


class EnsembleLinear(Workload):
    name = "ensemble_linear_n12"
    command = "invariant"
    why = ("criterion-6 linear Krylov-Bogoliubov ensemble: no transforms or "
           "elliptic solves, so noise draws, step overhead and the path "
           "fan-out do all the work")
    digest_file = "invariant.csv"
    fanout = True
    N, K, GAMMA, DT, PATHS, HORIZON, OBS_EVERY = 12, 32, 0.5, 0.01, 16, 15.0, 2

    def make(self, seed, workdir):
        rng = _rng(seed, self.name)
        lambdas = _lambdas(rng)
        sigma = float(np.round(rng.uniform(0.8, 1.25), 6))
        nn, mm, jj, mu = reference.eigen_order(lambdas, self.N)
        labels = [f"pairsq:{n}.{m}.{j}" for n, m, j in zip(nn[:5], mm[:5],
                                                           jj[:5])]
        c = reference.noise_coefficients(mu[:5], sigma, 2.0)
        config = _write_config(workdir / f"{self.name}.cfg", {
            "modes_x": self.N, "modes_y": self.N, "nonlinearity": "off",
            "lambda1": lambdas[0], "lambda2": lambdas[1],
            "lambda3": lambdas[2], "gamma": self.GAMMA, "sigma": sigma,
            "noise_decay": 2.0, "noise_modes": self.K, "dt": self.DT,
            "horizon": self.HORIZON, "init": "zero",
            "obs_every": self.OBS_EVERY, "observables": ",".join(labels)})
        steps = int(round(self.HORIZON / self.DT))
        mean, stderr = self.expected()
        return Inputs(config=config, seed=int(rng.integers(2**31)),
                      argv_tail=["--horizons", f"{self.HORIZON:g}",
                                 "--paths", str(self.PATHS)],
                      steps=self.PATHS * steps,
                      expect={"targets": {lab: ck**2 * mean for lab, ck
                                          in zip(labels, c)},
                              "rel": stderr / mean})

    def quadratic_form(self):
        """(a, C): one path's pairsq average is a . x^2 with x ~ N(0, C).

        For c_k = 1.  In the linear case the exponential-Euler step is the
        exact AR(1) map q <- d q + dW with d = e^{-gamma dt}, so from
        q0 = 0 the pairing x_n = <q_n, rho_k> is Gaussian with
        Cov(x_i, x_j) = v (1 - d^(2 min(i,j))) d^|i-j|, v = dt / (1 - d^2);
        v tends to c_k^2 / (2 gamma) as dt -> 0.  The CLI averages x^2,
        sampled every OBS_EVERY steps, with the trapezoid rule (weights a).
        """
        d = math.exp(-self.GAMMA * self.DT)
        v = self.DT / (1.0 - d * d)
        n = np.arange(0, int(round(self.HORIZON / self.DT)) + 1,
                      self.OBS_EVERY)
        a = np.full(len(n), self.OBS_EVERY * self.DT / self.HORIZON)
        a[0] = a[-1] = a[0] / 2
        cov = (v * (1.0 - d ** (2 * np.minimum.outer(n, n)))
               * d ** np.abs(np.subtract.outer(n, n)))
        return a, cov

    def expected(self):
        """Exact mean and standard error of the pairsq mean, for c_k = 1.

        Per path the mean is a . diag(C) and the variance a . 2 C^2 . a;
        both scale with c_k^2 and c_k^4.  Distinct modes are independent.
        """
        a, cov = self.quadratic_form()
        mean = float(a @ np.diag(cov))
        stderr = math.sqrt(float(a @ (2 * cov**2) @ a) / self.PATHS)
        return mean, stderr

    def check(self, inputs, out):
        rows = _read_csv(out / "invariant.csv")
        targets, rel = inputs.expect["targets"], inputs.expect["rel"]
        seen = {r["observable"]: r for r in rows}
        if sorted(seen) != sorted(targets):
            return [f"observables {sorted(seen)} != {sorted(targets)}"]
        problems, ratios = [], []
        for label, target in targets.items():
            mean = float(seen[label]["mean"])
            err = float(seen[label]["stderr"])
            if not (math.isfinite(mean) and math.isfinite(err) and err > 0):
                problems.append(f"{label}: mean {mean} stderr {err}")
                continue
            ratios.append(mean / target)
            if abs(mean / target - 1) > KB_LABEL_STDERRS * rel:
                problems.append(f"{label}: mean {mean:.6g} is "
                                f"{abs(mean / target - 1) / rel:.1f} stderr "
                                f"from {target:.6g}")
        if len(ratios) == len(targets):
            pooled_err = rel / math.sqrt(len(ratios))
            pooled = float(np.mean(ratios))
            if abs(pooled - 1) > KB_POOLED_STDERRS * pooled_err:
                problems.append(f"mean/target over the labels is "
                                f"{pooled:.4f}, "
                                f"{abs(pooled - 1) / pooled_err:.1f} stderr "
                                f"from 1")
        return problems


class RunNonlinear(Workload):
    name = "run_nonlinear_n64"
    command = "run"
    why = ("single nonlinear run at N=64 with l2,l4,linf,h1 every step: "
           "transforms at G+1=129 and observable re-synthesis dominate")
    digest_file = "series.csv"
    N, DT, STEPS = 64, 1e-3, 30

    def make(self, seed, workdir):
        rng = _rng(seed, self.name)
        lambdas = _lambdas(rng)
        init = (f"lowband:4:{rng.uniform(0.5, 1.5):.6f}:"
                f"{int(rng.integers(2**31))}")
        gamma = round(float(rng.uniform(0.4, 0.6)), 6)
        config = _write_config(workdir / f"{self.name}.cfg", {
            "modes_x": self.N, "modes_y": self.N, "lambda1": lambdas[0],
            "lambda2": lambdas[1], "lambda3": lambdas[2],
            "gamma": gamma, "viscosity": 0.0,
            "sigma": round(float(rng.uniform(0.5, 1.5)), 6),
            "noise_decay": 2.0, "dt": self.DT,
            "horizon": f"{self.STEPS * self.DT:g}", "init": init,
            "observables": "l2,l4,linf,h1"})
        return Inputs(config=config, seed=int(rng.integers(2**31)),
                      argv_tail=["--snap-every", str(self.STEPS)],
                      steps=self.STEPS,
                      expect={"lambdas": lambdas, "gamma": gamma})

    def check(self, inputs, out):
        rows = _read_csv(out / "series.csv")
        problems = []
        if len(rows) != self.STEPS + 1:
            problems.append(f"{len(rows)} series rows, want {self.STEPS + 1}")
        for key in ("l2", "l4", "linf", "h1"):
            if not np.all(np.isfinite(_floats(rows, key))):
                problems.append(f"non-finite {key} series")
        snaps = sorted(out.glob("snapshot_*.lqg"))
        if len(snaps) != 2:
            return problems + [f"{len(snaps)} snapshots, want 2 (t=0, t=T)"]
        return problems + self.check_transport(inputs, snaps[-1])

    def check_transport(self, inputs, snapshot):
        """Criterion 2 and one step of the program, on its final state.

        The program's public `nonlinear_term` must match the exact
        Galerkin projection of u . grad q from `reference.transport` and
        meet the criterion-2 skew bound |<term, q>| <= SKEW_REL max|u|
        sum q_hat^2.  Its public `step_eta`, which runs the stepper the
        CLI uses, must map q (with W = 0) to the exponential-Euler
        update e^{-gamma dt} q - (1 - e^{-gamma dt}) / gamma * term.
        """
        from dataclasses import replace

        from layerqg import (LayerField, nonlinear_term, parse_config,
                             read_field, realize, step_eta)

        # The stepper's CFL guard watches the run, not this check.
        config = replace(realize(parse_config(inputs.config)[0],
                                 inputs.seed), cfl_safety=0.0)
        q = read_field(snapshot, config.basis)
        q_hat = q.spectral()
        if not np.all(np.isfinite(q_hat)):
            return ["non-finite final snapshot"]
        psi_hat, exact, umax = reference.transport(q_hat,
                                                   inputs.expect["lambdas"])
        term = nonlinear_term(
            q, LayerField.from_coeffs(config.basis, psi_hat)).spectral()
        problems = []
        pairing = float(np.sum(term * q_hat))
        bound = SKEW_REL * umax * float(np.sum(q_hat**2))
        if not abs(pairing) <= bound:
            problems.append(f"transport pairing {pairing:.3e} > {bound:.3e}")
        error = np.linalg.norm(term - exact)
        if not error <= TRANSPORT_REL * np.linalg.norm(exact):
            problems.append(f"nonlinear_term is {error:.3e} from the exact "
                            f"projection (norm {np.linalg.norm(exact):.3e})")
        decay = math.exp(-inputs.expect["gamma"] * self.DT)
        damped = decay * q_hat
        forced = (1.0 - decay) / inputs.expect["gamma"] * exact
        step = step_eta(q, LayerField.zero(config.basis), config).spectral()
        error = np.linalg.norm(step - (damped - forced))
        scale = np.linalg.norm(damped) + np.linalg.norm(forced)
        if not error <= TRANSPORT_REL * scale:
            problems.append(f"step_eta is {error:.3e} from the "
                            f"exponential-Euler step (scale {scale:.3e})")
        return problems


class Tightness(Workload):
    name = "tightness_n16"
    command = "tightness"
    why = ("criterion-11 confinement run at N=16: the same transforms at a "
           "small grid where per-call overhead dominates, plus the OU update")
    digest_file = "tightness_series.csv"
    N, K, GAMMA, DT, HORIZON, RATE = 16, 48, 0.5, 5e-3, 5.0, 2.0

    def make(self, seed, workdir):
        rng = _rng(seed, self.name)
        lambdas = _lambdas(rng)
        mu = reference.eigen_order(lambdas, self.N)[3]
        sigma = reference.sigma_for_stationary_l2(mu, self.K, 2.0, self.GAMMA)
        config = _write_config(workdir / f"{self.name}.cfg", {
            "modes_x": self.N, "modes_y": self.N, "lambda1": lambdas[0],
            "lambda2": lambdas[1], "lambda3": lambdas[2],
            "gamma": self.GAMMA, "sigma": repr(float(sigma)),
            "noise_decay": 2.0, "noise_modes": self.K, "dt": self.DT,
            "init": "zero"})
        return Inputs(config=config, seed=int(rng.integers(2**31)),
                      argv_tail=["--rate", f"{self.RATE:g}",
                                 "--horizon", f"{self.HORIZON:g}"],
                      steps=int(round(self.HORIZON / self.DT)), expect={})

    def check(self, inputs, out):
        problems = []
        frac = _floats(_read_csv(out / "tightness_fractions.csv"), "fraction")
        if np.any(np.diff(frac) < 0) or np.any((frac < 0) | (frac > 1)):
            problems.append(f"fractions not nondecreasing in [0,1]: {frac}")
        rows = _read_csv(out / "tightness_series.csv")
        theta = _floats(rows, "theta_inf")
        env = _floats(rows, "envelope")
        for key in ("time", "q_inf", "theta_inf", "zeta_h52"):
            if not np.all(np.isfinite(_floats(rows, key))):
                problems.append(f"non-finite {key} series")
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["envelope_uninformative"]:
            if not np.all(np.isnan(env)):
                problems.append("uninformative envelope has values")
        elif not np.all(theta <= env * (1 + ENVELOPE_REL) + 1e-12):
            problems.append("theta_inf exceeds its envelope")
        return problems


class Diagnose(Workload):
    name = "diagnose_n32"
    command = "diagnose"
    why = ("a-posteriori monitors and envelopes over recorded snapshots at "
           "N=32: the only workload where post-processing dominates")
    digest_file = "diagnostics.csv"
    N, K, DT, STEPS, SNAP_EVERY = 32, 48, 1e-3, 50, 2

    def make(self, seed, workdir):
        rng = _rng(seed, self.name)
        lambdas = _lambdas(rng)
        config = _write_config(workdir / f"{self.name}.cfg", {
            "modes_x": self.N, "modes_y": self.N, "lambda1": lambdas[0],
            "lambda2": lambdas[1], "lambda3": lambdas[2], "gamma": 0.5,
            "sigma": 2.0, "noise_decay": 2.0, "noise_modes": self.K,
            "dt": self.DT, "horizon": f"{self.STEPS * self.DT:g}",
            "init": f"lowband:3:1.0:{int(rng.integers(2**31))}"})
        return Inputs(config=config, seed=int(rng.integers(2**31)),
                      argv_tail=["--snap-every", str(self.SNAP_EVERY)],
                      steps=self.STEPS, expect={})

    def check(self, inputs, out):
        manifest = json.loads((out / "manifest.json").read_text())
        problems = [f"{key} is {manifest.get(key)}"
                    for key in ("w14_dominated", "l2_dominated",
                                "l4_dominated")
                    if manifest.get(key) is not True]
        rows = _read_csv(out / "diagnostics.csv")
        want = self.STEPS // self.SNAP_EVERY + 1
        if len(rows) != want:
            problems.append(f"{len(rows)} diagnostics rows, want {want}")
        if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
            problems.append("non-finite diagnostics")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleLinear(), RunNonlinear(),
                                 Tightness(), Diagnose())}
