"""Time-averaged measure estimation and long-time confinement diagnostics.

Measures are represented through their action on a finite dictionary of
observables (pairings with band-limited fields, norm functionals): the
averaged measure at horizon n is the vector of time averages
(1/n) int_0^n phi(q_t) dt, aggregated over independent sample paths.
Horizon readouts are nested prefixes of a single long run per path,
folded into running trapezoid sums as the paths step (`_Averages`).

The confinement diagnostic runs q from zero alongside the exact
stochastic convolution zeta_lambda of the same noise path and evaluates
the pathwise exponential envelope for theta = q - zeta from the recorded
||zeta(t)||_{H^alpha} series (alpha = 5/2, the noise regularity class).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (Observable, SimConfig, _batches, _drive, _run_paths,
                       _sample_plan, obs_lp)
from .errors import ConfigurationError
from .experiments import _cumtrapz, dominated
from .noise import NoiseMixer
from .spectral import grid_peak

ALPHA_NOISE = 2.5
TIGHTNESS_SAMPLE_EVERY = 5      # steps between confinement samples


@dataclass
class AveragedMeasure:
    """Action of the horizon-n averaged law on the observable dictionary."""

    horizon: float
    names: list
    means: np.ndarray          # across paths, of the per-path time averages
    stderrs: np.ndarray
    n_paths: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if not np.all(np.isfinite(self.means)):
            raise ConfigurationError("averages must be finite")
        if np.any(self.stderrs < 0):
            raise ConfigurationError("standard errors must be nonnegative")


def kb_average(config: SimConfig, horizons, observables, n_paths: int = 1,
               threads: int = 1):
    """Averaged measures at nested horizons, one long run per path.

    Starts every path at q0 = 0.  Before the run, `observables` must
    not be empty, and the horizons must ascend from 0 up to the
    configured trajectory length through sample times: multiples of
    dt * obs_every, or that length itself (each to a relative 1e-9, as
    SimConfig matches horizon and dt).  `threads` is `_drive`'s, and
    changes no byte.  `stderrs` are across-path: NaN for one path.
    """
    if not observables:
        raise ConfigurationError("no observables to average")
    horizons = list(horizons)
    cfg = replace(config, init="zero")
    times = cfg.sample_times(cfg.obs_every)
    ends = []
    for prev, horizon in zip([0.0, *horizons], horizons):
        # the sample at the horizon, which may lie a rounding above it
        k = np.count_nonzero(times <= horizon * (1 + 1e-9)) - 1
        if not (prev < horizon <= config.horizon * (1 + 1e-9)
                and abs(times[k] - horizon) <= 1e-9 * horizon):
            raise ConfigurationError(
                f"horizon {horizon}: horizons must ascend from 0 to "
                f"{config.horizon} through multiples of dt * obs_every = "
                f"{config.dt * config.obs_every:g} or {config.horizon} itself")
        ends.append((k, horizon))
    batches = _batches(cfg, range(n_paths), every=(cfg.obs_every,))
    folds = [_Averages(observables, len(part), 0.5 * np.diff(times), ends)
             for part, _ in batches]
    _drive([([batch], fold) for batch, fold in zip(batches, folds)], threads)
    stacked = np.concatenate([fold.averages for fold in folds])  # (P, H, O)
    means = stacked.mean(axis=0)                                # (H, O)
    if n_paths > 1:
        stderrs = stacked.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:       # an across-path error is undefined for one path
        stderrs = np.full_like(means, np.nan)
    names = [ob.name for ob in observables]
    return [AveragedMeasure(horizon=h, names=names, means=means[i],
                            stderrs=stderrs[i], n_paths=n_paths)
            for i, h in enumerate(horizons)]


class _Averages:
    """kb_average's fold of one batch: per path and observable, the running
    trapezoid sum of (v_k + v_{k-1}) half_steps[k-1], the bits of 0.5 (v_k
    + v_{k-1}) dt_k since halving is exact, which the i-th (k, horizon) of
    `ends` divides at sample k into `averages[:, i]`."""

    def __init__(self, observables, n_paths, half_steps, ends):
        self.evaluate, self.slots = _sample_plan(observables)
        self.last, self.value, self.total = np.zeros(
            (3, len(observables), n_paths))
        self.averages = np.empty((n_paths, len(ends), len(observables)))
        self.half_steps, self.ends, self.k = half_steps, ends, 0

    def __call__(self, samples):
        (_, ctx), = samples
        k, last, value = self.k, self.value, self.last
        self.evaluate(ctx, value)               # over v_{k-2}
        if k:
            self.total += (value + last) * self.half_steps[k - 1]
        for i, (end, horizon) in enumerate(self.ends):
            if end == k:
                self.averages[:, i] = (self.total[self.slots] / horizon).T
        self.k, self.value, self.last = k + 1, value, last


@dataclass
class TightnessReport:
    radii: np.ndarray
    fractions: np.ndarray          # fraction of time with ||q||_inf < R
    sup_q_inf: float
    thirds: np.ndarray             # sup of ||q||_inf over successive thirds
    times: np.ndarray
    q_inf_series: np.ndarray
    theta_inf_series: np.ndarray
    zeta_norm_series: np.ndarray   # ||zeta(t)||_{H^alpha}
    envelope: np.ndarray | None
    envelope_uninformative: bool
    envelope_condition_held: bool
    rate: float

    def __post_init__(self):
        if np.any(self.fractions < 0) or np.any(self.fractions > 1):
            raise ConfigurationError("fractions must lie in [0, 1]")
        if np.any(np.diff(self.fractions) < 0):
            raise ConfigurationError("fractions must be nondecreasing in R")

    @property
    def trend_ok(self) -> bool:
        """No increasing trend: last third's sup <= 1.5x first third's."""
        return bool(self.thirds[2] <= 1.5 * self.thirds[0])

    @property
    def theta_dominated(self) -> bool | None:
        if self.envelope is None:
            return None
        return dominated(self.theta_inf_series, self.envelope)


def tightness_diagnostic(config: SimConfig, rate: float, horizon: float,
                         radii=None) -> TightnessReport:
    """Long run from q0 = 0 with the coupled stochastic convolution.

    Evolves zeta_lambda through the exact conditional update driven by
    the same increments as the trajectory, records ||q_t||_inf and
    ||theta_t||_inf = ||q_t - zeta_t||_inf every TIGHTNESS_SAMPLE_EVERY
    steps, and evaluates the exponential envelope for theta from the
    recorded ||zeta||_{H^{5/2}} series.  Exponents beyond 700 mark the
    envelope uninformative (the raw sup is still reported).
    """
    if rate <= config.gamma / 2:
        raise ConfigurationError("rate should exceed gamma/2")
    cfg = replace(config, init="zero", horizon=horizon,
                  obs_every=TIGHTNESS_SAMPLE_EVERY)
    rec = _run_paths(cfg, _tightness_observables(cfg), [0], ou_rate=rate)[0]
    q_inf, theta_inf, zeta_norm = rec.observables.values()

    if radii is None:
        top = max(q_inf.max(), 1e-12)
        radii = np.linspace(top / 8, 1.25 * top, 10)
    radii = np.asarray(sorted(radii), dtype=float)
    fractions = np.array([np.mean(q_inf < r) for r in radii])

    third = len(q_inf) // 3
    thirds = np.array([q_inf[:third].max() if third else q_inf.max(),
                       q_inf[third:2 * third].max() if third else q_inf.max(),
                       q_inf[2 * third:].max()])

    envelope, uninformative, condition = _theta_envelope(
        rec.times, zeta_norm, cfg.gamma, rate)

    return TightnessReport(
        radii=radii, fractions=fractions, sup_q_inf=float(q_inf.max()),
        thirds=thirds, times=rec.times, q_inf_series=q_inf,
        theta_inf_series=theta_inf, zeta_norm_series=zeta_norm,
        envelope=envelope, envelope_uninformative=uninformative,
        envelope_condition_held=condition, rate=rate)


def _tightness_observables(cfg: SimConfig):
    """linf, theta_inf = ||q - zeta||_inf and zeta_norm = ||zeta||_{H^alpha}
    per path, of a loop that steps zeta (`_run_paths`'s `ou_rate`)."""
    mixer = NoiseMixer(cfg.noise, cfg.pairs)
    weights = cfg.pairs.spatial_eigenvalues[:cfg.noise.k] ** ALPHA_NOISE

    def theta_sup(ctx):
        theta_hat = ctx.q_hat - mixer.coefficients(ctx.zeta.T)
        return grid_peak(cfg.basis.inverse(theta_hat))

    def zeta_h_alpha(ctx):
        # the loop updates zeta in place unchecked; a non-finite state
        # stops the run at the next sample
        if not np.isfinite(ctx.zeta).all():
            raise ConfigurationError("non-finite OU state")
        return np.sqrt((ctx.zeta**2 * weights).sum(axis=1))

    return [obs_lp(np.inf), Observable("theta_inf", theta_sup),
            Observable("zeta_norm", zeta_h_alpha)]


def _theta_envelope(times, zeta_norm, gamma, rate):
    """Exponential envelope for ||theta||_inf from the zeta-norm series:

        E(t) = Z(0) exp(J(t)) +
               int_0^t (Z(s) + |rate - gamma|) Z(s) exp(J(t) - J(s)) ds,
        J(t) = int_0^t (Z(r) - gamma) dr,  Z = ||zeta||_{H^alpha}.
    """
    n = len(times)
    j_cum = _cumtrapz(zeta_norm - gamma, times)
    # largest exponent over pairs s <= t without forming the n x n matrix
    max_span = np.max(j_cum - np.minimum.accumulate(j_cum))
    condition = bool(np.mean(zeta_norm) < gamma / 2)
    if max_span > 700:
        return None, True, condition
    forcing = (zeta_norm + abs(rate - gamma)) * zeta_norm
    # I_s = int_0^t_s forcing(r) exp(J_s - J_r) dr (trapezoid), by the
    # exact recurrence I_{s+1} = g I_s + (g f_s + f_{s+1}) dt_s / 2 with
    # g = exp(J_{s+1} - J_s)
    growth_step = np.exp(np.diff(j_cum))
    half_dt = 0.5 * np.diff(times)
    integral = np.zeros(n)
    for s in range(n - 1):
        g = growth_step[s]
        integral[s + 1] = g * integral[s] + (g * forcing[s]
                                             + forcing[s + 1]) * half_dt[s]
    envelope = zeta_norm[0] * np.exp(j_cum) + integral
    return envelope, False, condition
