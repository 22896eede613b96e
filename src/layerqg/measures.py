"""Time-averaged measure estimation and long-time confinement diagnostics.

Measures are represented through their action on a finite dictionary of
observables (pairings with band-limited fields, norm functionals): the
averaged measure at horizon n is the vector of time averages
(1/n) int_0^n phi(q_t) dt, aggregated over independent sample paths.
Horizon readouts are nested prefixes of a single long run per path, and
the paths step as the batches of one `dynamics._run_paths` call.

The confinement diagnostic runs q from zero alongside the exact
stochastic convolution zeta_lambda of the same noise path and evaluates
the pathwise exponential envelope for theta = q - zeta from the recorded
||zeta(t)||_{H^alpha} series (alpha = 5/2, the noise regularity class).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Observable, SimConfig, _run_paths, obs_lp
from .errors import ConfigurationError
from .experiments import _cumtrapz, dominated
from .noise import NoiseMixer, ou_factors, ou_step
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

    def value(self, name: str) -> float:
        return float(self.means[self.names.index(name)])

    def stderr(self, name: str) -> float:
        return float(self.stderrs[self.names.index(name)])


def kb_average(config: SimConfig, horizons, observables, n_paths: int = 1,
               threads: int = 1):
    """Averaged measures at nested horizons, one long run per path.

    Starts every path at q0 = 0.  Before the run, the horizons must
    ascend from 0 up to the configured trajectory length through sample
    times: multiples of dt * obs_every, or that length itself (each to a
    relative 1e-9, as SimConfig matches horizon and dt).  `threads` is
    `_run_paths`'s, and changes no byte.
    """
    horizons = list(horizons)
    spacing = config.dt * config.obs_every
    for prev, horizon in zip([0.0, *horizons], horizons):
        if not (prev < horizon <= config.horizon * (1 + 1e-9) and min(
                abs(round(horizon / spacing) * spacing - horizon),
                abs(config.horizon - horizon)) <= 1e-9 * horizon):
            raise ConfigurationError(
                f"horizon {horizon}: horizons must ascend from 0 to "
                f"{config.horizon} through multiples of dt * obs_every = "
                f"{spacing:g} or {config.horizon} itself")
    cfg = replace(config, init="zero", snap_every=0)
    records = _run_paths(cfg, observables, range(n_paths), threads=threads)
    times = records[0].times
    series = np.array([[rec.observables[ob.name] for ob in observables]
                       for rec in records])                    # (P, O, T)
    stacked = np.empty((n_paths, len(horizons), len(observables)))
    for i, horizon in enumerate(horizons):
        # the sample at the horizon, which may lie a rounding above it
        n = np.count_nonzero(times <= horizon * (1 + 1e-9))
        v = series[..., :n]                # trapezoid rule per path
        stacked[:, i] = np.sum(0.5 * (v[..., 1:] + v[..., :-1])
                               * np.diff(times[:n]), axis=-1) / horizon
    means = stacked.mean(axis=0)
    if n_paths > 1:
        stderrs = stacked.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        stderrs = np.zeros_like(means)
    names = [ob.name for ob in observables]
    return [AveragedMeasure(horizon=h, names=names, means=means[i],
                            stderrs=stderrs[i], n_paths=n_paths)
            for i, h in enumerate(horizons)]


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
    cfg = replace(config, init="zero", horizon=horizon, snap_every=0,
                  obs_every=TIGHTNESS_SAMPLE_EVERY)
    mixer = NoiseMixer(cfg.noise, cfg.pairs)
    zeta = np.zeros(cfg.noise.k)
    # the loop passes increments exactly when the noise is active
    factors = ou_factors(rate, cfg.noise, cfg.dt, driven=cfg.noise.active)
    weights = cfg.pairs.spatial_eigenvalues[:cfg.noise.k] ** ALPHA_NOISE

    def ou_update(dw, normals):
        ou_step(zeta, factors, normals[:, 0],
                None if dw is None else dw[:, 0], out=zeta)

    def theta_sup(ctx):
        theta_hat = ctx.q_hat - mixer.coefficients(zeta)
        return grid_peak(cfg.basis.inverse(theta_hat))

    def zeta_h_alpha(ctx):
        # zeta is updated in place unchecked; a non-finite state stops the
        # run at the next sample
        if not np.all(np.isfinite(zeta)):
            raise ConfigurationError("non-finite OU state")
        return [np.sqrt(np.sum(zeta**2 * weights))]

    observables = [obs_lp(np.inf), Observable("theta_inf", theta_sup),
                   Observable("zeta_norm", zeta_h_alpha)]
    rec = _run_paths(cfg, observables, [0], hook=ou_update)[0]
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
    if max_span > 700:
        avg = np.mean(zeta_norm)
        return None, True, bool(avg < gamma / 2)
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
    avg = np.mean(zeta_norm)
    return envelope, False, bool(avg < gamma / 2)
