"""A-posteriori diagnostics along one recorded path: the weak-form
residual, the log-Lipschitz ratio and the L^{2k} and W^{1,4} envelopes.

Envelopes are built a-posteriori: the differential inequalities behind
the L^{2k} and W^{1,4} bounds are integrated with coefficient functions
measured from the recorded path itself, turning qualitative estimates
into pointwise dominance checks.

The four monitors (`log_estimate_monitor`, `w14_monitor`, `lp_envelope`
and `weak_residual`) read series of the record, not snapshots.
`monitor_observables` hands every series they read to the stepping loop
as an `Observable`, evaluated at each sample through the sample's
`dynamics.ObsContext`, the per-sample cache of all observables: psi is
solved for once; each x-stage product is made once (q's of x order 0
and 1, W's and psi's of orders 0 to 2: 8) and each grid finished from it
once (q, grad q, W, grad W, D^2 W, grad psi and D^2 psi: 14), W's 3
products and 6 grids from its noise band alone (the leading block of
modes outside which W is zero); eta = q - W is formed from the grids of
q and W, and u = grad^perp psi is read from psi's gradient, so neither
is synthesized; and the sup norms, L4 norms, Lp norms and weak-form
pairings share its reductions, every integral one trapezoid quadrature
(`SpectralBasis.integrate`).  A product or grid is dropped after the
last series that reads it.  The loop keeps one scalar per series and
sample, so a monitored run stores no field.  A monitor given a record
without a series it reads raises SamplingError naming that series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (GRADIENT, HESSIAN, Observable, TrajectoryRecord,
                       grids)
from .errors import SamplingError
from .spectral import LayerField, even_exponent, field_sum

MIN_SAMPLES = 3         # of the weak residual's trapezoid quadrature


def weak_residual(record: TrajectoryRecord, test_functions,
                  ) -> np.ndarray:
    """Defect of the weak formulation along a recorded path.

    For each band-limited test function phi, evaluates

        <q_t, phi> - <q_0, phi> - int_0^t <q_s, u_s . grad phi> ds
                   + gamma int_0^t <q_s, phi> ds - <W_t, phi>

    with composite-trapezoid time integrals at the sample cadence, from
    the three series `monitor_observables` adds for phi.  Accepts one
    LayerField or a sequence; returns |defect| with shape
    (n_test_functions, n_samples).
    """
    if isinstance(test_functions, (LayerField, np.ndarray)):
        test_functions = [test_functions]
    times = record.times
    if len(times) < MIN_SAMPLES:
        raise SamplingError(
            f"need at least {MIN_SAMPLES} samples for the quadrature")
    steps = np.diff(times)
    # the final interval may be shorter when the cadence does not divide
    # the step count; everything before it must be uniform
    body = steps[:-1]
    if np.max(body) > 1.5 * np.min(body) or steps[-1] > np.max(body):
        raise SamplingError("sample cadence must be uniform")

    gamma = record.config.gamma
    phis = [_test_coeffs(tf) for tf in test_functions]
    residuals = np.empty((len(phis), len(times)))
    for i, phi in enumerate(phis):
        pairing, noise_pair, transport = (
            _read(record, _phi_key(kind, phi), f"{kind} of test function {i}")
            for kind in ("pairing", "noise_pairing", "transport"))
        rhs = (pairing[0] + _cumtrapz(transport, times)
               - gamma * _cumtrapz(pairing, times) + noise_pair)
        residuals[i] = np.abs(pairing - rhs)
    return residuals


def _cumtrapz(values, times):
    out = np.zeros_like(values)
    if len(values) > 1:
        increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(increments)
    return out


def _trapz(values, times):
    return float(_cumtrapz(np.asarray(values, dtype=float),
                           np.asarray(times, dtype=float))[-1])


# -- the monitor series, as observables of the stepping loop ------------


def _test_coeffs(test_function):
    """Spectral coefficients of a LayerField or coefficient array."""
    if isinstance(test_function, LayerField):
        test_function = test_function.spectral()
    return np.asarray(test_function, dtype=float)


def _phi_key(kind, phi_hat):
    """Key of the series `kind` ("transport", <q, u . grad phi>;
    "pairing", <q, phi>; "noise_pairing", <W, phi>) of test function
    phi."""
    return (kind, phi_hat.shape, phi_hat.tobytes())


def monitor_observables(basis, exponents=(), test_functions=()) -> list:
    """Every series the monitors read, as observables of the stepping loop.

    In the order of evaluation, field by field, so that each product and
    grid is dropped soon after it is made: W's (`hess_w_l4`, `grad_w_l4`,
    `grad_w_inf` and its Lp norms), q's (`grad_q_l4`, `q_inf`, its Lp
    norms), the Lp norms of eta = q - W, psi's (`grad_u_inf`, `u_inf`,
    the Lp norms of |u|), and for each test function phi (a LayerField or
    coefficient array) <q, u . grad phi>, <q, phi> and <W, phi>, keyed by
    `_phi_key`.  The Lp norm of f is the series (f, p) for each even p of
    `exponents`.  grad phi is synthesized here, once before the run.
    """
    exps = tuple(sorted(set(map(even_exponent, exponents))))

    def lp(f):
        return [Observable((f, p), lambda ctx, i=i: ctx.lp_norms(f, exps)[i],
                           ((f, 0, 0),)) for i, p in enumerate(exps)]

    # u = (-psi_y, psi_x): |u| and the entries of grad u (psi's second
    # derivatives) are read from psi's grids, with no u made
    hess_w, grad_w = grids("w", HESSIAN), grids("w", GRADIENT)
    grad_q, q = grids("q", GRADIENT), (("q", 0, 0),)
    hess_psi, grad_psi = grids("psi", HESSIAN), grids("psi", GRADIENT)
    series = [Observable("hess_w_l4", lambda ctx: ctx.l4(hess_w), hess_w),
              Observable("grad_w_l4", lambda ctx: ctx.l4(grad_w), grad_w),
              Observable("grad_w_inf", lambda ctx: ctx.sup(grad_w), grad_w),
              *lp("w"),
              Observable("grad_q_l4", lambda ctx: ctx.l4(grad_q), grad_q),
              Observable("q_inf", lambda ctx: ctx.peak("q"), q),
              *lp("q"), *lp("eta"),
              Observable("grad_u_inf", lambda ctx: ctx.sup(hess_psi),
                         hess_psi),
              Observable("u_inf", lambda ctx: ctx.sup(grad_psi), grad_psi),
              *lp("speed")]
    for phi in map(_test_coeffs, test_functions):
        px, py = basis.grad_grids(phi)

        def transport(ctx, px=px, py=py):
            psi_x, psi_y = (ctx.grid(*key) for key in grad_psi)
            return ctx.basis.integrate(ctx.grid("q")
                                       * (psi_x * py - psi_y * px))

        series += [
            Observable(_phi_key("transport", phi), transport, q + grad_psi),
            Observable(_phi_key("pairing", phi),
                       lambda ctx, phi=phi: field_sum(ctx.q_hat * phi)),
            Observable(_phi_key("noise_pairing", phi),
                       lambda ctx, phi=phi: field_sum(ctx.w_hat * phi))]
    return series


def _read(record: TrajectoryRecord, key, label=None) -> np.ndarray:
    """The record's series `key`, or SamplingError naming it (by `label`
    if given) when the run did not record it."""
    try:
        return record.observables[key]
    except KeyError:
        raise SamplingError(
            f"the record has no {label or key!r} series: run it with "
            f"experiments.monitor_observables") from None


# -- monitors -----------------------------------------------------------


def dominated(series, envelope) -> bool:
    """Whether the series stays at or below its envelope everywhere, up
    to a relative 1e-9 and an absolute 1e-12 of rounding slack."""
    return bool(np.all(series <= envelope * (1 + 1e-9) + 1e-12))


@dataclass
class MonitorReport:
    times: np.ndarray
    series: np.ndarray
    maximum: float
    skipped: np.ndarray            # flags for undefined samples
    envelope: np.ndarray | None = None
    dominated: bool | None = None


def log_estimate_monitor(record: TrajectoryRecord) -> MonitorReport:
    """Ratio ||grad u||_inf / (||q||_inf (1 + log+ ||grad q||_L4)).

    Samples with q identically zero are skipped and flagged.
    """
    q_inf, grad_u_inf, grad_q_l4 = (_read(record, name) for name in (
        "q_inf", "grad_u_inf", "grad_q_l4"))
    skipped = q_inf == 0.0
    ratios = np.zeros(len(q_inf))
    for s in np.flatnonzero(~skipped):
        g4 = grad_q_l4[s]
        log_plus = max(np.log(g4), 0.0) if g4 > 0 else 0.0
        ratios[s] = grad_u_inf[s] / (q_inf[s] * (1.0 + log_plus))
    valid = ratios[~skipped]
    return MonitorReport(times=record.times, series=ratios,
                         maximum=float(valid.max()) if len(valid) else 0.0,
                         skipped=skipped)


def _damped_integrate(rate, forcing, times, start):
    """e' = -rate(t) e + forcing(t) with trapezoid coefficients."""
    e = np.empty(len(times))
    e[0] = start
    for s in range(1, len(times)):
        h = times[s] - times[s - 1]
        a = 0.5 * (rate[s] + rate[s - 1])
        f = 0.5 * (forcing[s] + forcing[s - 1])
        # (1 - e^{-ah}) / a through expm1: the difference cancels as
        # ah -> 0, e.g. where the w14 rate gamma - ||grad u||_inf crosses 0
        gain = -np.expm1(-a * h) / a if a != 0 else h
        e[s] = e[s - 1] * np.exp(-a * h) + f * gain
    return e


def lp_envelope(record: TrajectoryRecord, k: int):
    """A-posteriori envelope for the L^{2k} norm of q along the record.

    Integrates e' = -gamma e + F(t) with measured forcing
    F = ||u||_{2k} ||grad W||_inf + gamma ||W||_{2k}, starting from
    ||q_0||_{2k}; the envelope for q is e(t) + ||W_t||_{2k}.
    Returns (series of ||q_t||_{2k}, envelope).
    """
    gamma = record.config.gamma
    q_norm, w_norm, eta_norm, u_lp = (_read(record, (f, 2 * k))
                                      for f in ("q", "w", "eta", "speed"))
    forcing = u_lp * _read(record, "grad_w_inf") + gamma * w_norm
    times = record.times
    rate = np.full(len(times), gamma)
    env_eta = _damped_integrate(rate, forcing, times, eta_norm[0])
    return q_norm, env_eta + w_norm, eta_norm, env_eta


def w14_monitor(record: TrajectoryRecord) -> MonitorReport:
    """||grad q_t||_L4 series with its a-posteriori envelope.

    The eta-gradient inequality
        d/dt ||grad eta||_4 <= (||grad u||_inf - gamma) ||grad eta||_4
            + ||grad u||_inf ||grad W||_4 + ||u||_inf ||hess W||_4
            + gamma ||grad W||_4
    is integrated with all coefficients measured from the record, from
    ||grad eta_0||_4 = ||grad q_0||_4 (the loop starts W at 0); the
    q-envelope adds ||grad W_t||_4.
    """
    gamma = record.config.gamma
    times = record.times
    grad_q, grad_w4, grad_u_inf, u_inf, hess_w = (
        _read(record, name) for name in (
            "grad_q_l4", "grad_w_l4", "grad_u_inf", "u_inf", "hess_w_l4"))
    rate = gamma - grad_u_inf
    forcing = grad_u_inf * grad_w4 + u_inf * hess_w + gamma * grad_w4
    env_eta = _damped_integrate(rate, forcing, times, grad_q[0])
    envelope = env_eta + grad_w4
    return MonitorReport(times=times, series=grad_q,
                         maximum=float(np.max(grad_q)),
                         skipped=np.zeros(len(times), dtype=bool),
                         envelope=envelope,
                         dominated=dominated(grad_q, envelope))
