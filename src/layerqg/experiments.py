"""A-posteriori diagnostics along one recorded path: the weak-form
residual, the log-Lipschitz ratio and the L^{2k} and W^{1,4} envelopes.

Envelopes are built a-posteriori: the differential inequalities behind
the L^{2k} and W^{1,4} bounds are integrated with coefficient functions
measured from the recorded path itself, turning qualitative estimates
into pointwise dominance checks.

The four monitors (`log_estimate_monitor`, `w14_monitor`, `lp_envelope`
and `weak_residual`) read per-snapshot series from one shared pass,
`_snapshot_series`.  It evaluates each series of each snapshot as
`fn(ctx)` of the snapshot's `dynamics.ObsContext`, the per-sample cache
the observables of the stepping loop use too: psi is solved for once,
each grid (q, W, eta = q - W, their gradients, u = grad^perp psi,
D^2 psi and D^2 W: 17 at most) is synthesized once, and the sup norms,
L4 gradient norms, Lp norms and weak-form transport pairings share its
reductions.  The series are memoized on the record, so `diagnose` pays
for each grid once, and a monitor called alone pays only for the grids
it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ObsContext, TrajectoryRecord
from .errors import SamplingError
from .spectral import LayerField, even_exponent, field_sum


def weak_residual(record: TrajectoryRecord, test_functions,
                  ) -> np.ndarray:
    """Defect of the weak formulation along a recorded path.

    For each band-limited test function phi, evaluates

        <q_t, phi> - <q_0, phi> - int_0^t <q_s, u_s . grad phi> ds
                   + gamma int_0^t <q_s, phi> ds - <W_t, phi>

    with composite-trapezoid time integrals at the snapshot cadence.
    Accepts one LayerField or a sequence; returns |defect| with shape
    (n_test_functions, n_snapshots).
    """
    if isinstance(test_functions, (LayerField, np.ndarray)):
        test_functions = [test_functions]
    cfg = record.config
    if record.q_snapshots.shape[0] < 3:
        raise SamplingError("need at least 3 snapshots for the quadrature")
    times = record.snap_times
    if len(times) > 2:
        steps = np.diff(times)
        # the final interval may be shorter when the cadence does not
        # divide the step count; everything before it must be uniform
        body = steps[:-1]
        if np.max(body) > 1.5 * np.min(body) or steps[-1] > np.max(body):
            raise SamplingError("snapshot cadence must be uniform")

    phis = [_test_coeffs(tf) for tf in test_functions]
    series = _snapshot_series(record, names=(), test_functions=phis)
    pairings = np.array([[float(np.sum(q * p)) for p in phis]
                         for q in record.q_snapshots])         # (S, P)
    noise_pair = np.array([[float(np.sum(w * p)) for p in phis]
                           for w in record.w_snapshots])

    residuals = np.empty((len(phis), len(times)))
    for p, phi in enumerate(phis):
        int_transport = _cumtrapz(series[_transport_key(phi)], times)
        int_pairing = _cumtrapz(pairings[:, p], times)
        rhs = (pairings[0, p] + int_transport - cfg.gamma * int_pairing
               + noise_pair[:, p])
        residuals[p] = np.abs(pairings[:, p] - rhs)
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


# -- the shared pass over the snapshots ----------------------------------


def _hess_l4(ctx):
    """(sum_i int_D |D^2 W^i|_F^4 dx)^(1/4), from D^2 W made and dropped."""
    hxx, hxy, hyy = ctx.basis.hessian_grids(ctx.w_hat)
    return field_sum((hxx**2 + 2 * hxy**2 + hyy**2) ** 2
                     * ctx.basis.quad_weights) ** 0.25


# The series of `_snapshot_series` with a fixed name, as `fn(ctx)` of a
# snapshot's ObsContext, in the order of evaluation: those that make and
# drop grids of their own run first, while the context holds few.  Each
# exponent p adds the series (f, p), the Lp norm of f in _LP_FIELDS; each
# test function phi the series `_transport_key(phi)`, <q, u . grad phi>.
_NAMED_SERIES = {
    # u = (-psi_y, psi_x), so the entries of grad u are psi's second
    # derivatives
    "grad_u_inf": lambda ctx: ctx.sup(ctx.basis.hessian_grids(ctx.psi_hat)),
    "hess_w_l4": _hess_l4,
    "grad_q_l4": lambda ctx: ctx.grad_l4("q"),
    "grad_eta_l4": lambda ctx: ctx.grad_l4("eta"),
    "grad_w_l4": lambda ctx: ctx.grad_l4("w"),
    "grad_w_inf": lambda ctx: ctx.sup(ctx.grad_w),
    "u_inf": lambda ctx: ctx.sup(ctx.u),
    "q_inf": lambda ctx: ctx.peak("q"),
}
_LP_FIELDS = ("q", "w", "eta", "speed")


def _test_coeffs(test_function):
    """Spectral coefficients of a LayerField or coefficient array."""
    if isinstance(test_function, LayerField):
        test_function = test_function.spectral()
    return np.asarray(test_function, dtype=float)


def _transport_key(phi_hat):
    return ("transport", phi_hat.shape, phi_hat.tobytes())


def _snapshot_series(record: TrajectoryRecord, names=tuple(_NAMED_SERIES),
                     exponents=(), test_functions=()) -> dict:
    """Per-snapshot series for the monitors, from one pass over the
    snapshots, memoized on the record; returns the record's series dict.

    Only the series not yet memoized are computed.  Each snapshot is one
    unbatched (3, Nx, Ny) `ObsContext` sample, whose reductions are
    scalars; it synthesizes each grid the series read once, at most the
    17 grids of q, W, eta, grad q, grad eta, grad W, u = grad^perp psi,
    D^2 psi and D^2 W.
    """
    basis, memo = record.config.basis, record._series
    w = basis.quad_weights
    todo = {name: fn for name, fn in _NAMED_SERIES.items() if name in names}
    exps = tuple(sorted(set(map(even_exponent, exponents))))
    todo.update({(f, p): lambda ctx, f=f, i=i: ctx.lp_norms(f, exps)[i]
                 for f in _LP_FIELDS for i, p in enumerate(exps)})
    todo = {key: fn for key, fn in todo.items() if key not in memo}
    for phi in map(_test_coeffs, test_functions):
        if (key := _transport_key(phi)) not in memo and key not in todo:
            px, py = basis.grad_grids(phi)      # once for every snapshot
            todo[key] = lambda ctx, px=px, py=py: field_sum(
                ctx.grid("q") * (ctx.u[0] * px + ctx.u[1] * py) * w)
    if not todo:
        return memo
    out = {key: np.empty(len(record.snap_times)) for key in todo}
    for s, (q_hat, w_hat) in enumerate(zip(record.q_snapshots,
                                           record.w_snapshots)):
        ctx = ObsContext(record.config.coupling, q_hat, w_hat)
        for key, fn in todo.items():
            out[key][s] = fn(ctx)
    memo.update(out)
    return memo


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

    Snapshots with q identically zero are skipped and flagged.
    """
    series = _snapshot_series(record, ("q_inf", "grad_u_inf", "grad_q_l4"))
    q_inf = series["q_inf"]
    skipped = q_inf == 0.0
    ratios = np.zeros(len(q_inf))
    for s in np.flatnonzero(~skipped):
        g4 = series["grad_q_l4"][s]
        log_plus = max(np.log(g4), 0.0) if g4 > 0 else 0.0
        ratios[s] = series["grad_u_inf"][s] / (q_inf[s] * (1.0 + log_plus))
    valid = ratios[~skipped]
    return MonitorReport(times=record.snap_times, series=ratios,
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
    cfg = record.config
    p = 2 * k
    series = _snapshot_series(record, ("grad_w_inf",), exponents=(p,))
    q_norm, w_norm, eta_norm, u_lp = (series[f, p] for f in _LP_FIELDS)
    forcing = u_lp * series["grad_w_inf"] + cfg.gamma * w_norm
    times = record.snap_times
    rate = np.full(len(times), cfg.gamma)
    env_eta = _damped_integrate(rate, forcing, times, eta_norm[0])
    # copies, so that no caller can change the memoized series
    return q_norm.copy(), env_eta + w_norm, eta_norm.copy(), env_eta


def w14_monitor(record: TrajectoryRecord) -> MonitorReport:
    """||grad q_t||_L4 series with its a-posteriori envelope.

    The eta-gradient inequality
        d/dt ||grad eta||_4 <= (||grad u||_inf - gamma) ||grad eta||_4
            + ||grad u||_inf ||grad W||_4 + ||u||_inf ||hess W||_4
            + gamma ||grad W||_4
    is integrated with all coefficients measured from the record; the
    q-envelope adds ||grad W_t||_4.
    """
    cfg = record.config
    times = record.snap_times
    series = _snapshot_series(record, ("grad_q_l4", "grad_eta_l4",
                                       "grad_w_l4", "grad_u_inf", "u_inf",
                                       "hess_w_l4"))
    grad_q = series["grad_q_l4"].copy()
    grad_w4 = series["grad_w_l4"]
    grad_u_inf = series["grad_u_inf"]
    rate = cfg.gamma - grad_u_inf
    forcing = (grad_u_inf * grad_w4 + series["u_inf"] * series["hess_w_l4"]
               + cfg.gamma * grad_w4)
    env_eta = _damped_integrate(rate, forcing, times,
                                series["grad_eta_l4"][0])
    envelope = env_eta + grad_w4
    return MonitorReport(times=times, series=grad_q,
                         maximum=float(np.max(grad_q)),
                         skipped=np.zeros(len(times), dtype=bool),
                         envelope=envelope,
                         dominated=dominated(grad_q, envelope))
