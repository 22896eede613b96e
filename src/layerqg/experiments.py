"""Runnable studies: mode refinement, vanishing viscosity, perturbation
stability, weak-form residuals, and a-posteriori envelope diagnostics.

All comparisons are noise-path-coupled: both members of every pair consume
the identical Brownian increments (pregenerated per eigenpair and summed
for coarser steps, or scattered into finer mode cuts), so reported
distances measure discretization and parameter effects only.

Envelopes are built a-posteriori: the differential inequalities behind
the L^{2k} and W^{1,4} bounds are integrated with coefficient functions
measured from the recorded path itself, turning qualitative estimates
into pointwise dominance checks.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .coupling import eigenpairs, solve_elliptic_coeffs, symmetrize
from .dynamics import (SimConfig, TrajectoryRecord, grad_l4, initial_coeffs,
                       run_trajectory)
from .errors import ConfigurationError, SamplingError, ShapeError
from .noise import BrownianIncrements, sample_path
from .spectral import LayerField, N_LAYERS, build_basis, lp_norm


@dataclass
class SweepReport:
    """Ladder study output: per-rung-pair distances and a verdict."""

    kind: str
    ladder: list
    distance_name: str
    distances: np.ndarray          # len(ladder) - 1 consecutive distances
    extras: dict = field(default_factory=dict)
    runtimes: np.ndarray | None = None

    def __post_init__(self):
        steps = np.diff(np.asarray(self.ladder, dtype=float))
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ConfigurationError("ladder must be strictly monotone")
        if np.any(np.asarray(self.distances) < 0):
            raise ConfigurationError("distances must be nonnegative")

    @property
    def monotone_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.distances) < 0))

    @property
    def first_violation(self) -> int | None:
        bad = np.flatnonzero(np.diff(self.distances) >= 0)
        return int(bad[0]) if len(bad) else None

    @property
    def empirical_rate(self) -> float:
        """Mean log2 contraction factor between consecutive distances."""
        d = np.asarray(self.distances)
        if len(d) < 2 or np.any(d <= 0):
            return np.nan
        return float(np.mean(np.log2(d[:-1] / d[1:])))

    def rows(self):
        """CSV rows: rung label, distance."""
        if len(self.distances) == len(self.ladder) - 1:
            labels = [f"{self.ladder[i]}->{self.ladder[i + 1]}"
                      for i in range(len(self.distances))]
        else:
            labels = [str(r) for r in self.ladder]
        return list(zip(labels, self.distances))


def _coupled_path(config: SimConfig, stream: int) -> BrownianIncrements:
    gen = rngmod.stream(config.seed, stream)
    return sample_path(config.noise, config.n_steps, config.dt, gen)


def _fan_out(worker, items, threads):
    """Run one worker per rung, merging results in rung order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _l2_sup_distance(rec_a: TrajectoryRecord, rec_b: TrajectoryRecord) -> float:
    """sup_t L2 distance via Parseval, coarse modes zero-padded."""
    qa, qb = rec_a.q_snapshots, rec_b.q_snapshots
    if qa.shape[0] != qb.shape[0]:
        raise ShapeError("records have different snapshot counts")
    na = qa.shape[2:]
    nb = qb.shape[2:]
    big = (max(na[0], nb[0]), max(na[1], nb[1]))
    diff = np.zeros((qa.shape[0], N_LAYERS) + big)
    diff[:, :, : na[0], : na[1]] = qa
    diff[:, :, : nb[0], : nb[1]] -= qb
    return float(np.max(np.sqrt(np.sum(diff**2, axis=(1, 2, 3)))))


def _h_minus1_sup_distance(rec_a, rec_b, basis) -> float:
    d = rec_a.q_snapshots - rec_b.q_snapshots
    weighted = d**2 / basis.eigenvalues
    return float(np.max(np.sqrt(np.sum(weighted, axis=(1, 2, 3)))))


def galerkin_sweep(config: SimConfig, n_ladder, snap_every: int = 1,
                   threads: int = 1) -> SweepReport:
    """Same noise path and initial datum across ascending mode cuts;
    reports sup_t L2 distances between consecutive rungs.

    Noise eigenpairs must fit inside the coarsest cut so the coefficients
    transfer by eigenpair identity.
    """
    n_ladder = list(n_ladder)
    if len(n_ladder) < 3:
        raise ConfigurationError("ladder needs at least 3 rungs")
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ConfigurationError("mode ladder must be strictly increasing")
    n_min = n_ladder[0]
    k = config.noise.k
    if k and (config.pairs.mode_n[:k].max() > n_min or
              config.pairs.mode_m[:k].max() > n_min):
        raise ConfigurationError(
            "noise truncation uses modes beyond the coarsest rung")
    path = _coupled_path(config, stream=0)

    def rung(n):
        basis = build_basis(config.basis.lx, config.basis.ly, n, n)
        coupling = symmetrize(config.coupling.lambdas, basis,
                              config.coupling.scale)
        pairs = eigenpairs(coupling, basis, max(k, 1))
        cfg = replace(config, basis=basis, coupling=coupling, pairs=pairs,
                      snap_every=snap_every)
        tic = time.perf_counter()
        rec = run_trajectory(cfg, observables=[], noise_path=path)
        return rec, time.perf_counter() - tic

    results = _fan_out(rung, n_ladder, threads)
    records = [r for r, _ in results]
    dists = np.array([_l2_sup_distance(a, b)
                      for a, b in zip(records, records[1:])])
    return SweepReport(kind="galerkin", ladder=n_ladder,
                       distance_name="sup_t L2", distances=dists,
                       runtimes=np.array([t for _, t in results]))


def viscosity_sweep(config: SimConfig, eps_ladder, snap_every: int = 1,
                    threads: int = 1) -> SweepReport:
    """Fixed seed and mode cut, viscosity ladder decreasing toward zero.

    Reports sup_t H^-1 distances between consecutive rungs and the
    products eps * ||q^eps||_{L2_t H1_x} per rung.
    """
    eps_ladder = list(eps_ladder)
    if len(eps_ladder) < 3:
        raise ConfigurationError("ladder needs at least 3 rungs")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ConfigurationError("eps ladder must be strictly decreasing")
    path = _coupled_path(config, stream=0)

    def rung(eps):
        cfg = replace(config, viscosity=eps, snap_every=snap_every)
        tic = time.perf_counter()
        rec = run_trajectory(cfg, observables=[], noise_path=path)
        elapsed = time.perf_counter() - tic
        h1_sq = np.sum(rec.q_snapshots**2 * cfg.basis.eigenvalues,
                       axis=(1, 2, 3))
        return rec, elapsed, eps * np.sqrt(_trapz(h1_sq, rec.snap_times))

    results = _fan_out(rung, eps_ladder, threads)
    records = [r for r, _, _ in results]
    dists = np.array([_h_minus1_sup_distance(a, b, config.basis)
                      for a, b in zip(records, records[1:])])
    return SweepReport(kind="viscosity", ladder=eps_ladder,
                       distance_name="sup_t H^-1", distances=dists,
                       extras={"est2": np.array([e for _, _, e in results])},
                       runtimes=np.array([t for _, t, _ in results]))


def yudovich_stability(config: SimConfig, delta_ladder,
                       perturbation: LayerField, snap_every: int = 1,
                       threads: int = 1) -> SweepReport:
    """Twin runs from q0 and q0 + delta * P on one noise path.

    z_t is the L2 norm of the gradient of the stream-function difference;
    the report carries z_T per delta (as extras) plus its full series,
    max step-to-step jump, and the distances between consecutive deltas'
    z_T as the ladder metric.  The perturbation is sup-normalized.
    """
    delta_ladder = list(delta_ladder)
    if any(d <= 0 for d in delta_ladder):
        raise ConfigurationError("delta ladder entries must be positive")
    if any(b >= a for a, b in zip(delta_ladder, delta_ladder[1:])):
        raise ConfigurationError("delta ladder must be strictly decreasing")
    peak = np.max(np.abs(perturbation.values()))
    if peak == 0:
        raise ConfigurationError("perturbation must be nonzero")
    pert = perturbation.spectral() / peak

    path = _coupled_path(config, stream=0)
    cfg = replace(config, snap_every=snap_every)
    base = run_trajectory(cfg, observables=[], noise_path=path)
    base_psi = solve_elliptic_coeffs(config.coupling, base.q_snapshots)

    def z_series(rec):
        d = solve_elliptic_coeffs(config.coupling, rec.q_snapshots) - base_psi
        return np.sqrt(np.sum(d**2 * config.basis.eigenvalues,
                              axis=(1, 2, 3)))

    q0 = initial_coeffs(config.init, config.basis)

    def rung(delta):
        tic = time.perf_counter()
        rec = run_trajectory(cfg, observables=[], noise_path=path,
                             initial=q0 + delta * pert)
        return z_series(rec), time.perf_counter() - tic

    results = _fan_out(rung, delta_ladder, threads)
    z_all = [z for z, _ in results]
    return SweepReport(
        kind="stability", ladder=delta_ladder, distance_name="z_T",
        distances=np.array([float(z[-1]) for z in z_all]),
        extras={"z_series": z_all, "times": base.snap_times,
                "max_jump": np.array([
                    float(np.max(np.abs(np.diff(z)))) if len(z) > 1 else 0.0
                    for z in z_all])},
        runtimes=np.array([t for _, t in results]))


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
    basis = cfg.basis
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

    phis = [tf.spectral() if isinstance(tf, LayerField) else np.asarray(tf)
            for tf in test_functions]
    grad_phi = [basis.grad_grids(p) for p in phis]

    n_snap = len(times)
    pairings = np.array([[float(np.sum(q * p)) for p in phis]
                         for q in record.q_snapshots])         # (S, P)
    noise_pair = np.array([[float(np.sum(w * p)) for p in phis]
                           for w in record.w_snapshots])
    transport = np.empty((n_snap, len(phis)))
    w = basis.quad_weights
    for s, q_hat in enumerate(record.q_snapshots):
        psi_hat = solve_elliptic_coeffs(cfg.coupling, q_hat)
        u1, u2 = basis.perp_grad_grids(psi_hat)
        q_grid = basis.inverse(q_hat)
        for p, (px, py) in enumerate(grad_phi):
            transport[s, p] = np.sum(q_grid * (u1 * px + u2 * py) * w)

    residuals = np.empty((len(phis), n_snap))
    for p in range(len(phis)):
        int_transport = _cumtrapz(transport[:, p], times)
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


# -- monitors -----------------------------------------------------------


def _grid_linf(basis, coeffs):
    return float(np.max(np.abs(basis.inverse(coeffs))))


def _velocity_gradient_linf(basis, psi_hat):
    """max over grid, layers and components of |grad u| entries."""
    # grad u rows: u1 = -psi_y, u2 = psi_x, so the entries are the Hessian's
    return max(float(np.max(np.abs(h))) for h in basis.hessian_grids(psi_hat))


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
    cfg = record.config
    basis = cfg.basis
    ratios, skipped = [], []
    for q_hat in record.q_snapshots:
        q_inf = _grid_linf(basis, q_hat)
        if q_inf == 0.0:
            ratios.append(0.0)
            skipped.append(True)
            continue
        psi_hat = solve_elliptic_coeffs(cfg.coupling, q_hat)
        grad_u = _velocity_gradient_linf(basis, psi_hat)
        g4 = grad_l4(basis, q_hat)
        log_plus = max(np.log(g4), 0.0) if g4 > 0 else 0.0
        ratios.append(grad_u / (q_inf * (1.0 + log_plus)))
        skipped.append(False)
    ratios = np.array(ratios)
    skipped = np.array(skipped, dtype=bool)
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
        decay = np.exp(-a * h)
        e[s] = e[s - 1] * decay + f * ((1 - decay) / a if a != 0 else h)
    return e


def lp_envelope(record: TrajectoryRecord, k: int):
    """A-posteriori envelope for the L^{2k} norm of q along the record.

    Integrates e' = -gamma e + F(t) with measured forcing
    F = ||u||_{2k} ||grad W||_inf + gamma ||W||_{2k}, starting from
    ||q_0||_{2k}; the envelope for q is e(t) + ||W_t||_{2k}.
    Returns (series of ||q_t||_{2k}, envelope).
    """
    cfg = record.config
    basis = cfg.basis
    p = 2 * k
    times = record.snap_times
    q_norm = np.empty(len(times))
    forcing = np.empty(len(times))
    w_norm = np.empty(len(times))
    eta_norm = np.empty(len(times))
    for s, (q_hat, w_hat) in enumerate(zip(record.q_snapshots,
                                           record.w_snapshots)):
        qf = LayerField.from_coeffs(basis, q_hat)
        wf = LayerField.from_coeffs(basis, w_hat)
        ef = LayerField.from_coeffs(basis, q_hat - w_hat)
        q_norm[s] = lp_norm(qf, p)
        w_norm[s] = lp_norm(wf, p)
        eta_norm[s] = lp_norm(ef, p)
        psi_hat = solve_elliptic_coeffs(cfg.coupling, q_hat)
        u1, u2 = basis.perp_grad_grids(psi_hat)
        speed = np.sqrt(u1**2 + u2**2)
        u_lp = lp_norm(LayerField.from_grid(basis, speed), p)
        wx_max = max(np.max(np.abs(g)) for g in basis.grad_grids(w_hat))
        forcing[s] = u_lp * wx_max + cfg.gamma * w_norm[s]
    rate = np.full(len(times), cfg.gamma)
    env_eta = _damped_integrate(rate, forcing, times, eta_norm[0])
    return q_norm, env_eta + w_norm, eta_norm, env_eta


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
    basis = cfg.basis
    times = record.snap_times
    n = len(times)
    grad_q = np.empty(n)
    grad_eta = np.empty(n)
    grad_w4 = np.empty(n)
    rate = np.empty(n)
    forcing = np.empty(n)
    w = basis.quad_weights
    for s, (q_hat, w_hat) in enumerate(zip(record.q_snapshots,
                                           record.w_snapshots)):
        grad_q[s] = grad_l4(basis, q_hat)
        grad_eta[s] = grad_l4(basis, q_hat - w_hat)
        grad_w4[s] = grad_l4(basis, w_hat)
        psi_hat = solve_elliptic_coeffs(cfg.coupling, q_hat)
        grad_u_inf = _velocity_gradient_linf(basis, psi_hat)
        u1, u2 = basis.perp_grad_grids(psi_hat)
        u_inf = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        hxx, hxy, hyy = basis.hessian_grids(w_hat)
        hess4 = np.sum((hxx**2 + 2 * hxy**2 + hyy**2) ** 2 * w) ** 0.25
        rate[s] = cfg.gamma - grad_u_inf
        forcing[s] = (grad_u_inf * grad_w4[s] + u_inf * hess4
                      + cfg.gamma * grad_w4[s])
    env_eta = _damped_integrate(rate, forcing, times, grad_eta[0])
    envelope = env_eta + grad_w4
    dominated = bool(np.all(grad_q <= envelope * (1 + 1e-9) + 1e-12))
    return MonitorReport(times=times, series=grad_q,
                         maximum=float(np.max(grad_q)),
                         skipped=np.zeros(n, dtype=bool),
                         envelope=envelope, dominated=dominated)
