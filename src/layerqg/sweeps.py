"""Ladder studies: mode refinement, vanishing viscosity and
perturbation stability.

All comparisons are noise-path-coupled: both members of every pair consume
the identical Brownian increments (pregenerated per eigenpair and summed
for coarser steps, or scattered into finer mode cuts), so reported
distances measure discretization and parameter effects only.

Galerkin and viscosity rungs differ in basis or linear operator: each is
one `run_trajectory` call, and `dynamics._fan_out` spreads them over
threads.  The stability runs are the paths of one `_run_paths` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .coupling import eigenpairs, solve_elliptic_coeffs, symmetrize
from .dynamics import (SimConfig, TrajectoryRecord, _fan_out, _run_paths,
                       initial_coeffs, run_trajectory)
from .errors import ConfigurationError, ShapeError
from .experiments import _trapz
from .noise import BrownianIncrements, sample_path
from .spectral import LayerField, build_basis


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


def _l2_sup_distance(rec_a: TrajectoryRecord, rec_b: TrajectoryRecord) -> float:
    """sup_t L2 distance via Parseval, coarse modes taken as zero: the
    squared difference over the shared block plus each rung's tail."""
    qa, qb = rec_a.q_snapshots, rec_b.q_snapshots
    if qa.shape[0] != qb.shape[0]:
        raise ShapeError("records have different snapshot counts")
    nx, ny = min(qa.shape[2], qb.shape[2]), min(qa.shape[3], qb.shape[3])
    total = sum(np.einsum("sijk,sijk->s", part, part) for part in (
        qa[..., :nx, :ny] - qb[..., :nx, :ny], qa[..., nx:, :],
        qa[..., :nx, ny:], qb[..., nx:, :], qb[..., :nx, ny:]))
    return float(np.max(np.sqrt(total)))


def _h_minus1_sup_distance(rec_a, rec_b) -> float:
    d = rec_a.q_snapshots - rec_b.q_snapshots
    weighted = d**2 / rec_a.config.basis.eigenvalues
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
        pairs = eigenpairs(coupling, max(k, 1))
        cfg = replace(config, pairs=pairs, snap_every=snap_every)
        tic = time.perf_counter()
        rec = run_trajectory(cfg, observables=[], noise_path=path)
        return rec, time.perf_counter() - tic

    records, runtimes = zip(*_fan_out(rung, n_ladder, threads))
    dists = np.array([_l2_sup_distance(a, b)
                      for a, b in zip(records, records[1:])])
    return SweepReport(kind="galerkin", ladder=n_ladder,
                       distance_name="sup_t L2", distances=dists,
                       runtimes=np.array(runtimes))


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

    records, runtimes, est2 = zip(*_fan_out(rung, eps_ladder, threads))
    dists = np.array([_h_minus1_sup_distance(a, b)
                      for a, b in zip(records, records[1:])])
    return SweepReport(kind="viscosity", ladder=eps_ladder,
                       distance_name="sup_t H^-1", distances=dists,
                       extras={"est2": np.array(est2)},
                       runtimes=np.array(runtimes))


def yudovich_stability(config: SimConfig, delta_ladder,
                       perturbation: LayerField, snap_every: int = 1,
                       threads: int = 1) -> SweepReport:
    """Twin runs from q0 and q0 + delta * P on one noise path.

    z_t is the L2 norm of the gradient of the stream-function difference;
    the report carries z_T per delta (as extras) plus its full series,
    max step-to-step jump, and the distances between consecutive deltas'
    z_T as the ladder metric.  The perturbation is sup-normalized.  The
    base and perturbed runs step as one batch, whose CFL guard watches
    the largest |u| of them all.
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

    q0 = initial_coeffs(config.init, config.basis)
    initial = np.stack([q0] + [q0 + delta * pert for delta in delta_ladder])
    records = _run_paths(replace(config, snap_every=snap_every), [],
                         [0] * len(initial), initial,
                         _coupled_path(config, stream=0), threads=threads)
    psi = solve_elliptic_coeffs(config.coupling, np.stack(
        [rec.q_snapshots for rec in records]))          # (1 + D, S, ...)
    z = np.sqrt(np.sum((psi[1:] - psi[0])**2 * config.basis.eigenvalues,
                       axis=(2, 3, 4)))                 # (D, S)
    return SweepReport(
        kind="stability", ladder=delta_ladder, distance_name="z_T",
        distances=z[:, -1],
        extras={"z_series": list(z), "times": records[0].snap_times,
                "max_jump": np.abs(np.diff(z)).max(axis=1)})
