"""Ladder studies: mode refinement, vanishing viscosity and
perturbation stability.

All comparisons are noise-path-coupled: every rung is a run of the
stepping loop on stream 0, which draws the identical Brownian increments
on the config's own eigenpairs (scattered into each rung's mode cut), so
reported distances measure discretization and parameter effects only.

Every study streams: the sample generators of its runs step in lockstep
(`_lockstep`), and each sample is folded into a running result before the
next, so no field outlives its sample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import OperatorEigenpairs, solve_elliptic_coeffs, symmetrize
from .dynamics import SimConfig, _batches, initial_coeffs
from .errors import BlowUpError, ConfigurationError, TimeStepError
from .experiments import _trapz
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
        """CSV rows: rung pair label, distance."""
        return [(f"{a}->{b}", d) for a, b, d in
                zip(self.ladder, self.ladder[1:], self.distances)]


def _lockstep(batches, fold):
    """Step the `_batches` runs one sample each in turn, call fold() with
    their (j, ObsContext) samples, and return each run's stepping seconds.
    An abort in any run stops the study at that sample; the earliest
    abort raises.  Overflow warnings are silenced around the drive, never
    across a yield."""
    seconds = np.zeros(len(batches))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            samples, stops = [], []
            for i, (_, gen) in enumerate(batches):
                tic = time.perf_counter()
                try:
                    samples.append(next(gen, None))
                except (BlowUpError, TimeStepError) as exc:
                    stops.append(exc)
                seconds[i] += time.perf_counter() - tic
            if stops:
                raise min(stops, key=lambda exc: exc.time)
            if samples[0] is None:
                return seconds
            fold(samples)


def _l2_distance(qa, qb) -> float:
    """L2 distance of two (3, Nx, Ny) coefficient arrays via Parseval, a
    missing mode taken as zero: the shared block's plus both tails'."""
    nx, ny = min(qa.shape[1], qb.shape[1]), min(qa.shape[2], qb.shape[2])
    return float(np.sqrt(sum(np.einsum("ijk,ijk->", part, part) for part in (
        qa[:, :nx, :ny] - qb[:, :nx, :ny], qa[:, nx:, :], qa[:, :nx, ny:],
        qb[:, nx:, :], qb[:, :nx, ny:]))))


def galerkin_sweep(config: SimConfig, n_ladder,
                   snap_every: int = 1) -> SweepReport:
    """Same noise path and initial datum across ascending mode cuts;
    reports sup_t L2 distances between consecutive rungs, over samples
    every `snap_every` steps.

    Every rung draws stream 0 and carries the config's first max(K, 1)
    eigenpairs on its own basis, so the noise eigenpairs must fit inside
    the coarsest cut.
    """
    n_ladder = list(n_ladder)
    if len(n_ladder) < 3:
        raise ConfigurationError("ladder needs at least 3 rungs")
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ConfigurationError("mode ladder must be strictly increasing")
    head = {name: getattr(config.pairs, name)[:max(config.noise.k, 1)]
            for name in ("mode_n", "mode_m", "comp_j", "mu", "vec")}
    if max(head["mode_n"].max(), head["mode_m"].max()) > n_ladder[0]:
        raise ConfigurationError(
            "noise truncation uses modes beyond the coarsest rung")

    def rung(n):
        basis = build_basis(config.basis.lx, config.basis.ly, n, n)
        return replace(config, pairs=OperatorEigenpairs(symmetrize(
            config.coupling.lambdas, basis, config.coupling.scale), **head))

    sup = np.zeros(len(n_ladder) - 1)

    def fold(samples):
        qs = [ctx.q_hat[0] for _, ctx in samples]
        for i, (qa, qb) in enumerate(zip(qs, qs[1:])):
            sup[i] = max(sup[i], _l2_distance(qa, qb))

    runtimes = _lockstep([run for n in n_ladder for run in _batches(
        rung(n), [0], every=(snap_every,))], fold)
    return SweepReport(kind="galerkin", ladder=n_ladder,
                       distance_name="sup_t L2", distances=sup,
                       runtimes=runtimes)


def viscosity_sweep(config: SimConfig, eps_ladder,
                    snap_every: int = 1) -> SweepReport:
    """Fixed seed and mode cut, viscosity ladder decreasing toward zero.

    Reports sup_t H^-1 distances between consecutive rungs and the
    products eps * ||q^eps||_{L2_t H1_x} per rung, over samples every
    `snap_every` steps.
    """
    eps_ladder = list(eps_ladder)
    if len(eps_ladder) < 3:
        raise ConfigurationError("ladder needs at least 3 rungs")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ConfigurationError("eps ladder must be strictly decreasing")
    lam = config.basis.eigenvalues
    sup = np.zeros(len(eps_ladder) - 1)
    times, h1_sq = [], []           # h1_sq: per sample, ||q||_H1^2 per rung

    def fold(samples):
        q = np.concatenate([ctx.q_hat for _, ctx in samples])
        times.append(samples[0][0] * config.dt)
        h1_sq.append(np.sum(q**2 * lam, axis=(1, 2, 3)))
        np.maximum(sup, np.sqrt(np.sum((q[:-1] - q[1:])**2 / lam,
                                       axis=(1, 2, 3))), out=sup)

    runtimes = _lockstep([run for eps in eps_ladder for run in _batches(
        replace(config, viscosity=eps), [0], every=(snap_every,))], fold)
    est2 = [eps * np.sqrt(_trapz(series, times))
            for eps, series in zip(eps_ladder, np.transpose(h1_sq))]
    return SweepReport(kind="viscosity", ladder=eps_ladder,
                       distance_name="sup_t H^-1", distances=sup,
                       extras={"est2": np.array(est2)}, runtimes=runtimes)


def yudovich_stability(config: SimConfig, delta_ladder,
                       perturbation: LayerField,
                       snap_every: int = 1) -> SweepReport:
    """Twin runs from q0 and q0 + delta * P on one noise path.

    z_t is the L2 norm of the gradient of the stream-function difference,
    at samples every `snap_every` steps; the report carries z_T per delta
    (as extras) plus its full series, max step-to-step jump, and the
    distances between consecutive deltas' z_T as the ladder metric.  The
    perturbation is sup-normalized.  The base and perturbed runs step as
    the paths of one batched run, whose batches step in lockstep, and
    the CFL guard of each batch watches the largest |u| of its paths.
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
    times, z = [], []

    def fold(samples):
        times.append(samples[0][0] * config.dt)
        psi = solve_elliptic_coeffs(config.coupling, np.concatenate(
            [ctx.q_hat for _, ctx in samples]))           # (1 + D, ...)
        z.append(np.sqrt(np.sum((psi[1:] - psi[0])**2
                                * config.basis.eigenvalues, axis=(1, 2, 3))))

    _lockstep(_batches(config, [0] * len(initial), initial,
                       every=(snap_every,)), fold)
    z = np.transpose(z)                                 # (D, S)
    return SweepReport(
        kind="stability", ladder=delta_ladder, distance_name="z_T",
        distances=z[:, -1],
        extras={"z_series": list(z), "times": np.array(times),
                "max_jump": np.abs(np.diff(z)).max(axis=1)})
