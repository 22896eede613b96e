"""Time stepping for the damped, forced 3-layer system.

State variable is eta = q - W (q potential vorticity, W the accumulated
Wiener path), which satisfies the random PDE

    d/dt eta + (u . grad)(eta + W) + gamma eta = eps^2 Lap eta - gamma W ,
    u = grad_perp (A + L)^{-1} (eta + W) ,

with no stochastic integral: the eps^2 Lap W forcing of the viscous
q-equation cancels exactly inside the eta formulation.  One step applies
the integrating factor exp(-(gamma + eps^2 lambda_{n,m}) dt) exactly per
mode and advances the transport and -gamma W forcing explicitly
(first-order exponential Euler).  With transport and noise off, every mode
therefore decays by the exact factor per step.

Transport is computed pseudo-spectrally: exact spectral derivatives,
pointwise products on the G >= 2N grid (alias-free for quadratic
products), projection back onto the retained sine band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import hashlib

import numpy as np

from . import rng as rngmod
from .coupling import (LayerCoupling, OperatorEigenpairs,
                       solve_elliptic_coeffs)
from .errors import (BlowUpError, ConfigurationError, ShapeError,
                     TimeStepError)
from .noise import BrownianIncrements, NoiseMixer, NoiseSpec
from .spectral import LayerField, N_LAYERS, SpectralBasis, lp_norm


# -- initial data -------------------------------------------------------


def initial_coeffs(descriptor: str, basis: SpectralBasis) -> np.ndarray:
    """Realize an initial-datum descriptor in a given basis.

    Grammar:
        zero
        mode:<n>,<m>:<a1>,<a2>,<a3>       single spatial mode
        lowband:<nmax>:<amp>:<seed>       seeded random band, L2 norm amp

    lowband normalizes in L2 through the coefficients, so the same
    descriptor realizes the identical function on every mode cut that
    contains the band (refinement studies rely on this).
    """
    shape = (N_LAYERS,) + basis.spectral_shape
    if descriptor == "zero":
        return np.zeros(shape)
    kind, _, rest = descriptor.partition(":")
    try:
        if kind == "mode":
            mode_part, _, amp_part = rest.partition(":")
            n, m = (int(v) for v in mode_part.split(","))
            amps = [float(v) for v in amp_part.split(",")]
            if len(amps) != N_LAYERS:
                raise ValueError("need three layer amplitudes")
            c = np.zeros(shape)
            c[:, n - 1, m - 1] = amps
            return c
        if kind == "lowband":
            nmax_s, amp_s, seed_s = rest.split(":")
            nmax, amp, seed = int(nmax_s), float(amp_s), int(seed_s)
            if nmax > min(basis.nx, basis.ny):
                raise ValueError("lowband nmax exceeds the mode cut")
            gen = rngmod.stream(seed, 0)
            c = np.zeros(shape)
            band = gen.standard_normal((N_LAYERS, nmax, nmax))
            lam = basis.eigenvalues[:nmax, :nmax]
            c[:, :nmax, :nmax] = band / lam
            return c * (amp / np.sqrt(np.sum(c**2)))
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"bad init descriptor {descriptor!r}: {exc}")
    raise ConfigurationError(f"unknown init descriptor {descriptor!r}")


# -- observables ---------------------------------------------------------


class ObsContext:
    """Lazy per-sample-time evaluation cache handed to observables."""

    def __init__(self, basis, coupling, q_hat, w_hat):
        self.basis = basis
        self.coupling = coupling
        self.q_hat = q_hat
        self.w_hat = w_hat

    @cached_property
    def q_grid(self):
        return self.basis.inverse(self.q_hat)


@dataclass(frozen=True)
class Observable:
    name: str
    fn: callable

    def __call__(self, ctx: ObsContext) -> float:
        return float(self.fn(ctx))


def obs_lp(p) -> Observable:
    label = "linf" if p in (np.inf, "inf") else f"l{int(p)}"
    def fn(ctx):
        return lp_norm(LayerField.from_grid(ctx.basis, ctx.q_grid), p)
    return Observable(label, fn)


def obs_h(alpha: float) -> Observable:
    lam_pow = float(alpha)
    def fn(ctx):
        lam = ctx.basis.eigenvalues
        return np.sqrt(np.sum(lam**lam_pow * ctx.q_hat**2))
    return Observable(f"h{alpha:g}", fn)


def grad_l4(basis: SpectralBasis, q_hat: np.ndarray) -> float:
    """(sum_i int_D |grad q^i|^4 dx)^(1/4) from sine coefficients."""
    gx, gy = basis.grad_grids(q_hat)
    return float(np.sum((gx**2 + gy**2) ** 2 * basis.quad_weights)) ** 0.25


def obs_grad_l4() -> Observable:
    return Observable("gradl4", lambda ctx: grad_l4(ctx.basis, ctx.q_hat))


def obs_pairing(pairs: OperatorEigenpairs, k: int, square=False) -> Observable:
    n = pairs.mode_n[k] - 1
    m = pairs.mode_m[k] - 1
    v = pairs.vec[k]
    def fn(ctx):
        val = float(ctx.q_hat[:, n, m] @ v)
        return val * val if square else val
    tag = "pairsq" if square else "pair"
    label = f"{tag}:{pairs.mode_n[k]}.{pairs.mode_m[k]}.{pairs.comp_j[k]}"
    return Observable(label, fn)


def obs_noise_h(alpha: float) -> Observable:
    def fn(ctx):
        lam = ctx.basis.eigenvalues
        return np.sqrt(np.sum(lam**alpha * ctx.w_hat**2))
    return Observable(f"wh{alpha:g}", fn)


def parse_observables(text: str, pairs: OperatorEigenpairs | None = None):
    """Comma list: l2 l4 ... linf, h<alpha>, wh<alpha>, gradl4, pair:n.m.j."""
    out = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        if token == "linf":
            out.append(obs_lp(np.inf))
        elif token == "gradl4":
            out.append(obs_grad_l4())
        elif token.startswith("wh"):
            out.append(obs_noise_h(float(token[2:])))
        elif token.startswith(("pair:", "pairsq:")):
            if pairs is None:
                raise ConfigurationError(f"{token}: no eigenpairs available")
            tag, _, rest = token.partition(":")
            try:
                n, m, j = (int(v) for v in rest.split("."))
            except ValueError:
                raise ConfigurationError(f"{token}: expected {tag}:n.m.j")
            hits = np.flatnonzero((pairs.mode_n == n) & (pairs.mode_m == m)
                                  & (pairs.comp_j == j))
            if not len(hits):
                raise ConfigurationError(f"{token}: eigenpair not retained")
            out.append(obs_pairing(pairs, int(hits[0]),
                                   square=tag == "pairsq"))
        elif token.startswith("l"):
            out.append(obs_lp(int(token[1:])))
        elif token.startswith("h"):
            out.append(obs_h(float(token[1:])))
        else:
            raise ConfigurationError(f"unknown observable {token!r}")
    return out


DEFAULT_OBSERVABLES = "l2,l4,linf,h1"


# -- configuration -------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Everything one trajectory needs; immutable and shareable."""

    basis: SpectralBasis
    coupling: LayerCoupling
    pairs: OperatorEigenpairs
    noise: NoiseSpec
    gamma: float
    viscosity: float            # eps; eps^2 multiplies the Laplacian
    dt: float
    horizon: float
    nonlinear: bool = True
    init: str = "zero"
    seed: int = 0
    cfl_safety: float = 0.5     # 0 disables the adaptive guard
    obs_every: int = 1
    snap_every: int = 0         # 0: no snapshots

    def __post_init__(self):
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.viscosity < 0:
            raise ConfigurationError("viscosity must be nonnegative")
        if self.dt <= 0 or self.horizon <= 0:
            raise ConfigurationError("dt and horizon must be positive")
        if self.cfl_safety < 0:
            raise ConfigurationError("cfl_safety must be nonnegative")
        if self.cfl_safety > 0 and self.dt > self.cfl_safety / self.gamma:
            raise TimeStepError(
                f"dt={self.dt} exceeds stability ceiling "
                f"{self.cfl_safety}/gamma={self.cfl_safety / self.gamma}")

    @property
    def n_steps(self) -> int:
        n = round(self.horizon / self.dt)
        if abs(n * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ConfigurationError("horizon must be a multiple of dt")
        return n

    def config_hash(self) -> str:
        text = (f"{self.basis}|{self.coupling.lambdas}|{self.coupling.scale}|"
                f"{self.noise.k},{self.noise.decay},{self.noise.sigma}|"
                f"{self.gamma},{self.viscosity},{self.dt},{self.horizon},"
                f"{self.nonlinear},{self.init},{self.seed},{self.cfl_safety}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrajectoryRecord:
    """Time series output of one seeded sample path."""

    times: np.ndarray                  # observable sample times
    observables: dict                  # name -> array over times
    snap_times: np.ndarray             # snapshot times (may be empty)
    q_snapshots: np.ndarray            # (S, 3, Nx, Ny) spectral
    w_snapshots: np.ndarray            # (S, 3, Nx, Ny) spectral
    seed: int
    stream: int
    config: SimConfig
    config_hash: str
    blown_up: bool = False
    blow_time: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("record times must be increasing")


# -- stepping ------------------------------------------------------------


class Stepper:
    """Precomputed factors and work buffers for one SimConfig."""

    def __init__(self, config: SimConfig):
        self.config = config
        basis = config.basis
        lam = basis.eigenvalues
        a = config.gamma + config.viscosity**2 * lam
        self.decay = np.exp(-a * config.dt)            # (Nx, Ny)
        self.phi = (1.0 - self.decay) / a              # (Nx, Ny)
        self.h_min = min(basis.hx, basis.hy)
        self.mixer = NoiseMixer(config.noise, config.pairs, basis)

    def transport_hat(self, q_hat, t=None):
        """Galerkin projection of u . grad q; also returns max |u|.

        With a time stamp, the adaptive CFL guard runs between the
        velocity synthesis and the product, so an over-CFL state raises
        the stability error rather than overflowing into a blow-up.
        """
        basis = self.config.basis
        psi_hat = solve_elliptic_coeffs(self.config.coupling, q_hat)
        with np.errstate(over="ignore", invalid="ignore"):
            u1, u2 = basis.perp_grad_grids(psi_hat)
            umax = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
            if not np.isfinite(umax):
                raise FloatingPointError("velocity overflow")
            if t is not None:
                self.check_cfl(umax, t)
            qx, qy = basis.grad_grids(q_hat)
            product = u1 * qx + u2 * qy
            if not np.all(np.isfinite(product)):
                raise FloatingPointError("transport overflow")
        return basis.forward(product), umax

    def check_cfl(self, umax, t):
        safety = self.config.cfl_safety
        if safety <= 0:
            return
        ceiling = safety * min(1.0 / self.config.gamma,
                               self.h_min / umax if umax > 0 else np.inf)
        if self.config.dt > ceiling:
            raise TimeStepError(
                f"dt={self.config.dt} exceeds adaptive CFL ceiling "
                f"{ceiling:.3e} at t={t:.6g} (|u|max={umax:.3e})")

    def advance(self, eta_hat, w_hat, t):
        """One step of the eta equation, W frozen at the step's left end."""
        cfg = self.config
        forcing = -cfg.gamma * w_hat
        if cfg.nonlinear:
            transport, _ = self.transport_hat(eta_hat + w_hat, t=t)
            forcing = forcing - transport
        new = self.decay * eta_hat + self.phi * forcing
        if not np.all(np.isfinite(new)):
            raise FloatingPointError("state overflow")
        return new


def step_eta(eta: LayerField, w: LayerField, config: SimConfig,
             t: float = 0.0) -> LayerField:
    """Public single-step form of the eta update (deterministic given W)."""
    stepper = Stepper(config)
    try:
        new = stepper.advance(eta.spectral(), w.spectral(), t)
    except FloatingPointError as exc:
        raise BlowUpError(str(exc), time=t)
    return LayerField.from_coeffs(config.basis, new)


def nonlinear_term(q: LayerField, psi: LayerField) -> LayerField:
    """u(psi) . grad q, dealiased and projected onto the retained band."""
    basis = q.basis
    if not basis.compatible(psi.basis):
        raise ShapeError("q and psi live on different bases")
    u1, u2 = basis.perp_grad_grids(psi.spectral())
    qx, qy = basis.grad_grids(q.spectral())
    return LayerField.from_coeffs(basis, basis.forward(u1 * qx + u2 * qy))


def run_trajectory(config: SimConfig, observables=None, stream: int = 0,
                   noise_path: BrownianIncrements | None = None,
                   initial: np.ndarray | None = None) -> TrajectoryRecord:
    """Integrate from t=0 to the horizon, recording q = eta + W.

    Deterministic given (config, stream): noise comes from the Philox
    stream (config.seed, stream), or from a pregenerated path for
    noise-coupled comparisons.  An explicit coefficient array `initial`
    overrides the config descriptor.  On blow-up raises BlowUpError
    carrying the partial record.
    """
    if observables is None:
        observables = parse_observables(DEFAULT_OBSERVABLES)
    cfg = config
    basis = cfg.basis
    stepper = Stepper(cfg)
    gen = rngmod.stream(cfg.seed, stream)
    n_steps = cfg.n_steps
    if noise_path is not None:
        if noise_path.n_steps != n_steps or \
                abs(noise_path.dt - cfg.dt) > 1e-12 * cfg.dt:
            raise ConfigurationError("noise path does not match config grid")

    if initial is not None:
        if initial.shape != (N_LAYERS,) + basis.spectral_shape:
            raise ShapeError(f"initial shape {initial.shape} invalid")
        eta = initial.copy()
    else:
        eta = initial_coeffs(cfg.init, basis)
    w = np.zeros_like(eta)
    times, series = [], []
    snap_times, q_snaps, w_snaps = [], [], []

    def record(j, t):
        if j % cfg.obs_every == 0 or j == n_steps:
            ctx = ObsContext(basis, cfg.coupling, eta + w, w.copy())
            times.append(t)
            with np.errstate(over="ignore", invalid="ignore"):
                series.append([ob(ctx) for ob in observables])
        if cfg.snap_every and (j % cfg.snap_every == 0 or j == n_steps):
            snap_times.append(t)
            q_snaps.append(eta + w)
            w_snaps.append(w.copy())

    def build(blown=False, blow_time=None):
        names = [ob.name for ob in observables]
        data = np.array(series) if series else np.zeros((0, len(names)))
        return TrajectoryRecord(
            times=np.array(times),
            observables={nm: data[:, i] for i, nm in enumerate(names)},
            snap_times=np.array(snap_times),
            q_snapshots=(np.array(q_snaps) if q_snaps
                         else np.zeros((0, N_LAYERS) + basis.spectral_shape)),
            w_snapshots=(np.array(w_snaps) if w_snaps
                         else np.zeros((0, N_LAYERS) + basis.spectral_shape)),
            seed=cfg.seed, stream=stream, config=cfg,
            config_hash=cfg.config_hash(),
            blown_up=blown, blow_time=blow_time)

    record(0, 0.0)
    for j in range(1, n_steps + 1):
        t_prev = (j - 1) * cfg.dt
        try:
            eta = stepper.advance(eta, w, t_prev)
        except FloatingPointError as exc:
            raise BlowUpError(str(exc), time=t_prev,
                              record=build(blown=True, blow_time=t_prev))
        if cfg.noise.sigma > 0 and cfg.noise.k > 0:
            if noise_path is not None:
                w = w + stepper.mixer.coefficients(noise_path.increments[j - 1])
            else:
                w = w + stepper.mixer.increment(cfg.dt, gen)
        record(j, j * cfg.dt)
    return build()
