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
pointwise products on the basis's transport grid G = floor(3N/2)
(Orszag's 3/2 rule, the smallest grid on which the projection of a
quadratic product is exact), projection back onto the retained sine
band.  An overflowing product is not scanned for: it projects to
non-finite coefficients, and the one finiteness check of each new state
turns it into a blow-up.

Observables and snapshots stay on the G >= 2N grid.  Every per-sample
quantity is an `Observable` of the loop, evaluated when the sample is
taken through one lazy cache, `ObsContext`, which makes each grid and
reduction once per sample: the observables of `parse_observables` and
the monitor series of `experiments.monitor_observables` alike, so no
series is computed from stored snapshots.  l2 comes from the
coefficients by Parseval, and the pairings of one `parse_observables`
call come from one gather.

Arrays of the stepping loop.  The Stepper keeps the decay and phi
factors at the batch shape (P, 3, Nx, Ny), so the linear update
multiplies equal shapes without broadcasting, and a workspace for that
shape: the forcing array, a boolean finiteness mask and, for a nonlinear
step, the (2, P, 3, Nx, Ny) stack of (psi_hat, q_hat) and the (4, P, 3,
Gt+2, Gt+2) transport grids (psi_x, psi_y, q_x, q_y); it rebuilds them
only when the batch shape changes.  `advance` writes -gamma W into the
forcing array, adds eta + W into stack slot 1, and the elliptic solve
writes psi_hat into slot 0; the two transport syntheses fill the grids,
and the product is formed in place there.  Beyond the new state, a
step allocates only inside the elliptic solve and the transforms (each
synthesis's first product, the projection).  `advance` writes into none
of its inputs (the first state is a read-only broadcast of the initial
datum).  Each refill of the noise block scales its increment rows by
c_k sqrt(dt) in place, and a step's increment is a view of its row.
The loop adds the increment's field into W in place, and a snapshot
writes q = eta + W into its slot of the (S, P, 3, Nx, Ny) snapshot
array, which is allocated once, before the first step.  Overflow
warnings are silenced once around the loop.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
from dataclasses import dataclass
from functools import cache, cached_property, reduce
import hashlib
import os
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .coupling import (LayerCoupling, OperatorEigenpairs, pair_coeffs,
                       solve_elliptic_coeffs)
from .errors import (BlowUpError, ConfigurationError, ShapeError,
                     TimeStepError)
from .noise import BrownianIncrements, NoiseMixer, NoiseSpec
from .spectral import (LayerField, N_LAYERS, SpectralBasis, even_exponent,
                       field_sum, grid_peak, peak_scaled_square,
                       scaled_lp_norms, single_mode_field)


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
            return single_mode_field(basis, n, m, amps).spectral()
        if kind == "lowband":
            nmax_s, amp_s, seed_s = rest.split(":")
            nmax, amp, seed = int(nmax_s), float(amp_s), int(seed_s)
            cut = min(basis.nx, basis.ny)
            if not 1 <= nmax <= cut:
                raise ValueError(f"lowband nmax {nmax} outside 1..{cut}")
            if not np.isfinite(amp):
                raise ValueError("lowband amplitude must be finite")
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
    """Lazy per-sample cache of the observables of coefficients q_hat and
    w_hat, a (P, 3, Nx, Ny) batch of paths, each reduced to one value per
    path.

    What two or more series read is made once and kept while the context
    lives: eta_hat = q_hat - w_hat, psi_hat, q's grid, u = grad^perp psi,
    grad W, each field's `peak` (max |f| per path) and `lp_norms`, and
    the (P, J) values of each PairingTable.  A grid that one series alone
    reads (those of W, eta and |u|, which only their Lp norms read, the
    squares behind Lp norms, grad q, grad eta, a Hessian) is dropped by it.
    """

    def __init__(self, coupling: LayerCoupling, q_hat, w_hat):
        self.coupling = coupling
        self.basis = coupling.basis
        self.q_hat = q_hat
        self.w_hat = w_hat
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @cached_property
    def eta_hat(self):
        return self.q_hat - self.w_hat

    @cached_property
    def psi_hat(self):
        return solve_elliptic_coeffs(self.coupling, self.q_hat)

    @cached_property
    def u(self):
        return self.basis.perp_grad_grids(self.psi_hat)

    @cached_property
    def grad_w(self):
        return self.basis.grad_grids(self.w_hat)

    def grid(self, f):
        """Field f ("q", "w", "eta" or "speed") on the grid."""
        if f == "q":
            return self._once(f, lambda: self.basis.inverse(self.q_hat))
        if f == "speed":
            u1, u2 = self.u
            return np.sqrt(u1**2 + u2**2)
        return self.basis.inverse(getattr(self, f"{f}_hat"))

    def peak(self, f):
        return self._once(("peak", f), lambda: grid_peak(self.grid(f)))

    def lp_norms(self, f, exponents):
        """The Lp norms of field f per path, for ascending even p."""
        def make():
            grid = self.grid(f)
            peak = self._once(("peak", f), lambda: grid_peak(grid))
            return scaled_lp_norms(peak, peak_scaled_square(grid, peak),
                                   self.basis.quad_weights, exponents)
        return self._once(("lp", f, exponents), make)

    def grad_l4(self, f):
        """(sum_i int_D |grad f^i|^4 dx)^(1/4) per path, f in q, w, eta."""
        gx, gy = (self.grad_w if f == "w" else
                  self.basis.grad_grids(getattr(self, f"{f}_hat")))
        return field_sum((gx**2 + gy**2) ** 2
                         * self.basis.quad_weights) ** 0.25

    @staticmethod
    def sup(grids):
        """max |g| per path over the component grids of a vector field."""
        return reduce(np.maximum, map(grid_peak, grids))

    def pairings(self, table):
        """table(q_hat), computed once per sample."""
        if table not in self._memo:     # inline: one read per label per sample
            self._memo[table] = table(self.q_hat)
        return self._memo[table]


@dataclass(frozen=True)
class Observable:
    """`fn(ctx)` gives one value per path, reduced over that path alone.

    `name` keys the series in `TrajectoryRecord.observables`: a string
    for the observables of `parse_observables`, any hashable key for the
    monitor series of `experiments.monitor_observables`.
    """

    name: str | tuple
    fn: callable

    def __call__(self, ctx: ObsContext) -> np.ndarray:
        values = np.asarray(self.fn(ctx), dtype=float)
        if values.shape != ctx.q_hat.shape[:1]:
            raise ShapeError(f"{self.name}: shape {values.shape}, not (P,)")
        return values


def obs_lp(p) -> Observable:
    """The Lp norm of q per path, as `spectral.grid_lp_norm` gives it.

    l2 is sqrt(sum q_hat^2) by Parseval, exact on every grid G >= N.
    """
    if p in (np.inf, "inf"):
        return Observable("linf", lambda ctx: ctx.peak("q"))
    p = even_exponent(p)
    if p == 2:
        return Observable("l2", lambda ctx: np.sqrt(field_sum(ctx.q_hat**2)))
    return Observable(f"l{p}", lambda ctx: ctx.lp_norms("q", (p,))[0])


def obs_h(alpha: float, noise: bool = False) -> Observable:
    """The H^alpha norm per path of q, or with `noise` of W."""
    def fn(ctx):
        coeffs = ctx.w_hat if noise else ctx.q_hat
        return np.sqrt(field_sum(ctx.basis.eigenvalues**alpha * coeffs**2))
    return Observable(f"{'w' * noise}h{alpha:g}", fn)


def obs_grad_l4() -> Observable:
    return Observable("gradl4", lambda ctx: ctx.grad_l4("q"))


class PairingTable:
    """The pairings <q, rho_k> of a set of eigenpairs, evaluated together.

    Holds the (J, 3) flat indices and vectors of the J eigenpairs its
    observables read; an ObsContext evaluates the whole table once per
    sample (`coupling.pair_coeffs`), and each observable reads its column
    of the (P, J) values.
    """

    def __init__(self, pairs: OperatorEigenpairs):
        self.pairs = pairs
        self.columns = {}                   # eigenpair k -> column j
        self.index = np.empty((0, N_LAYERS), dtype=np.int64)
        self.vec = np.empty((0, N_LAYERS))

    def __call__(self, q_hat):
        return pair_coeffs(q_hat, self.index, self.vec)

    def observable(self, k: int, square=False) -> Observable:
        """<q, rho_k> per path, or with `square` its square."""
        pairs = self.pairs
        if k not in self.columns:
            self.columns[k] = len(self.columns)
            self.index = pairs.flat_index[list(self.columns)]
            self.vec = pairs.vec[list(self.columns)]
        j = self.columns[k]
        def fn(ctx):
            val = ctx.pairings(self)[:, j]
            return val * val if square else val
        tag = "pairsq" if square else "pair"
        label = f"{tag}:{pairs.mode_n[k]}.{pairs.mode_m[k]}.{pairs.comp_j[k]}"
        return Observable(label, fn)


def parse_observables(text: str, pairs: OperatorEigenpairs | None = None):
    """Comma list of distinct names: l2 l4 ... linf, h<alpha>, wh<alpha>,
    gradl4, pair:n.m.j, pairsq:n.m.j; pairings share one PairingTable."""
    out = []
    table = None if pairs is None else PairingTable(pairs)
    for token in filter(None, (t.strip() for t in text.split(","))):
        if token == "linf":
            out.append(obs_lp(np.inf))
        elif token == "gradl4":
            out.append(obs_grad_l4())
        elif token.startswith("wh"):
            out.append(obs_h(_token_number(token, "wh", float, "alpha"),
                             noise=True))
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
            out.append(table.observable(int(hits[0]),
                                        square=tag == "pairsq"))
        elif token.startswith("l"):
            out.append(obs_lp(_token_number(token, "l", int, "p")))
        elif token.startswith("h"):
            out.append(obs_h(_token_number(token, "h", float, "alpha")))
        else:
            raise ConfigurationError(f"unknown observable {token!r}")
        if any(ob.name == out[-1].name for ob in out[:-1]):
            raise ConfigurationError(
                f"{token}: repeats observable {out[-1].name!r}")
    return out


def _token_number(token, prefix, kind, name):
    """The finite `kind` number after `prefix` in an observable token,
    or a ConfigurationError naming the token."""
    try:
        value = kind(token[len(prefix):])
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        raise ConfigurationError(f"{token}: expected {prefix}<{name}>")
    return value


DEFAULT_OBSERVABLES = "l2,l4,linf,h1"


# -- configuration -------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Everything one trajectory needs; immutable and shareable.  The
    basis and coupling are read through the eigenpairs, which hold them."""

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
        if abs(self.n_steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ConfigurationError("horizon must be a multiple of dt")
        if self.obs_every < 1:
            raise ConfigurationError("obs_every must be >= 1")
        if self.snap_every < 0:
            raise ConfigurationError("snap_every must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    @property
    def basis(self) -> SpectralBasis:
        return self.pairs.basis

    @property
    def coupling(self) -> LayerCoupling:
        return self.pairs.coupling

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def n_samples(self, every: int) -> int:
        """Sample times at a cadence of `every` steps: t = 0, every
        multiple of every * dt, and the horizon."""
        return self.n_steps // every + 1 + (self.n_steps % every != 0)

    def config_hash(self) -> str:
        text = (f"{self.basis}|{self.coupling.lambdas}|{self.coupling.scale}|"
                f"{self.noise.k},{self.noise.decay},{self.noise.sigma}|"
                f"{self.gamma},{self.viscosity},{self.dt},{self.horizon},"
                f"{self.nonlinear},{self.init},{self.seed},{self.cfl_safety},"
                f"{self.obs_every},{self.snap_every}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrajectoryRecord:
    """Time series and q snapshots of one seeded sample path; W is seen
    only through observables (wh<alpha>, <W, phi>)."""

    times: np.ndarray                  # observable sample times
    observables: dict                  # name -> array over times
    snap_times: np.ndarray             # snapshot times (may be empty)
    q_snapshots: np.ndarray            # (S, 3, Nx, Ny) spectral
    stream: int
    config: SimConfig
    blow_time: float | None = None     # set by a blow-up

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("record times must be increasing")


# -- stepping ------------------------------------------------------------


class Stepper:
    """Precomputed factors and work buffers for one SimConfig.

    `decay` and `phi` are the per-mode (Nx, Ny) factors.  `advance`
    multiplies by copies of them at the batch shape (..., 3, Nx, Ny) and
    works in buffers of that batch: the forcing array, a boolean
    finiteness mask, and for a nonlinear step the (2, ..., 3, Nx, Ny)
    stack of (psi_hat, q_hat) and the (4, ..., 3, Gt+2, Gt+2) transport
    grids of `_transport`.  All are rebuilt only when the batch shape
    changes, so one Stepper serves one thread.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        basis = config.basis
        lam = basis.eigenvalues
        a = config.gamma + config.viscosity**2 * lam
        self.decay = np.exp(-a * config.dt)            # (Nx, Ny)
        self.phi = (1.0 - self.decay) / a              # (Nx, Ny)
        self.h_min = min(basis.hx, basis.hy)
        self.mixer = NoiseMixer(config.noise, config.pairs)
        self._shape = None                  # no batch until first use

    def _batch(self, shape):
        """(decay, phi) at the batch shape, with the batch's buffers;
        kept while the batch shape stays."""
        if shape != self._shape:
            self._shape = shape
            self._tables = tuple(np.broadcast_to(f, shape).copy()
                                 for f in (self.decay, self.phi))
            self._forcing = np.empty(shape)
            self._finite = np.empty(shape, dtype=bool)
            if self.config.nonlinear:
                self._stack = np.empty((2,) + shape)
                self._grids = np.empty(
                    (4,) + shape[:-2]
                    + self.config.basis.transport_basis.grid_shape)
        return self._tables

    def advance(self, eta_hat, w_hat, t):
        """One step of the eta equation, W frozen at the step's left end.

        Writes into neither input; the new state is a new array.  Callers
        silence overflow warnings (the finiteness check reports them).

        The adaptive CFL guard holds dt to the advective ceiling
        cfl_safety h_min / |u|max of the transport, before the finiteness
        check of the new state, so an over-CFL state raises the stability
        error rather than a blow-up.  `SimConfig` checks the damping
        ceiling cfl_safety / gamma.
        """
        cfg = self.config
        decay, phi = self._batch(eta_hat.shape)
        forcing = np.multiply(-cfg.gamma, w_hat, out=self._forcing)
        if cfg.nonlinear:
            stack = self._stack
            np.add(eta_hat, w_hat, out=stack[1])
            solve_elliptic_coeffs(cfg.coupling, stack[1], out=stack[0])
            term, umax = _transport(cfg.basis, stack, self._grids)
            if not np.isfinite(umax):
                raise FloatingPointError("velocity overflow")
            if cfg.cfl_safety > 0 and umax > 0:
                ceiling = cfg.cfl_safety * (self.h_min / umax)
                if cfg.dt > ceiling:
                    raise TimeStepError(
                        f"dt={cfg.dt} exceeds adaptive CFL ceiling "
                        f"{ceiling:.3e} at t={t:.6g} (|u|max={umax:.3e})",
                        time=t, umax=float(umax), ceiling=float(ceiling))
            forcing -= term
        new = decay * eta_hat
        new += np.multiply(phi, forcing, out=forcing)
        if not np.isfinite(new, out=self._finite).all():
            raise FloatingPointError("state overflow")
        return new


def step_eta(eta: LayerField, w: LayerField, config: SimConfig,
             t: float = 0.0) -> LayerField:
    """Public single-step form of the eta update (deterministic given W)."""
    stepper = Stepper(config)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            new = stepper.advance(eta.spectral(), w.spectral(), t)
    except FloatingPointError as exc:
        raise BlowUpError(str(exc), time=t)
    return LayerField.from_coeffs(config.basis, new)


def nonlinear_term(q: LayerField, psi: LayerField) -> LayerField:
    """u(psi) . grad q, dealiased and projected onto the retained band.

    This one-off form scans its own result, so an overflowing product
    raises FloatingPointError("transport overflow"); the stepping loop
    leaves that to its finiteness check of the new state.
    """
    basis = q.basis
    if not basis.compatible(psi.basis):
        raise ShapeError("q and psi live on different bases")
    with np.errstate(over="ignore", invalid="ignore"):
        term, _ = _transport(basis, np.stack((psi.spectral(), q.spectral())))
    if not np.all(np.isfinite(term)):
        raise FloatingPointError("transport overflow")
    return LayerField.from_coeffs(basis, term)


def _transport(basis: SpectralBasis, stack, out=None):
    """(P(grad_perp psi . grad q) on basis.transport_basis, the largest
    |u| on its grid) from the (2, ..., 3, Nx, Ny) stack of (psi_hat,
    q_hat).

    The grids go into `out`, a (4, ..., 3, Gt+2, Gt+2) workspace ordered
    (psi_x, psi_y, q_x, q_y), or into a new one: the x-derivative
    synthesis of the stack fills out[0::2], the y-derivative synthesis
    out[1::2].  u = (-psi_y, psi_x) is then the contiguous out[:2], so
    one `_abs_peak` of it gives |u|max, and a NaN in either component
    reaches the caller's velocity check.  The product psi_x q_y - psi_y
    q_x is formed in place in out[0].  An overflowing product is not
    checked here: it projects to non-finite coefficients, which the
    caller's finiteness check reports.
    """
    grid = basis.transport_basis
    if out is None:
        out = np.empty((4,) + stack.shape[1:-2] + grid.grid_shape)
    grid.synth(stack, 1, 0, out=out[0::2])
    grid.synth(stack, 0, 1, out=out[1::2])
    psi_x, psi_y, q_x, q_y = out
    umax = _abs_peak(out[:2])
    product = np.multiply(psi_x, q_y, out=psi_x)
    product -= np.multiply(psi_y, q_x, out=psi_y)
    return grid.forward(product), umax


def _abs_peak(grid):
    """max |grid|, bitwise, without the |grid| temporary; NaN stays NaN."""
    return max(grid.max(), -grid.min())


def run_trajectory(config: SimConfig, observables=None, stream: int = 0,
                   noise_path: BrownianIncrements | None = None,
                   initial: np.ndarray | None = None) -> TrajectoryRecord:
    """Integrate from t=0 to the horizon, recording q = eta + W.

    Deterministic given (config, stream): noise comes from the Philox
    stream (config.seed, stream), or from a pregenerated path for
    noise-coupled comparisons.  An explicit coefficient array `initial`
    overrides the config descriptor.  A blow-up (BlowUpError) or a CFL
    abort (TimeStepError) carries the partial record.  This is
    `_run_paths` with P = 1.
    """
    if observables is None:
        observables = parse_observables(DEFAULT_OBSERVABLES)
    return _run_paths(config, observables, [stream], initial, noise_path)[0]


# Standard normals drawn per refill, over all paths: 512 KB of doubles.
_BLOCK_NORMALS = 1 << 16
# Grid points of one batch over paths and layers (1 MB per temporary): on
# large grids memory grows with the batch and the step saves no overhead.
_BATCH_POINTS = 1 << 17


def _run_paths(cfg: SimConfig, observables, streams, initial=None,
               noise_path=None, hook=None, threads: int = 1) -> list:
    """Step P = len(streams) paths as one (P, 3, Nx, Ny) state.

    Path p starts from `initial` (one (3, Nx, Ny) datum for every path,
    or row p of a (P, 3, Nx, Ny) array; default the config descriptor)
    and draws from the Philox stream (cfg.seed, streams[p]), per step
    the K normals of its increment (unless the noise is off or comes from
    `noise_path`), then, with a `hook`, K more normals for the
    `hook(dw, normals)` called after each increment with the (K, P)
    weighted increments (None without noise) and those (K, P) normals.
    Blocks of steps are drawn at once, as the same normals step by step;
    each block's increment rows are weighted by c_k sqrt(dt) once, when
    it is drawn, and a step's `dw` is a view of its row.
    Every operation acts on each path alone, so path p's bytes depend
    neither on P nor on its place in the batch; the CFL guard watches the
    largest |u| of all paths.  Returns one TrajectoryRecord per path; a
    blow-up raises BlowUpError, and a CFL abort the guard's TimeStepError,
    with the partial record of the path with the largest state.  Paths
    past _BATCH_POINTS step in further batches, on `threads` pool threads
    if `_blas_pinned()` (else pool and BLAS threads oversubscribe).
    """
    basis, n_steps, n_paths = cfg.basis, cfg.n_steps, len(streams)
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    if noise_path is not None and (noise_path.n_steps != n_steps or abs(
            noise_path.dt - cfg.dt) > 1e-12 * cfg.dt):
        raise ConfigurationError("noise path does not match config grid")
    shape = (N_LAYERS,) + basis.spectral_shape
    if initial is None:
        initial = initial_coeffs(cfg.init, basis)
    elif initial.shape not in (shape, (n_paths,) + shape):
        raise ShapeError(f"initial shape {initial.shape} invalid")
    _keep_freed_heap()
    per_batch = max(1, _BATCH_POINTS // (N_LAYERS * basis.quad_weights.size))
    if n_paths > per_batch:
        def batch(i):
            part = initial if initial.ndim == 3 else initial[i:i + per_batch]
            return _run_paths(cfg, observables, streams[i:i + per_batch],
                              part, noise_path, hook)
        return [rec for records in _fan_out(
                    batch, range(0, n_paths, per_batch),
                    threads if _blas_pinned() else 1)
                for rec in records]
    stepper = Stepper(cfg)
    eta = np.broadcast_to(initial, (n_paths,) + shape)   # never written to
    w = np.zeros(eta.shape)
    noisy = cfg.noise.active
    drawn = int(noisy and noise_path is None)
    rows, k = drawn + (hook is not None), cfg.noise.k
    gens = [rngmod.stream(cfg.seed, s) for s in streams] if rows else []
    block_steps = max(1, _BLOCK_NORMALS // max(1, rows * k * n_paths))
    scale = cfg.noise.c[:, None] * np.sqrt(cfg.dt)
    series = np.empty((cfg.n_samples(cfg.obs_every), len(observables),
                       n_paths))
    n_snaps = cfg.n_samples(cfg.snap_every) if cfg.snap_every else 0
    q_snaps = np.empty((n_snaps,) + eta.shape)
    times, snap_times = [], []

    def record(j):
        if j % cfg.obs_every == 0 or j == n_steps:
            ctx = ObsContext(cfg.coupling, eta + w, w)
            for o, ob in enumerate(observables):
                series[len(times), o] = ob(ctx)
            times.append(j * cfg.dt)
        if cfg.snap_every and (j % cfg.snap_every == 0 or j == n_steps):
            np.add(eta, w, out=q_snaps[len(snap_times)])
            snap_times.append(j * cfg.dt)

    def build(blow_time=None):
        data = series[:len(times)].transpose(2, 1, 0).copy()    # (P, O, T)
        s = len(snap_times)         # a partial record keeps those written
        return [TrajectoryRecord(
            times=np.array(times), snap_times=np.array(snap_times),
            observables={ob.name: data[p, o]
                         for o, ob in enumerate(observables)},
            q_snapshots=q_snaps[:s, p], stream=stream, config=cfg,
            blow_time=blow_time)
            for p, stream in enumerate(streams)]

    def partial(blow_time=None):
        """The record so far of the path with the largest state."""
        worst = np.argmax(np.abs(eta + w).reshape(n_paths, -1).max(-1))
        return build(blow_time)[worst]

    # overflows surface as non-finite values, which the finiteness check
    # of each new state turns into a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for j in range(1, n_steps + 1):
            t_prev = (j - 1) * cfg.dt
            try:
                eta = stepper.advance(eta, w, t_prev)
            except FloatingPointError as exc:
                raise BlowUpError(str(exc), time=t_prev,
                                  record=partial(t_prev))
            except TimeStepError as exc:
                exc.record = partial()
                raise
            i = (j - 1) % block_steps
            if gens and i == 0:
                steps = min(block_steps, n_steps - j + 1)
                block = np.empty((steps, rows, k, n_paths))
                for p, gen in enumerate(gens):
                    block[..., p] = gen.standard_normal((steps, rows, k))
                if drawn:
                    block[:, 0] *= scale
            dw = None
            if noisy:
                dw = block[i, 0] if drawn else \
                    noise_path.increments[j - 1][:, None]
                w += stepper.mixer.coefficients(dw)
            if hook is not None:
                hook(dw, block[i, drawn])
            record(j)
    return build()


def _fan_out(worker, items, threads):
    """[worker(item) for item in items], on `threads` pool threads when
    more than one.  The results keep the order of `items`, and the first
    item whose worker raised, in that order, raises."""
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _blas_threads():
    """The BLAS thread count: the one the OpenBLAS that NumPy loaded runs
    with, or, without such a library, the value of the first set of
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS, or None.

    OpenBLAS fixes its count when it loads, so a variable set later does
    not change it.
    """
    query = _openblas_thread_query()
    if query is not None:
        return query()
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    value = next((os.environ[name] for name in names if name in os.environ),
                 None)
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _blas_pinned():
    """Whether BLAS runs on one thread."""
    return _blas_threads() == 1


@cache
def _openblas_thread_query():
    """`scipy_openblas_get_num_threads64_` of the OpenBLAS in the NumPy
    wheel's bundled libraries, if this process has loaded it; else None.
    Cached: looked up once per process."""
    no_load = getattr(os, "RTLD_NOLOAD", None)     # POSIX only
    if no_load is None:
        return None
    folder = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(folder.glob("*openblas*")):
        try:        # only a library this process has loaded already
            lib = ctypes.CDLL(str(path), mode=no_load)
        except OSError:
            continue
        query = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.argtypes, query.restype = (), ctypes.c_int
            return query
    return None


@cache
def _keep_freed_heap():
    """Let glibc keep freed heap memory instead of returning it to the OS.

    A time step allocates and frees a few dozen grid arrays of
    3 (Gx+2)(Gy+2) doubles, 400 KB at N = 64.  Under glibc's adaptive
    defaults the heap top is trimmed whenever two of them are freed
    together, and the next step faults the same pages back in: about a
    thousand page faults per step, a quarter of the step's time at N = 64,
    and the part that varies most on a shared host.  Fixed thresholds
    (arrays under 32 MB on the heap, trim only past 64 MB free) keep those
    pages mapped.  Other C libraries are left as they are.  Cached: the
    first stepping loop or CLI call of a process sets them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)
