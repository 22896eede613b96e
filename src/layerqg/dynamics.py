"""Time stepping for the damped, forced 3-layer system.

The state is q, the potential vorticity.  In eta = q - W (W the
accumulated Wiener path) the equation is the random PDE

    d/dt eta + (u . grad)(eta + W) + gamma eta = eps^2 Lap eta - gamma W ,
    u = grad_perp (A + L)^{-1} (eta + W) ,

with no stochastic integral.  One step applies the integrating factor
d = exp(-(gamma + eps^2 lambda_{n,m}) dt) exactly per mode and advances
the transport B and the -gamma W forcing explicitly (first-order
exponential Euler).  Written in q, which the loop steps, that is

    q_{n+1} = d q_n - phi B(q_n) + phi eps^2 lambda W_n + (W_{n+1} - W_n),
    phi = (1 - d) / (gamma + eps^2 lambda_{n,m}) :

at eps = 0 W leaves the step, and with transport and noise off every
mode decays by the exact factor per step.  W is accumulated only where
it is read: with eps > 0, or when an observable reads it at sample 0.

Transport is pseudo-spectral on the 3/2-rule grid (`_transport`).  An
overflowing product is not scanned for: it projects to non-finite
coefficients, and the one finiteness check of each new state turns it
into a blow-up.  Observables stay on the G >= 2N grid: every per-sample
quantity is an `Observable` of the loop, evaluated when the sample is
taken through one lazy cache, `ObsContext`, which makes each x-stage
product and grid once and drops it after the last observable that
declares it read.

One stepping loop, the generator `_samples`, yields each sample of a
batch of paths, and one driver, `_drive`, steps the batches and hands
each sample to a fold: the series store (`_Series`) of single runs and
the tightness diagnostic, the running averages of `measures.kb_average`
or a ladder's fold in `sweeps`.  The loop's one noise source is the
Philox streams, and it steps the OU state zeta of the tightness
diagnostic.  The `Stepper` binds its step once per batch shape, so a
repeat step rebuilds no view or check and allocates only its new state
and the projected transport term.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cache, cached_property, reduce
import hashlib
import math
import os
from pathlib import Path
import time
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .coupling import (LayerCoupling, OperatorEigenpairs, elliptic_plan,
                       pair_coeffs, solve_elliptic_coeffs)
from .errors import (BlowUpError, ConfigurationError, SamplingError,
                     ShapeError, TimeStepError)
from .noise import NoiseMixer, NoiseSpec, ou_factors, ou_step
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

    lowband normalizes in L2 through the coefficients of its band alone,
    so the same descriptor realizes the identical function, bit for bit,
    on every mode cut that contains the band (refinement studies rely on
    this).
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
            band = gen.standard_normal((N_LAYERS, nmax, nmax))
            band /= basis.eigenvalues[:nmax, :nmax]
            c = np.zeros(shape)
            c[:, :nmax, :nmax] = band * (amp / np.sqrt(np.sum(band**2)))
            return c
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"bad init descriptor {descriptor!r}: {exc}")
    raise ConfigurationError(f"unknown init descriptor {descriptor!r}")


# -- observables ---------------------------------------------------------


class ObsContext:
    """Lazy per-sample cache of the observables of coefficients q_hat and
    w_hat, a (P, 3, Nx, Ny) batch of paths, each reduced to one value per
    path.

    Its grids are keyed (f, dx, dy): the (dx, dy) derivative of f in "q",
    "w" or "psi" (solved for once), finished from f's x-stage product of
    order dx, keyed (f, dx), which every grid of that order shares; and
    ("eta", 0, 0) = q - W and ("speed", 0, 0) = |grad psi|, formed from
    their grids.  With a `w_band` (nb, mb), w_hat is zero outside its
    leading nb x mb block of modes, and W's products and grids are made
    from that block alone (`SpectralBasis.stage_x`); without one W is
    synthesized in full.  A product or grid is made at its first read and
    kept until `release` drops it: the stepping loop drops each after the
    last observable that declares it, or a grid made from it, in its
    `reads` (`_release_plan`).  Each field's `peak` and `lp_norms` and the
    (P, J) pairings of each set of eigenpairs a `Pairing` reads are kept
    while the context lives.  `w_read` tells whether anything read
    `w_hat`.  `zeta` is the loop's (P, K) OU state (or None), which the
    loop advances in place: it holds this sample's value until the loop
    resumes.
    """

    def __init__(self, coupling: LayerCoupling, q_hat, w_hat, zeta=None,
                 w_band=None):
        self.coupling = coupling
        self.basis = coupling.basis
        self.q_hat = q_hat
        self._w_hat = w_hat
        self._w_band = w_band
        self.zeta = zeta
        self.w_read = False
        self._memo = {}

    @property
    def w_hat(self):
        if self._w_hat is None:         # a run that keeps no W
            raise SamplingError("this run keeps no W: W is kept only when "
                                "eps > 0 or an observable reads it at t = 0")
        self.w_read = True
        return self._w_hat

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @cached_property
    def psi_hat(self):
        return solve_elliptic_coeffs(self.coupling, self.q_hat)

    @staticmethod
    def inputs(key):
        """The entries that making entry `key` reads."""
        f, dx, *dy = key
        if not dy:                      # an x-stage product
            return ()
        if f == "eta":
            return ("q", 0, 0), ("w", 0, 0)
        if f == "speed":
            return ("psi", 0, 1), ("psi", 1, 0)
        return (f, dx),

    def grid(self, f, dx=0, dy=0):
        """The grid (f, dx, dy); f is "q", "w", "psi", "eta" or "speed"."""
        memo = self._memo
        grid = memo.get((f, dx, dy))
        if grid is None:
            if f == "eta":
                grid = np.subtract(self.grid("q"), self.grid("w"))
            elif f == "speed":
                grid = np.square(self.grid("psi", 0, 1))
                grid += np.square(self.grid("psi", 1, 0))
                np.sqrt(grid, out=grid)
            else:
                product = memo.get((f, dx))
                if product is None:
                    product = memo[f, dx] = self.basis.stage_x(
                        self._coeffs(f), dx)
                grid = self.basis.stage_y(product, dy)
            memo[f, dx, dy] = grid
        return grid

    def _coeffs(self, f):
        """The coefficients W's, q's or psi's grids are made from: W's on
        its band, if the context has one."""
        if f == "q":
            return self.q_hat
        if f == "psi":
            return self.psi_hat
        if self._w_band is None:
            return self.w_hat
        nb, mb = self._w_band
        return self.w_hat[..., :nb, :mb]

    def release(self, keys):
        """Drop the products and grids `keys` (those not made are skipped)."""
        for key in keys:
            self._memo.pop(key, None)

    def peak(self, f):
        return self._once(("peak", f), lambda: grid_peak(self.grid(f)))

    def lp_norms(self, f, exponents):
        """The Lp norms of field f per path, for ascending even p."""
        def make():
            peak = self.peak(f)
            square = peak_scaled_square(self.grid(f), peak)
            return scaled_lp_norms(peak, square, self.basis.integrate,
                                   exponents)
        return self._once(("lp", f, exponents), make)

    def sup(self, keys):
        """max |g| per path over the grids `keys`, the components of a
        vector or matrix field."""
        return reduce(np.maximum, (grid_peak(self.grid(*key))
                                   for key in keys))

    def l4(self, keys):
        """(sum_i int_D |g^i|^4 dx)^(1/4) per path, |g|^2 the sum of the
        squares of the grids `keys`, a mixed second derivative's counted
        twice (the Frobenius norm of a Hessian).  The integrand is formed
        in place."""
        total = None
        for key in keys:
            square = np.square(self.grid(*key))
            if key[1:] == (1, 1):
                square *= 2
            total = square if total is None else np.add(total, square,
                                                          out=total)
        np.square(total, out=total)
        return self.basis.integrate(total) ** 0.25


# The grids of a field's gradient and of its Hessian, as (dx, dy) orders
GRADIENT = ((1, 0), (0, 1))
HESSIAN = ((2, 0), (1, 1), (0, 2))


def grids(f, orders):
    """ObsContext keys of f's grids of the (dx, dy) `orders`."""
    return tuple((f, dx, dy) for dx, dy in orders)


@dataclass(frozen=True)
class Observable:
    """`fn(ctx)` gives one value per path, reduced over that path alone.

    `name` keys the series in `TrajectoryRecord.observables`: a string
    for the observables of `parse_observables`, any hashable key for the
    monitor series of `experiments.monitor_observables`.  `reads` names
    the ObsContext grids fn reads; the loop releases each after the last
    observable that reads it, and keeps a grid no observable declares
    for the whole sample.
    """

    name: str | tuple
    fn: callable
    reads: tuple = ()

    def __call__(self, ctx: ObsContext) -> np.ndarray:
        values = np.asarray(self.fn(ctx), dtype=float)
        if values.shape != ctx.q_hat.shape[:1]:
            raise ShapeError(f"{self.name}: shape {values.shape}, not (P,)")
        return values


def _release_plan(observables) -> list:
    """Per observable, the ObsContext entries to release after it: each
    grid an observable `reads`, and each entry that making it reads,
    lives until its last reader."""
    last = {}

    def read(key, o):
        if key not in last:             # made here, so its inputs read here
            for entry in ObsContext.inputs(key):
                read(entry, o)
        last[key] = o

    for o, ob in enumerate(observables):
        for key in ob.reads:
            read(key, o)
    plan = [[] for _ in observables]
    for key, o in last.items():
        plan[o].append(key)
    return plan


def _sample_plan(observables):
    """(evaluate, slots): `evaluate(ctx, row)`, the one evaluation of a
    sample's observables, writes them into the (O, P) `row`, observable o
    at `slots[o]`.  The L pairings of one set of eigenpairs take L rows,
    from one `pair_coeffs` per sample, the squared first and squared in
    place; every other observable takes one row after those, in order,
    and then releases the ObsContext entries it reads last."""
    groups, others = {}, []
    for o, ob in enumerate(observables):
        if isinstance(ob.fn, Pairing):
            groups.setdefault(id(ob.fn.pairs), []).append(
                (not ob.fn.square, o))
        else:
            others.append(o)
    gathers, order = [], []
    for members in groups.values():
        members = [o for _, o in sorted(members)]      # the squared first
        fns = [observables[o].fn for o in members]
        pairs, ks = fns[0].pairs, [fn.k for fn in fns]
        gathers.append((pairs.flat_index[ks], pairs.vec[ks],
                       sum(fn.square for fn in fns),
                       slice(len(order), len(order) + len(members))))
        order += members
    drops = _release_plan(observables)
    evaluations = [(len(order) + i, observables[o], drops[o])
                   for i, o in enumerate(others)]

    def evaluate(ctx, row):
        for index, vec, squared, rows in gathers:
            values = pair_coeffs(ctx.q_hat, index, vec)
            if squared:
                np.square(values[:, :squared], out=values[:, :squared])
            row[rows] = values.T
        for o, ob, drop in evaluations:
            row[o] = ob(ctx)
            if drop:
                ctx.release(drop)
    return evaluate, np.argsort(order + others)


_Q_GRID = (("q", 0, 0),)


def obs_lp(p) -> Observable:
    """The Lp norm of q per path, as `spectral.grid_lp_norm` gives it.

    l2 is sqrt(sum q_hat^2) by Parseval, exact on every grid G >= N.
    """
    if p in (np.inf, "inf"):
        return Observable("linf", lambda ctx: ctx.peak("q"), _Q_GRID)
    p = even_exponent(p)
    if p == 2:
        return Observable("l2", lambda ctx: np.sqrt(field_sum(ctx.q_hat**2)))
    return Observable(f"l{p}", lambda ctx: ctx.lp_norms("q", (p,))[0],
                      _Q_GRID)


def obs_h(alpha: float, noise: bool = False) -> Observable:
    """The H^alpha norm per path of q, or with `noise` of W.  The weights
    lambda^alpha are made once per basis, at its first sample."""
    weights = {}

    def fn(ctx):
        power = weights.get(ctx.basis)
        if power is None:
            power = weights[ctx.basis] = ctx.basis.eigenvalues**alpha
        coeffs = ctx.w_hat if noise else ctx.q_hat
        return np.sqrt(field_sum(power * coeffs**2))
    return Observable(f"{'w' * noise}h{alpha:g}", fn)


class PairingTable:
    """The pairing observables <q, rho_k> of a set of eigenpairs.

    The stepping loop evaluates all the pairings of one set that it
    records with one `coupling.pair_coeffs` per sample (`_sample_plan`).
    """

    def __init__(self, pairs: OperatorEigenpairs):
        self.pairs = pairs

    def observable(self, k: int, square=False) -> Observable:
        """<q, rho_k> per path, or with `square` its square."""
        pairs = self.pairs
        tag = "pairsq" if square else "pair"
        label = f"{tag}:{pairs.mode_n[k]}.{pairs.mode_m[k]}.{pairs.comp_j[k]}"
        return Observable(label, Pairing(pairs, k, square))


@dataclass(frozen=True, eq=False)
class Pairing:
    """The `fn` of a pairing observable: <q, rho_k> of eigenpair k of
    `pairs`, or with `square` its square.  Called alone, it reads column
    k of the pairings of all of `pairs`, made once per ObsContext."""

    pairs: OperatorEigenpairs
    k: int
    square: bool

    def __call__(self, ctx: ObsContext) -> np.ndarray:
        pairs = self.pairs
        val = ctx._once(("pairings", id(pairs)), lambda: pair_coeffs(
            ctx.q_hat, pairs.flat_index, pairs.vec))[:, self.k]
        return val * val if self.square else val


def parse_observables(text: str, pairs: OperatorEigenpairs | None = None):
    """Comma list of distinct names: l2 l4 ... linf, h<alpha>, wh<alpha>,
    gradl4, pair:n.m.j, pairsq:n.m.j (made by one PairingTable)."""
    out = []
    table = None if pairs is None else PairingTable(pairs)
    for token in filter(None, (t.strip() for t in text.split(","))):
        if token == "linf":
            out.append(obs_lp(np.inf))
        elif token == "gradl4":
            grad_q = grids("q", GRADIENT)
            out.append(Observable("gradl4", lambda ctx: ctx.l4(grad_q),
                                  grad_q))
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

    def sample_times(self, every: int) -> np.ndarray:
        """The sample times: sample k is at step min(k every, n_steps)."""
        k = np.arange(self.n_samples(every))
        return np.minimum(k * every, self.n_steps) * self.dt

    def config_hash(self) -> str:
        text = (f"{self.basis}|{self.coupling.lambdas}|{self.coupling.scale}|"
                f"{self.noise.k},{self.noise.decay},{self.noise.sigma}|"
                f"{self.gamma},{self.viscosity},{self.dt},{self.horizon},"
                f"{self.nonlinear},{self.init},{self.seed},{self.cfl_safety},"
                f"{self.obs_every},{self.snap_every}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrajectoryRecord:
    """Observable series of one seeded sample path; fields are seen only
    through observables (W through wh<alpha>, <W, phi>) or a loop sink."""

    times: np.ndarray                  # observable sample times
    observables: dict                  # name -> array over times
    stream: int
    config: SimConfig
    blow_time: float | None = None     # set by a blow-up

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("record times must be increasing")


# -- stepping ------------------------------------------------------------


class Stepper:
    """Precomputed factors and the bound step for one SimConfig.

    `decay`, `phi` and `w_gain` = phi eps^2 lambda are the per-mode (Nx,
    Ny) factors of the q step.  `advance` runs the step `_batch` binds
    for the batch shape (..., 3, Nx, Ny), rebinding only when that shape
    changes: one Stepper, one thread.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        basis = config.basis
        lam = basis.eigenvalues
        a = config.gamma + config.viscosity**2 * lam
        self.decay = np.exp(-a * config.dt)            # (Nx, Ny)
        self.phi = (1.0 - self.decay) / a              # (Nx, Ny)
        self.w_gain = self.phi * (config.viscosity**2 * lam)
        self.h_min = min(basis.hx, basis.hy)
        self.mixer = NoiseMixer(config.noise, config.pairs)
        self._shape = None                  # no batch until first use

    def _batch(self, shape):
        """The step `advance` runs at the batch shape, bound once per
        shape to its operands: copies of decay, phi and (eps > 0) w_gain
        at that shape, a finiteness mask, the W term's array (eps > 0)
        and, for a nonlinear step, the `_TransportWork` with its elliptic
        solve (`coupling.elliptic_plan`).  `step.buffers` lists them."""
        if shape != self._shape:
            self._shape, self._step = shape, self._bind(shape)
        return self._step

    def _bind(self, shape):
        cfg, h_min = self.config, self.h_min
        nonlinear, viscous = cfg.nonlinear, cfg.viscosity > 0
        cfl, dt = cfg.cfl_safety, cfg.dt
        decay, phi = (np.broadcast_to(f, shape).copy()
                      for f in (self.decay, self.phi))
        finite = np.empty(shape, dtype=bool)
        buffers = [decay, phi, finite]
        if viscous:
            w_gain = np.broadcast_to(self.w_gain, shape).copy()
            w_term = np.empty(shape)
            buffers += [w_gain, w_term]
        if nonlinear:
            work = _TransportWork.new(cfg.basis.transport_basis, shape)
            solve = elliptic_plan(cfg.coupling, work.q_hat, work.psi_hat,
                                  work.amp)
            buffers.append(work.space)

        def step(q_hat, w_hat, t):
            new = decay * q_hat
            if nonlinear:
                np.copyto(work.q_hat, q_hat)
                solve()
                term, umax = _transport(work)
                if not math.isfinite(umax):
                    raise BlowUpError("velocity overflow", time=t)
                if cfl > 0 and umax > 0:
                    ceiling = cfl * (h_min / umax)
                    if dt > ceiling:
                        raise TimeStepError(
                            f"dt={dt} exceeds adaptive CFL ceiling "
                            f"{ceiling:.3e} at t={t:.6g} (|u|max={umax:.3e})",
                            time=t, umax=float(umax), ceiling=float(ceiling))
                new -= np.multiply(phi, term, out=term)
            if viscous:
                new += np.multiply(w_gain, w_hat, out=w_term)
            if not np.logical_and.reduce(np.isfinite(new, out=finite),
                                         axis=None):
                raise BlowUpError("state overflow", time=t)
            return new
        step.buffers = tuple(buffers)
        return step

    def advance(self, q_hat, w_hat, t):
        """One q step without noise, decay q - phi B(q) + w_gain W, with W
        at the step's left end (read only if eps > 0, else it may be None).

        Writes into neither input; the new state is a new array.  Callers
        silence overflow warnings: a non-finite |u|max or new state raises
        BlowUpError at t, the step's left end.

        The adaptive CFL guard holds dt to the advective ceiling
        cfl_safety h_min / |u|max of the transport, before the finiteness
        check of the new state, so an over-CFL state raises the stability
        error rather than a blow-up.  `SimConfig` checks the damping
        ceiling cfl_safety / gamma.
        """
        return self._batch(q_hat.shape)(q_hat, w_hat, t)


def step_eta(eta: LayerField, w: LayerField, config: SimConfig,
             t: float = 0.0) -> LayerField:
    """Public single-step form of the eta = q - W update given a frozen W,
    decay eta - phi (gamma W + B(eta + W)): the q step of eta + W, less W."""
    w_hat = w.spectral()
    with np.errstate(over="ignore", invalid="ignore"):
        new = Stepper(config).advance(eta.spectral() + w_hat, w_hat, t)
    return LayerField.from_coeffs(config.basis, new - w_hat)


def nonlinear_term(q: LayerField, psi: LayerField) -> LayerField:
    """u(psi) . grad q, dealiased and projected onto the retained band.

    This one-off form scans its own result, so an overflowing product
    raises FloatingPointError("transport overflow"); the stepping loop
    leaves that to its finiteness check of the new state.
    """
    basis = q.basis
    if basis != psi.basis:
        raise ShapeError("q and psi live on different bases")
    work = _TransportWork.new(basis.transport_basis,
                              (N_LAYERS,) + basis.spectral_shape)
    np.copyto(work.psi_hat, psi.spectral())
    np.copyto(work.q_hat, q.spectral())
    with np.errstate(over="ignore", invalid="ignore"):
        term, _ = _transport(work)
    if not np.all(np.isfinite(term)):
        raise FloatingPointError("transport overflow")
    return LayerField.from_coeffs(basis, term)


class _TransportWork(NamedTuple):
    """Views of one buffer, `space`, that hold every intermediate of the
    elliptic solve and `_transport` for (..., 3, Nx, Ny) fields on a
    transport grid, with `synth`, its `gradient_plan` of the stack, and
    `project`, its `forward_plan` of the product slot.

    The buffer is the room of the (2, ..., 3, Gt+2, Ny) order-0 x-stage
    products of (psi_hat, q_hat), which the last y stage reads, then four
    (..., 3, Gt+2, Gt+2) slots, the `grids` (psi_x, psi_y, q_y, q_x); `u`
    is the contiguous (psi_x, psi_y).  The rest heads a slot while that
    slot is dead: the order-1 products slot 1, the `stack` of (`psi_hat`,
    `q_hat`) slot 3, the solve's modal amplitudes `amp` the buffer's
    start, and the quadrature's first product slot 1, once the product
    is formed in slot 0.  No gemm reads what it writes.
    """

    space: np.ndarray
    stack: np.ndarray
    psi_hat: np.ndarray
    q_hat: np.ndarray
    amp: np.ndarray
    u: np.ndarray
    grids: tuple
    synth: callable
    project: callable

    @classmethod
    def new(cls, grid: SpectralBasis, shape):
        lead, (nx, ny) = shape[:-2], shape[-2:]
        gx, gy = grid.grid_shape
        batch = math.prod(lead)
        slot, stage = batch * gx * gy, 2 * batch * gx * ny
        space = np.empty(stage + 4 * slot)
        grids = space[stage:].reshape((4,) + lead + (gx, gy))
        xs = space[:2 * (stage + slot)].reshape(2, -1)[:, :stage].reshape(
            (2, 2) + lead + (gx, ny))
        stack = grids[3].reshape(-1)[:2 * batch * nx * ny].reshape(
            (2,) + shape)
        first = grids[1].reshape(-1)[:batch * nx * gy].reshape(
            lead + (nx, gy))
        return cls(
            space, stack, *stack,
            space[:batch * nx * ny].reshape(lead + (nx * ny,)),
            grids[:2], tuple(grids),
            grid.gradient_plan(stack, xs, grids[0::3], grids[1:3]),
            grid.forward_plan(grids[0], scratch=first))


def _transport(work: _TransportWork):
    """(P(grad_perp psi . grad q) on the transport grid, the largest |u|
    on it) from the (psi_hat, q_hat) in `work.stack`.

    One `work.synth` makes (psi_x, q_x) and (psi_y, q_y), with the bytes
    of `synth`.  u = (-psi_y, psi_x), so one `_abs_peak` of `work.u`
    gives |u|max, and a NaN in either component reaches the caller's
    velocity check.  The product psi_x q_y - psi_y q_x is formed in place
    in psi_x and projected by `work.project`.  An overflowing product is
    not checked here: it projects to non-finite coefficients, which the
    caller's finiteness check reports.
    """
    work.synth()
    psi_x, psi_y, q_y, q_x = work.grids
    umax = _abs_peak(work.u)
    product = np.multiply(psi_x, q_y, out=psi_x)
    product -= np.multiply(psi_y, q_x, out=psi_y)
    return work.project(), umax


def _abs_peak(grid):
    """max |grid|, bitwise, without the |grid| temporary; NaN stays NaN."""
    return max(np.maximum.reduce(grid, axis=None),
               -np.minimum.reduce(grid, axis=None))


def run_trajectory(config: SimConfig, observables=None, stream: int = 0,
                   initial: np.ndarray | None = None,
                   sink=None) -> TrajectoryRecord:
    """Integrate q from t=0 to the horizon: `_run_paths` with P = 1, its
    `sink` and the partial record of an abort included.  Deterministic
    given (config, stream): noise comes from the Philox stream
    (config.seed, stream).  An explicit coefficient array `initial`
    overrides the config descriptor."""
    if observables is None:
        observables = parse_observables(DEFAULT_OBSERVABLES)
    return _run_paths(config, observables, [stream], initial, sink=sink)[0]


# Standard normals drawn per refill, over all paths: 512 KB of doubles.
_BLOCK_NORMALS = 1 << 16
# Spectral points of the noise fields made by one `NoiseMixer.coefficients`
# call, over steps, drawn paths and layers (64 KB): at small N the fields
# of several steps share one call's overhead; at large N each call makes
# one step's, so the chunk's memory stays small.
_CHUNK_POINTS = 1 << 13
# Grid points of one batch over paths and layers (1 MB per temporary): on
# large grids memory grows with the batch and the step saves no overhead.
_BATCH_POINTS = 1 << 17


def _run_paths(cfg: SimConfig, observables, streams, initial=None,
               ou_rate=None, sink=None, threads: int = 1) -> list:
    """The records of P = len(streams) paths: each of their `_batches`
    driven into a `_Series` with `sink`.  With `ou_rate` the loop also
    steps the OU state zeta at that rate (`_samples`)."""
    snaps = cfg.snap_every if sink else 0
    batches = _batches(cfg, streams, initial, ou_rate, (cfg.obs_every, snaps))
    folds = [_Series(cfg, observables, part, sink) for part, _ in batches]
    _drive([([batch], fold) for batch, fold in zip(batches, folds)], threads)
    return [rec for fold in folds for rec in fold.records()]


class _Series:
    """The series store, a fold of one batch: every observable of each path
    at each sample of cfg.obs_every, (O, P, T), with the batch's q passed
    to a `sink(t, q)` at each sample of cfg.snap_every.  `records` are
    its paths' TrajectoryRecords so far; a blow-up `stop` sets blow_time."""

    def __init__(self, cfg: SimConfig, observables, streams, sink=None):
        self.cfg, self.streams, self.sink = cfg, streams, sink
        self.snaps = cfg.snap_every if sink else 0
        self.names = [ob.name for ob in observables]
        self.evaluate, self.slots = _sample_plan(observables)
        self.series = np.empty((len(observables), len(streams),
                                cfg.n_samples(cfg.obs_every)))
        self.count = 0

    def __call__(self, samples):
        (j, ctx), = samples
        cfg, snaps = self.cfg, self.snaps
        if snaps and (j % snaps == 0 or j == cfg.n_steps):
            self.sink(j * cfg.dt, ctx.q_hat)
        if j % cfg.obs_every == 0 or j == cfg.n_steps:
            self.evaluate(ctx, self.series[..., self.count])
            self.count += 1

    def records(self, stop=None):
        count = self.count
        times = self.cfg.sample_times(self.cfg.obs_every)[:count]
        blow_time = stop.time if isinstance(stop, BlowUpError) else None
        return [TrajectoryRecord(
            times=times, stream=stream, config=self.cfg, blow_time=blow_time,
            observables={name: self.series[slot, p, :count]
                         for name, slot in zip(self.names, self.slots)})
            for p, stream in enumerate(self.streams)]


def _drive(runs, threads: int = 1) -> list:
    """The one driver of the stepping loop: each run (batches, fold) steps
    its `_batches` in lockstep, one sample of each in turn, and `fold`
    takes each sample's [(j, ObsContext)] before they resume.  Runs fan
    out over `threads` pool threads if `_blas_pinned()`.  Overflow
    warnings are silenced around each drive, never across a yield.
    Returns each run's stepping seconds per batch.  The earliest abort of
    a sample raises, with a `_Series`'s record of its path `worst`."""
    def drive(batches, fold):
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
                    stop = min(stops, key=lambda exc: exc.time)
                    if isinstance(fold, _Series):
                        stop.record = fold.records(stop)[stop.worst]
                    raise stop
                if samples[0] is None:
                    return seconds
                fold(samples)

    if threads > 1 and len(runs) > 1 and _blas_pinned():
        import concurrent.futures       # only here: 5-8 ms at every start-up
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            return list(pool.map(drive, *zip(*runs)))
    return [drive(*run) for run in runs]


def _batches(cfg: SimConfig, streams, initial=None, ou_rate=None,
             every=(1,)) -> list:
    """(streams, `_samples` generator) of each batch of at most
    _BATCH_POINTS grid points over paths and layers.  Path p starts from
    `initial` (one (3, Nx, Ny) datum for every path, or row p of a (P, 3,
    Nx, Ny) array; default the config descriptor)."""
    basis, n_paths = cfg.basis, len(streams)
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    if min(every) < 0:
        raise ConfigurationError("snap_every must be >= 0")
    shape = (N_LAYERS,) + basis.spectral_shape
    if initial is None:
        initial = initial_coeffs(cfg.init, basis)
    elif initial.shape not in (shape, (n_paths,) + shape):
        raise ShapeError(f"initial shape {initial.shape} invalid")
    _keep_freed_heap()
    per_batch = max(1, _BATCH_POINTS // (N_LAYERS
                                         * math.prod(basis.grid_shape)))
    return [(streams[i:i + per_batch], _samples(
                cfg, streams[i:i + per_batch],
                initial if initial.ndim == 3 else initial[i:i + per_batch],
                ou_rate, every))
            for i in range(0, n_paths, per_batch)]


def _samples(cfg: SimConfig, streams, initial, ou_rate, every):
    """The stepping loop: step P = len(streams) paths as one (P, 3, Nx,
    Ny) state and yield (j, ObsContext of q and W) at each sample j: t = 0,
    the horizon and each multiple of a cadence in `every` (steps; 0 adds
    none).  A yielded q is never written to again.

    Path p draws from the Philox stream (cfg.seed, streams[p]), per step
    the K normals of its increment if the noise is active, then, with an
    `ou_rate`, K more for zeta, the (P, K) OU state at that rate, which
    one exact `ou_step` per step, driven by the increments if any,
    advances in place from 0.  Paths on one stream draw it once: the one
    (1, 3, Nx, Ny) increment is added to every path.  Blocks of steps are
    drawn at once, as the same normals step by step: the block is
    path-major, (paths, steps, rows, K), each generator fills its own
    block[p] in place, the increment row is weighted by c_k sqrt(dt)
    once, and step i reads the rows block[:, i, row].  The noise fields
    of `chunk` consecutive steps, as many as fit in _CHUNK_POINTS, come
    from one `NoiseMixer.coefficients` call on their step-major (K,
    chunk, P) increments, each step's a contiguous (P, 3, Nx, Ny) field
    with the bytes of its own call; a block holds whole chunks, and only
    a run's last chunk may be short.  Every operation acts on each path
    alone, so path p's bytes depend neither on P nor on its place in the
    batch; the CFL guard watches the largest |u| of all paths.  A blow-up
    (BlowUpError) or CFL abort (TimeStepError) carries `worst`, the
    index of the path with the largest state before the failing step.
    W_0 = 0 is kept past sample 0 only if eps > 0 or the consumer read
    `w_hat` there.  `_drive` advances it.
    """
    n_steps, n_paths, k = cfg.n_steps, len(streams), cfg.noise.k

    def next_sample(j):
        return min([n_steps] + [(j // c + 1) * c for c in every if c])

    stepper = Stepper(cfg)
    q = np.broadcast_to(initial, (n_paths, N_LAYERS)
                        + cfg.basis.spectral_shape)     # never written to
    w = np.zeros(q.shape)           # W_0 = 0, dropped after sample 0 if unread
    noisy, zeta = cfg.noise.active, None
    if ou_rate is not None:
        factors = ou_factors(ou_rate, cfg.noise, cfg.dt, noisy, (n_paths,))
        zeta = np.zeros((n_paths, k))
    rows = noisy + (zeta is not None)   # the increment's row comes first
    draws = streams[:1] if len(set(streams)) == 1 else streams
    gens = [rngmod.stream(cfg.seed, s) for s in draws] if rows else []
    block_steps = max(1, _BLOCK_NORMALS // max(1, rows * k * len(gens)))
    # steps per noise chunk; a block holds whole chunks, so no chunk
    # straddles a refill
    chunk = min(block_steps,
                max(1, _CHUNK_POINTS // max(1, len(gens) * q[0].size)))
    block_steps -= block_steps % chunk
    scale = cfg.noise.c * np.sqrt(cfg.dt)
    band = stepper.mixer.band
    probe = ObsContext(cfg.coupling, q, w, zeta, band)
    yield 0, probe
    if not (probe.w_read or cfg.viscosity > 0):
        w = None
    del probe
    mark = next_sample(0)
    for j in range(1, n_steps + 1):
        t_prev = (j - 1) * cfg.dt
        try:
            q = stepper.advance(q, w, t_prev)
        except (BlowUpError, TimeStepError) as stop:
            stop.worst = np.argmax(np.abs(q).reshape(n_paths, -1).max(-1))
            raise
        i = (j - 1) % block_steps
        if gens and i == 0:
            steps = min(block_steps, n_steps - j + 1)
            block = np.empty((len(gens), steps, rows, k))
            for p, gen in enumerate(gens):
                gen.standard_normal(out=block[p])
            if noisy:
                block[:, :, 0] *= scale
        if noisy:
            s = i % chunk
            if s == 0:      # (K, steps, paths): step-major columns
                fields = stepper.mixer.coefficients(
                    block[:, i:i + chunk, 0].transpose(2, 1, 0))
            field = fields[s]
            q += field
            if w is not None:
                w += field
        if zeta is not None:
            ou_step(zeta, factors, block[:, i, rows - 1],
                    block[:, i, 0] if noisy else None, out=zeta)
        if j == mark:
            mark = next_sample(j)
            yield j, ObsContext(cfg.coupling, q, w, zeta, band)


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
