"""Additive noise carried by (A + L)-eigenpairs, and the exact
Ornstein-Uhlenbeck stochastic convolution.

The driving Wiener process is W_t = sum_k c_k rho_k W^k_t with scalar
Brownian motions W^k and coefficients c_k = sigma (1 + |mu_k|)^(-r) over
the eigenpairs rho_k of the elliptic operator, indexed from the
smallest-|mu| pair.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .coupling import OperatorEigenpairs
from .errors import ConfigurationError
from .spectral import N_LAYERS


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated noise: K retained eigenpairs, decay exponent r, amplitude
    sigma, coefficients c_k = sigma (1 + |mu_k|)^(-r)."""

    decay: float
    sigma: float
    c: np.ndarray  # (K,)

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")
        if self.decay < 0:
            raise ConfigurationError("decay must be nonnegative")
        if np.any(self.c < 0) or np.any(np.diff(self.c) > 1e-15):
            raise ConfigurationError("c_k must be nonnegative, nonincreasing")

    @property
    def k(self) -> int:
        return len(self.c)

    @property
    def active(self) -> bool:
        """Whether the noise forces anything: sigma > 0 and K > 0."""
        return self.sigma > 0 and self.k > 0


def make_noise(pairs: OperatorEigenpairs, k: int, decay: float,
               sigma: float) -> NoiseSpec:
    if k < 0:
        raise ConfigurationError(f"noise_modes must be nonnegative, got {k}")
    if k > len(pairs):
        raise ConfigurationError(
            f"noise truncation k={k} exceeds available eigenpairs {len(pairs)}")
    return NoiseSpec(decay=decay, sigma=sigma,
                     c=_decay_law(pairs, k, decay, sigma))


def _decay_law(pairs: OperatorEigenpairs, count: int, decay: float,
               sigma: float) -> np.ndarray:
    """c_k = sigma (1 + |mu_k|)^(-decay) over the first `count` pairs."""
    return sigma * (1.0 + np.abs(pairs.mu[:count])) ** (-decay)


def sigma_for_stationary_l2(pairs: OperatorEigenpairs, k: int, decay: float,
                            gamma: float, target: float = 1.0) -> float:
    """Amplitude making the stationary E||q||_2^2 of the damped system equal
    target^2 (the transport term is L2-neutral, so the balance
    2 gamma E||q||^2 = sum c_k^2 holds with or without advection)."""
    weights = _decay_law(pairs, k, decay, 1.0) ** 2
    return target * np.sqrt(2.0 * gamma / np.sum(weights))


class NoiseMixer:
    """Caches the eigenpair->coefficient scatter for one (spec, pairs).

    The scatter is kept as (row, eigenpair, value) triplets sorted by flat
    (3, Nx, Ny) row and then by eigenpair, and applied with np.bincount,
    which adds each row's terms in that order.  A batch of P paths gets
    its own flat (rows, index, values) tables, path-major, built on its
    first call: a call then gathers its terms with one `take` and
    weights them in place.
    """

    def __init__(self, spec: NoiseSpec, pairs: OperatorEigenpairs):
        self.spec = spec
        k = spec.k
        rows = pairs.flat_index[:k].ravel()
        cols = np.repeat(np.arange(k), N_LAYERS)      # row-major like vec[:k]
        order = np.argsort(rows, kind="stable")       # cols already ascend
        self._rows = rows[order]
        self._cols = cols[order]
        self._vals = pairs.vec[:k].ravel()[order]
        self._shape = (N_LAYERS,) + pairs.basis.spectral_shape
        self._size = math.prod(self._shape)
        self._batches = {}      # path count P -> (rows, index, values)

    def coefficients(self, weighted_values: np.ndarray) -> np.ndarray:
        """sum_k x_k rho_k as a spectral array (x carries any c_k weight);
        a (K, P) input gives the (P, 3, Nx, Ny) fields of its columns."""
        lead = weighted_values.shape[1:]
        n = math.prod(lead)
        if n not in self._batches:
            # path-major: path p's triplets go to the bins from p * size on
            paths = np.arange(n)[:, None]
            self._batches[n] = ((self._rows + self._size * paths).ravel(),
                                (self._cols * n + paths).ravel(),
                                np.tile(self._vals, n))
        rows, index, values = self._batches[n]
        terms = weighted_values.ravel().take(index)
        terms *= values
        flat = np.bincount(rows, weights=terms, minlength=self._size * n)
        return flat.reshape(lead + self._shape)

    def increment(self, dt: float, rng: np.random.Generator) -> np.ndarray:
        """One increment sum_k c_k rho_k xi_k sqrt(dt).  Nothing calls it:
        the stepping loop draws its own, and it stays only while the
        tracer of `perfbench` lists it as a target."""
        xi = rng.standard_normal(self.spec.k)
        return self.coefficients(self.spec.c * xi * np.sqrt(dt))


# -- stochastic convolution --------------------------------------------
#
# zeta_lambda(t) = int_{-inf}^t e^{-lambda (t-s)} dW_s is carried as its
# coefficients zeta_k over the retained eigenpairs.


def ou_factors(rate: float, spec: NoiseSpec, dt: float, driven: bool,
               lead=()):
    """(e^{-rate dt}, beta, width, work) of the exact OU update `ou_step`:
    beta is None for the standalone form, work the (*lead, K) scratch of
    its products, shaped like the zeta it steps (the stepping loop's is
    (P, K)), so one set serves one zeta.  Computed once per loop.

    A width that is not finite (c_k^2 overflows a double, which leaves
    the driven width NaN) is a configuration error, raised before any
    step is taken.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    decay, work = np.exp(-rate * dt), np.empty(lead + (spec.k,))
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        if not driven:
            beta, width = None, spec.c * np.sqrt((1 - decay**2) / (2 * rate))
        else:
            # J = int e^{-lam (dt - s)} dW over the step, conditioned on
            # the plain increment I: E[J|I] = beta I, Var = full minus
            # explained.
            beta = (1.0 - decay) / (rate * dt)
            var_full = spec.c**2 * (1.0 - decay**2) / (2.0 * rate)
            width = np.sqrt(np.maximum(var_full - beta**2 * spec.c**2 * dt,
                                       0.0))
    if not np.all(np.isfinite(width)):
        raise ConfigurationError(
            f"sigma and rate={rate:g} give a non-finite OU width: "
            f"c_k^2 (1 - e^(-2 rate dt)) / (2 rate) overflows")
    return decay, beta, width, work


def ou_step(zeta, factors, xi, driving_increment=None, out=None):
    """Advance zeta_lambda by one step of `ou_factors`, exact in
    distribution; writes into `out` (which may be zeta itself) or a new
    array.

    `xi` holds the K fresh standard normals of the step, and zeta, xi
    and the increment may carry leading path axes: every operation acts
    on each entry alone.

    Standalone (driving_increment None, factors not driven):
        zeta_k <- e^{-lam dt} zeta_k + c_k sqrt((1 - e^{-2 lam dt})/(2 lam)) xi_k.

    With a driving increment (the c_k-weighted Brownian increments of the
    same step, as the stepping loop draws them) and driven factors,
    the update samples the convolution integral conditionally on that
    increment, so the OU path is the stochastic convolution of the very
    noise path driving the dynamics, still without time-discretization
    bias.
    """
    decay, beta, width, work = factors
    new = np.multiply(decay, zeta, out=out)
    if beta is not None:
        new += np.multiply(beta, driving_increment, out=work)
    new += np.multiply(width, xi, out=work)
    return new
