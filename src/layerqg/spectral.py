"""Dirichlet sine eigenbasis of a rectangle, transforms, and norms.

The basis functions on D = (0, Lx) x (0, Ly) are

    e_{n,m}(x, y) = (2 / sqrt(Lx Ly)) sin(n pi x / Lx) sin(m pi y / Ly)

for 1 <= n <= Nx, 1 <= m <= Ny, with Dirichlet-Laplacian eigenvalues
lambda_{n,m} = pi^2 (n^2/Lx^2 + m^2/Ly^2).  The quadrature grid carries
the boundary: points x_j = j Lx/(Gx+1), j = 0..Gx+1, with trapezoid
weights.  That rule integrates every cosine mode up to 2G+1 exactly, so
products of two band-limited fields (cosine content <= 2N) are integrated
exactly whenever G >= N, triple products (content <= 3N) whenever
2G >= 3N - 1, and products of four fields whenever G >= 2N.  Every basis
keeps the triple floor, so the projection of a product of two fields
onto the modes is exact.  The transport product is formed on
`transport_basis`, the smallest such grid G = floor(3N/2) (Orszag's 3/2
rule); `build_basis`, the user-facing constructor, enforces G >= 2N, on
which the L4-type integrals of the observables and diagnostics are
exact as well.

Transforms are dense matrix products with read-only tables sampled at
the grid points, built once per basis on first use; when the y axis has
the x axis's grid and mode cut (every square grid), its tables start
from the same sines and cosines.  Synthesis is T_x @ c @ Y with
Y = T_y.T, where each axis has one table per derivative order: the
sines (order 0), cos . diag(k) (order 1) and -sin . diag(k^2) (order 2),
with k = n pi / L, and the basis amplitude 2/sqrt(Lx Ly) is folded into
the x tables.  So a field, its gradient or its Hessian on the grid costs
its two products and nothing else, and grids of one x order share the
first: `stage_x` makes it once and `stage_y` finishes each grid from it,
with the bytes of `synth`.  A `gradient_plan` fixes the operands of
both first derivatives once, for a caller that synthesizes them at
every step: one matmul makes the x-stage products of both orders, each
with its own table's bytes (one gemm per matrix either way; a gemm
over a merged batch would round differently).  T_x is stored (Gx+2,
Nx) and Y as its own C-contiguous (Ny, Gy+2) copy, so both products
multiply C-contiguous operands.  With OpenBLAS 0.3.31 (SkylakeX kernels) on one
thread, the copy takes 26-41% less time than the transposed view T_y.T
in every product with M*N*K below about 1e6 (every transport grid up to
N = 64); larger products (the N = 64 observable grid, 130*64*130) run
the same kernel either way, with the same bytes and time.  The forward
transform is the trapezoid quadrature S_x.T @ v @ S_y, exact by the
rule above, with the scale hx hy 2/sqrt(Lx Ly) folded into its own x
table; it reads the (Gy+2, Ny) sine table, which a square grid shares
with the x axis.  At the mode cuts this package runs (N <= 128) these
products are cheaper than FFTs of length G+1.

Spectral coefficient arrays have shape (..., Nx, Ny); grid arrays have
shape (..., Gx+2, Gy+2).  Layer fields carry a leading axis of length 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ShapeError, UnsupportedExponentError

N_LAYERS = 3


@dataclass(frozen=True)
class SpectralBasis:
    """Immutable transform plan for one rectangle and mode cut."""

    lx: float
    ly: float
    nx: int
    ny: int
    gx: int
    gy: int

    def __post_init__(self):
        for name in ("lx", "ly"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("nx", "ny", "gx", "gy"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        for g, n in (("gx", "nx"), ("gy", "ny")):
            if 2 * getattr(self, g) < 3 * getattr(self, n) - 1:
                raise ConfigurationError(
                    f"{g} must satisfy 2*{g} >= 3*{n} - 1 (exact projection "
                    f"of quadratic products)")

    @property
    def spectral_shape(self):
        return (self.nx, self.ny)

    @property
    def grid_shape(self):
        return (self.gx + 2, self.gy + 2)

    @cached_property
    def hx(self):
        return self.lx / (self.gx + 1)

    @cached_property
    def hy(self):
        return self.ly / (self.gy + 1)

    @cached_property
    def xs(self):
        return np.arange(self.gx + 2) * self.hx

    @cached_property
    def ys(self):
        return np.arange(self.gy + 2) * self.hy

    @cached_property
    def kx(self):
        """Derivative factors n pi / Lx, shape (Nx, 1)."""
        return (np.arange(1, self.nx + 1) * np.pi / self.lx)[:, None]

    @cached_property
    def ky(self):
        """Derivative factors m pi / Ly, shape (1, Ny)."""
        return (np.arange(1, self.ny + 1) * np.pi / self.ly)[None, :]

    @cached_property
    def eigenvalues(self):
        """lambda_{n,m} = pi^2 (n^2/Lx^2 + m^2/Ly^2), shape (Nx, Ny)."""
        return self.kx**2 + self.ky**2

    @cached_property
    def transport_basis(self) -> "SpectralBasis":
        """The same rectangle and modes on the grid G = floor(3N/2).

        The smallest grid whose quadrature projects a product of two
        fields exactly: its trapezoid rule is exact for cosine bands
        below 2(G+1), and u . grad q . e_nm has band 3N.
        """
        return SpectralBasis(self.lx, self.ly, self.nx, self.ny,
                             3 * self.nx // 2, 3 * self.ny // 2)

    @cached_property
    def quad_weights(self):
        """Trapezoid weights on the full grid, shape (Gx+2, Gy+2)."""
        wx = np.full(self.gx + 2, self.hx)
        wx[0] = wx[-1] = self.hx / 2
        wy = np.full(self.gy + 2, self.hy)
        wy[0] = wy[-1] = self.hy / 2
        return np.outer(wx, wy)

    # -- transforms ---------------------------------------------------

    def _check_grid(self, values):
        if values.shape[-2:] != self.grid_shape:
            raise ShapeError(
                f"grid shape {values.shape[-2:]} != {self.grid_shape}")

    def _check_spectral(self, coeffs):
        if coeffs.shape[-2:] != self.spectral_shape:
            raise ShapeError(
                f"spectral shape {coeffs.shape[-2:]} != {self.spectral_shape}")

    @cached_property
    def norm_factor(self):
        """2 / sqrt(Lx Ly), the amplitude of every basis function."""
        return 2.0 / np.sqrt(self.lx * self.ly)

    @cached_property
    def _trig_x(self):
        """Sin and cos tables along x, shape (Gx+2, Nx)."""
        return _trig_tables(self.gx, self.nx)

    @cached_property
    def _synth_x(self):
        """x tables by derivative order, amplitude folded in, (Gx+2, Nx)."""
        sin, cos = self._trig_x
        return _derivative_tables(sin * self.norm_factor,
                                  cos * self.norm_factor, self.kx[:, 0])

    @cached_property
    def _trig_y(self):
        """Sin and cos tables along y, shape (Gy+2, Ny); a grid with
        (Gy, Ny) == (Gx, Nx) takes them from the x axis."""
        if (self.gy, self.ny) == (self.gx, self.nx):
            return self._trig_x
        return _trig_tables(self.gy, self.ny)

    @cached_property
    def _synth_y(self):
        """y tables by derivative order, stored transposed and
        C-contiguous, shape (Ny, Gy+2): `synth` multiplies by them as
        they are."""
        return _read_only(*(np.ascontiguousarray(table.T) for table in
                            _derivative_tables(*self._trig_y, self.ky[0])))

    @cached_property
    def _forward_x(self):
        """The x sine table times the quadrature scale hx hy 2/sqrt(Lx Ly)."""
        return _read_only(
            self._trig_x[0] * (self.hx * self.hy * self.norm_factor))[0]

    def synth(self, c, dx, dy, out=None):
        """The (dx, dy)-th partial derivative of the sine series c on the
        grid, for derivative orders 0, 1 or 2 per axis.

        c holds coefficients of the normalized basis; leading axes batch.
        The grid goes into `out` if given (any array of the result's
        shape whose rows are contiguous), else into a new array; either
        way each grid is the same gemm, so the bytes are the same.
        """
        return self.stage_y(self.stage_x(c, dx), dy, out=out)

    def stage_x(self, c, dx):
        """The x stage of `synth`: T_x[dx] @ c, shape (..., Gx+2, Ny).
        Every grid of c with x order dx is finished from it by `stage_y`."""
        return self._synth_x[dx] @ c

    @cached_property
    def _grad_x(self):
        """The x tables of orders 0 and 1 stacked, (2, Gx+2, Nx)."""
        return _read_only(np.stack(self._synth_x[:2]))[0]

    def gradient_plan(self, c, xs, out_x, out_y):
        """A function that writes d/dx and d/dy of the sine series c into
        `out_x` and `out_y` (grids as `synth` has them), with the bytes of
        `synth`, reading c each time it is called.

        Its one matmul makes (stage_x(c, 0), stage_x(c, 1)) into `xs`, a
        (2,) + c.shape[:-2] + (Gx+2, Ny) array apart from c and the
        outputs; `stage_y` of order 0 of the second gives d/dx, of order 1
        of the first d/dy.  A call runs three matmuls and nothing else."""
        table = self._grad_x.reshape((2,) + (1,) * (c.ndim - 2)
                                     + self._grad_x.shape[1:])
        order0, order1 = xs
        to_x, to_y = self._synth_y[:2]

        def synth():
            np.matmul(table, c, out=xs)
            np.matmul(order1, to_x, out=out_x)
            np.matmul(order0, to_y, out=out_y)
        return synth

    def stage_y(self, product, dy, out=None):
        """The y stage of `synth`: the (dx, dy) grid from the x-stage
        product of order dx, into `out` as `synth` has it."""
        return np.matmul(product, self._synth_y[dy], out=out)

    # Named derivative orders of `synth` (s: order 0, c: order 1); the
    # traced benchmark counts each call as one batch of 2-D transforms.
    def synth_ss(self, c):
        return self.synth(c, 0, 0)

    def synth_cs(self, c):
        return self.synth(c, 1, 0)

    def synth_sc(self, c):
        return self.synth(c, 0, 1)

    def synth_cc(self, c):
        return self.synth(c, 1, 1)

    def forward(self, values: np.ndarray, scratch=None) -> np.ndarray:
        """Grid samples -> coefficients on the retained modes.

        Trapezoid quadrature against each basis function; the sine tables
        vanish on the boundary rows, so boundary samples are ignored.
        Exact (no aliasing) whenever the sampled function is a sine
        polynomial of band <= G in each direction.  The first product,
        shape (..., Nx, Gy+2), goes into `scratch` as `synth` has its
        grid, the coefficients into a new array.
        """
        self._check_grid(values)
        return np.matmul(self._forward_x.T, values,
                         out=scratch) @ self._trig_y[0]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients -> samples on the full grid (boundary rows zero)."""
        self._check_spectral(coeffs)
        return self.synth(coeffs, 0, 0)

    def grad_grids(self, coeffs):
        """(d/dx f, d/dy f) on the grid from sine coefficients."""
        self._check_spectral(coeffs)
        return self.synth_cs(coeffs), self.synth_sc(coeffs)

    def perp_grad_grids(self, coeffs):
        """grad^perp f = (-d/dy f, d/dx f) on the grid."""
        fx, fy = self.grad_grids(coeffs)
        return -fy, fx

    def hessian_grids(self, coeffs):
        """(f_xx, f_xy, f_yy) on the grid from sine coefficients."""
        self._check_spectral(coeffs)
        return (self.synth(coeffs, 2, 0), self.synth(coeffs, 1, 1),
                self.synth(coeffs, 0, 2))

    def compatible(self, other: "SpectralBasis") -> bool:
        return (self.lx, self.ly, self.nx, self.ny, self.gx, self.gy) == (
            other.lx, other.ly, other.nx, other.ny, other.gx, other.gy)


def _trig_tables(g, n):
    """(S, C) with T[j, k-1] = sin|cos(k pi j / (g+1)).

    Rows j = 0..g+1 are the grid points including both boundaries,
    columns k = 1..n the retained modes.  The phase k*j is reduced modulo
    2(g+1) in integers before scaling, and the sine boundary rows are set
    to exact zeros, so synthesized sine fields vanish exactly on the edge.
    """
    phase = np.outer(np.arange(g + 2), np.arange(1, n + 1)) % (2 * g + 2)
    angle = phase * (np.pi / (g + 1))
    sin = np.sin(angle)
    sin[[0, -1]] = 0.0
    return _read_only(sin, np.cos(angle))


def _derivative_tables(sin, cos, k):
    """Tables of orders 0, 1, 2 along one axis: d/dx sin(kx) = k cos(kx)
    and d/dx cos(kx) = -k sin(kx), one factor k per column."""
    return _read_only(sin, cos * k, -sin * k**2)


def _read_only(*tables):
    """The cached tables, locked: every transform of the basis shares them."""
    for table in tables:
        table.setflags(write=False)
    return tables


def build_basis(lx, ly, nx, ny, gx=None, gy=None) -> SpectralBasis:
    """Construct the basis; G defaults to the dealiasing floor 2N.

    G >= 2N makes the quadrature of products of four fields exact, which
    the observables and diagnostics on this grid rely on.
    """
    gx = 2 * nx if gx is None else gx
    gy = 2 * ny if gy is None else gy
    for g, n, axis in ((gx, nx, "x"), (gy, ny, "y")):
        if g < 2 * n:
            raise ConfigurationError(
                f"grid_{axis} must satisfy grid_{axis} >= 2*modes_{axis} "
                f"(dealiasing constraint)")
    return SpectralBasis(lx=float(lx), ly=float(ly), nx=int(nx), ny=int(ny),
                         gx=int(gx), gy=int(gy))


@dataclass(frozen=True)
class LayerField:
    """A 3-layer scalar field in spectral and/or grid representation.

    At least one representation must be present; conversions return
    arrays and never mutate the field.
    """

    basis: SpectralBasis
    coeffs: np.ndarray | None = None
    grid: np.ndarray | None = None

    def __post_init__(self):
        if self.coeffs is None and self.grid is None:
            raise ShapeError("LayerField needs a spectral or grid array")
        if self.coeffs is not None:
            if self.coeffs.shape != (N_LAYERS,) + self.basis.spectral_shape:
                raise ShapeError(f"coeffs shape {self.coeffs.shape} invalid")
            if not np.all(np.isfinite(self.coeffs)):
                raise ShapeError("non-finite spectral coefficients")
        if self.grid is not None:
            if self.grid.shape != (N_LAYERS,) + self.basis.grid_shape:
                raise ShapeError(f"grid shape {self.grid.shape} invalid")

    @classmethod
    def from_coeffs(cls, basis, coeffs):
        return cls(basis=basis, coeffs=np.asarray(coeffs, dtype=float))

    @classmethod
    def from_grid(cls, basis, grid):
        return cls(basis=basis, grid=np.asarray(grid, dtype=float))

    @classmethod
    def zero(cls, basis):
        return cls(basis=basis,
                   coeffs=np.zeros((N_LAYERS,) + basis.spectral_shape))

    def spectral(self) -> np.ndarray:
        if self.coeffs is not None:
            return self.coeffs
        return self.basis.forward(self.grid)

    def values(self) -> np.ndarray:
        if self.grid is not None:
            return self.grid
        return self.basis.inverse(self.coeffs)


def single_mode_field(basis, n, m, layer_amplitudes) -> LayerField:
    """LayerField supported on the single spatial mode (n, m), 1-based."""
    amps = np.asarray(layer_amplitudes, dtype=float)
    if amps.shape != (N_LAYERS,):
        raise ShapeError("need one amplitude per layer")
    if not (1 <= n <= basis.nx and 1 <= m <= basis.ny):
        raise ConfigurationError(f"mode ({n}, {m}) outside "
                                 f"1..{basis.nx} x 1..{basis.ny}")
    c = np.zeros((N_LAYERS,) + basis.spectral_shape)
    c[:, n - 1, m - 1] = amps
    return LayerField.from_coeffs(basis, c)


# -- norms ------------------------------------------------------------


def field_sum(x):
    """Sum over the trailing (layer, x, y) axes per leading index, each on
    its own contiguous block, so the sum does not depend on the batch."""
    return x.reshape(x.shape[:-3] + (-1,)).sum(-1)


def grid_peak(vals):
    """max |vals| over the trailing (layer, x, y) axes per leading index,
    as max(max vals, -min vals) without the |vals| temporary; the + 0.0
    makes the peak of a zero field +0, as |vals| has it, not -0."""
    flat = vals.reshape(vals.shape[:-3] + (-1,))
    return np.maximum(flat.max(-1), -flat.min(-1)) + 0.0


def peak_scaled_square(vals, peak):
    """(vals / peak)^2 per leading index; a zero field divides by 1."""
    scaled = vals / np.where(peak > 0, peak, 1.0)[..., None, None, None]
    return np.square(scaled, out=scaled)


def even_exponent(p) -> int:
    """p as an int, or UnsupportedExponentError unless it is even >= 2."""
    p = int(p)
    if p < 2 or p % 2 != 0:
        raise UnsupportedExponentError(
            f"p={p}: finite exponents must be even integers >= 2")
    return p


def scaled_lp_norms(peak, square, weights, exponents):
    """[peak * (int square^(p/2))^(1/p) for p in exponents]: the Lp norms
    of a field from its `grid_peak` and `peak_scaled_square`, for
    ascending even p.

    Factoring out the peak keeps large p from overflowing.  The power is
    a chain of in-place products on the weighted square because `**` with
    an integer exponent other than 2 calls libm pow per element, about
    25x slower on a 3 x 130 x 130 grid.  Each exponent continues the
    chain of the one before, so one weighted square serves them all and
    every norm has the bits it would have alone.
    """
    power = square * weights
    norms, done = [], 2
    for p in exponents:
        if p < done:
            raise UnsupportedExponentError(
                f"exponents {exponents} must ascend")
        for _ in range((p - done) // 2):
            power *= square
        done = p
        norms.append(peak * field_sum(power) ** (1.0 / p))
    return norms


def grid_lp_norm(vals, weights, p):
    """(int |vals|^p)^(1/p) by trapezoid quadrature over the trailing
    (layer, x, y) axes; leading axes index separate fields."""
    peak = grid_peak(vals)
    if p == np.inf or p == "inf":
        return peak
    p = even_exponent(p)
    return scaled_lp_norms(peak, peak_scaled_square(vals, peak), weights,
                           (p,))[0]


def lp_norm(field: LayerField, p) -> float:
    """(sum_i int_D |q^i|^p dx)^(1/p) for even p; grid/layer max for inf.

    The layer aggregation folds the three layers into one integral.
    """
    return float(grid_lp_norm(field.values(), field.basis.quad_weights, p))
