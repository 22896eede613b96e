"""Layer interaction matrix, per-mode elliptic solver, and eigenpairs.

The three potential-vorticity layers couple through the tridiagonal
template

    Ltilde = [[-l1, l1, 0], [l2, -2*l2, l2], [0, l3, -l3]]

built from positive stretching coefficients l_i.  Rescaling each row by
h_i = lam / l_i (diagonal matrix D) makes L = D Ltilde symmetric negative
semidefinite with kernel (1, 1, 1).  The vorticity inversion q = (A + L) psi
with A = D Laplacian then reduces, mode by mode, to the symmetric negative
definite 3x3 systems

    M_{n,m} = -lambda_{n,m} D + L = D^{1/2} (S - lambda_{n,m} I) D^{1/2},

with S = D^{-1/2} L D^{-1/2}.  One eigendecomposition S = U diag(s) U^T
(the vertical normal modes) diagonalizes every M_{n,m} at once, so the
elliptic solve is two 3x3 products around an elementwise division by
s_j - lambda_{n,m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ShapeError
from .spectral import N_LAYERS, SpectralBasis

_TEMPLATE = np.array([[-1.0, 1.0, 0.0],
                      [1.0, -2.0, 1.0],
                      [0.0, 1.0, -1.0]])


@dataclass(frozen=True)
class LayerCoupling:
    """Symmetrized coupling for one basis, with its vertical modes."""

    basis: SpectralBasis
    lambdas: tuple          # raw (l1, l2, l3)
    scale: float            # lam with h_i * l_i = lam
    h: np.ndarray           # diag of D, shape (3,)
    l_matrix: np.ndarray    # symmetrized L, shape (3, 3)
    modes: np.ndarray       # D^{-1/2} U, shape (3, 3); layers -> modes by .T
    mode_gain: np.ndarray   # 1 / (s_j - lambda_{n,m}), shape (3, Nx, Ny)


def symmetrize(lambdas, basis: SpectralBasis, scale: float = 1.0) -> LayerCoupling:
    """Build D and L = D Ltilde and the vertical modes of S = D^{-1/2} L
    D^{-1/2}.

    Hard errors if the constructed L fails symmetry, negative
    semidefiniteness, or the kernel condition; these are construction
    invariants.  No mode matrix needs its own check: S is congruent to L,
    so s <= 0, and every lambda_{n,m} > 0, so every M_{n,m} is negative
    definite with eigenvalues <= -min(h) lambda_{n,m}.
    """
    l1, l2, l3 = lambdas
    for i, value in enumerate(lambdas, start=1):
        if value <= 0:
            raise ConfigurationError(f"lambda{i} must be positive")
    if scale <= 0:
        raise ConfigurationError("lambda_scale must be positive")
    h = scale / np.array([l1, l2, l3])
    ltilde = _TEMPLATE * np.array([l1, l2, l3])[:, None]
    lmat = np.diag(h) @ ltilde
    if np.max(np.abs(lmat - lmat.T)) > 1e-14 * max(1.0, scale):
        raise ConfigurationError("symmetrization failed: L not symmetric")
    if np.linalg.norm(lmat @ np.ones(3)) > 1e-14 * max(1.0, scale):
        raise ConfigurationError("symmetrization failed: (1,1,1) not in ker L")
    if np.max(np.linalg.eigvalsh(lmat)) > 1e-13 * max(1.0, scale):
        raise ConfigurationError("symmetrization failed: L not neg. semidefinite")

    rsqrt_h = 1.0 / np.sqrt(h)
    s, u = np.linalg.eigh(rsqrt_h[:, None] * lmat * rsqrt_h)
    # s <= 0 by the check on L; eigh roundoff on the (1,1,1) kernel can give
    # s_0 a tiny positive value, which would move s_0 - lambda toward zero
    s = np.minimum(s, 0.0)
    return LayerCoupling(basis=basis, lambdas=(l1, l2, l3), scale=scale,
                         h=h, l_matrix=lmat, modes=rsqrt_h[:, None] * u,
                         mode_gain=1.0 / (s[:, None, None] - basis.eigenvalues))


def solve_elliptic_coeffs(coupling: LayerCoupling, q_hat: np.ndarray,
                          out: np.ndarray | None = None,
                          work: np.ndarray | None = None) -> np.ndarray:
    """psi_hat with (A + L) psi = q through the vertical modes; leading axes
    batch (each leading index is solved alike at any batch size).

    `out`, a C-contiguous array of q_hat's shape, receives psi_hat and is
    returned; `work`, a (..., 3, Nx Ny) array apart from both, receives
    the modal amplitudes, else a new array does.  The one-off form of
    `elliptic_plan`: it binds the solve and runs it once.
    """
    return elliptic_plan(coupling, q_hat, out, work)()


def elliptic_plan(coupling: LayerCoupling, q_hat: np.ndarray,
                  out: np.ndarray | None = None,
                  work: np.ndarray | None = None):
    """A function that solves for psi_hat of q_hat into `out` and returns
    it, reading q_hat each time it is called: `solve_elliptic_coeffs`
    with its checks, reshapes and tables bound once, for a caller that
    solves at every step.  A q_hat whose last two axes are contiguous is
    read in place (else its values at binding are); without `out` or
    `work` the plan makes its own arrays.  A call runs two matmuls and
    one multiply and nothing else.
    """
    if q_hat.shape[-3:] != (N_LAYERS,) + coupling.basis.spectral_shape:
        raise ShapeError(f"q_hat shape {q_hat.shape} invalid")
    if out is None:
        out = np.empty(q_hat.shape)
    elif out.shape != q_hat.shape or not out.flags.c_contiguous:
        raise ShapeError(f"out must be C-contiguous of shape {q_hat.shape}")
    flat = q_hat.reshape(q_hat.shape[:-2] + (-1,))     # (..., 3, Nx Ny)
    if work is None:
        work = np.empty(flat.shape)
    to_modes, from_modes = coupling.modes.T, coupling.modes
    gain = coupling.mode_gain.reshape(N_LAYERS, -1)
    psi = out.reshape(flat.shape)

    def solve():
        amp = np.matmul(to_modes, flat, out=work)
        amp *= gain
        np.matmul(from_modes, amp, out=psi)
        return out
    return solve


@dataclass(frozen=True)
class OperatorEigenpairs:
    """The K smallest-|mu| eigenpairs of (A + L).

    Entries are rho_k = e_{n_k, m_k} (x) v_k with (A + L) rho_k = mu_k rho_k,
    sorted by |mu| ascending with (n, m, j) lexicographic tie-break; j
    indexes a mode's three eigenvalues in ascending |mu|.  Eigenvector
    signs are fixed so the largest-magnitude component is positive.
    """

    coupling: LayerCoupling
    mode_n: np.ndarray   # (K,) 1-based
    mode_m: np.ndarray   # (K,)
    comp_j: np.ndarray   # (K,) 0..2
    mu: np.ndarray       # (K,) negative
    vec: np.ndarray      # (K, 3) orthonormal within each mode

    def __len__(self):
        return len(self.mu)

    @property
    def basis(self) -> SpectralBasis:
        return self.coupling.basis

    @cached_property
    def spatial_eigenvalues(self):
        """lambda_{n,m} per entry, shape (K,); read-only."""
        lam = self.basis.eigenvalues[self.mode_n - 1, self.mode_m - 1]
        lam.setflags(write=False)
        return lam

    @cached_property
    def flat_index(self):
        """(K, 3): where v_k's layer i sits in a flattened (3, Nx, Ny)
        coefficient array; read-only."""
        nx, ny = self.basis.spectral_shape
        index = (np.arange(N_LAYERS) * (nx * ny)
                 + ((self.mode_n - 1) * ny + self.mode_m - 1)[:, None])
        index.setflags(write=False)
        return index


def pair_coeffs(coeffs, index, vec):
    """sum_i c[..., i, n_k, m_k] v_k[i] per k, shape (..., K), from (...,
    3, Nx, Ny) coefficients c, the (K, 3) `flat_index` rows of the pairs
    and their (K, 3) vectors.

    The gathered (..., K, 3) products are summed over their contiguous
    last axis, so each pairing is the same sum, in the same order, at
    every K and every number of leading axes.
    """
    flat = coeffs.reshape(coeffs.shape[:-3] + (-1,))
    return np.add.reduce(flat.take(index, axis=-1) * vec, axis=-1)


def eigenpairs(coupling: LayerCoupling, k: int) -> OperatorEigenpairs:
    """Compute the K smallest-|mu| eigenpairs of (A + L).

    Only the modes that can hold one of them are factored.  -M_nm >=
    lambda_nm min(h) I, and ||L||_2 is at most L's largest absolute row
    sum (Gershgorin), so every |mu| of mode (n, m) lies in
    [lambda_nm min(h), lambda_nm max(h) + ||L||].  The ceil(K/3) modes of
    smallest lambda hold at least K eigenvalues no larger than
    reach = lambda_(ceil(K/3)) max(h) + ||L||, so a mode whose whole
    range lies above reach holds none of the K smallest.  Kept modes of
    one lambda share their matrix, which is factored once.
    """
    basis = coupling.basis
    total = N_LAYERS * basis.nx * basis.ny
    if not (1 <= k <= total):
        raise ConfigurationError(f"k={k} out of range 1..{total}")
    h = coupling.h
    lam = basis.eigenvalues.reshape(-1)
    by_lam = np.lexsort((lam,))                 # modes by ascending lambda
    reach = (lam[by_lam[-(-k // N_LAYERS) - 1]] * h.max()
             + np.abs(coupling.l_matrix).sum(axis=1).max())
    # the margin keeps eigh's roundoff from deciding a boundary mode; kept
    # modes go in (n, m) order, the flat index order
    kept = np.arange(lam.size)[lam * h.min() <= reach * (1 + 1e-12)]
    # modes of one lambda (on a square, (n, m) and (m, n)) share a matrix,
    # factored once: the distinct lambdas start the runs of equal values
    # in the ranking (np.unique would sort again, and its sort's first use
    # faults in code pages that raise every command's peak RSS by 0.2 MB)
    ranked = by_lam[:len(kept)]
    starts = np.empty(len(kept), dtype=bool)
    starts[0] = True
    np.not_equal(lam[ranked[1:]], lam[ranked[:-1]], out=starts[1:])
    distinct = lam[ranked[starts]]
    which = np.empty(lam.size, dtype=np.int64)
    which[ranked] = np.cumsum(starts) - 1       # each mode's matrix
    which = which[kept]
    eigval, eigvec = np.linalg.eigh(     # ascending eigenvalues per matrix
        -distinct[:, None, None] * np.diag(h) + coupling.l_matrix)
    # ascending |mu| within a mode = reversed eigh order (all mu < 0)
    eigval = eigval[..., ::-1]
    eigvec = eigvec[..., ::-1]
    # canonical sign: largest-|component| positive
    idx = np.argmax(np.abs(eigvec), axis=-2, keepdims=True)
    signs = np.sign(np.take_along_axis(eigvec, idx, axis=-2))
    signs[signs == 0] = 1.0
    eigvec = eigvec * signs

    # entries in (n, m, j) order, so a stable sort by |mu| breaks ties
    # lexicographically
    flat_mu = eigval[which].reshape(-1)
    order = np.argsort(np.abs(flat_mu), kind="stable")[:k]
    mode, comp = np.divmod(order, N_LAYERS)     # index into kept; j
    row, col = np.divmod(kept[mode], basis.ny)
    return OperatorEigenpairs(
        coupling=coupling, mode_n=(row + 1).astype(np.int64),
        mode_m=(col + 1).astype(np.int64), comp_j=comp.astype(np.int64),
        mu=flat_mu[order], vec=eigvec[which[mode], :, comp])
