"""Independent oracles of the tests: each states a quantity from its
definition, apart from the package's code for it.  Nothing here imports
`layerqg`; the functions read a basis's or a coupling's public fields."""

import numpy as np


def apply_operator(coupling, psi_hat):
    """(A + L) psi, spectral coefficients in and out: -lambda_{n,m} h_i
    psi_i + sum_j L_ij psi_j per mode."""
    lam = coupling.basis.eigenvalues
    a_part = -lam[None, :, :] * coupling.h[:, None, None] * psi_hat
    l_part = np.einsum("ij,jnm->inm", coupling.l_matrix, psi_hat)
    return a_part + l_part


def mode_matrix(coupling, n, m):
    """M_{n,m} = -lambda_{n,m} D + L for 1-based mode indices."""
    lam_nm = coupling.basis.eigenvalues[n - 1, m - 1]
    return -lam_nm * np.diag(coupling.h) + coupling.l_matrix


def grid_points(basis):
    """The grid's (xs, ys): x_j = j hx for j = 0..Gx+1, boundaries
    included, and y likewise."""
    return (np.arange(basis.gx + 2) * basis.hx,
            np.arange(basis.gy + 2) * basis.hy)


def quad_weights(basis):
    """Trapezoid weights on the full grid, shape (Gx+2, Gy+2): the outer
    product of the 1-D rules (h/2, h, ..., h, h/2) of the two axes."""
    wx = np.full(basis.gx + 2, basis.hx)
    wx[0] = wx[-1] = basis.hx / 2
    wy = np.full(basis.gy + 2, basis.hy)
    wy[0] = wy[-1] = basis.hy / 2
    return np.outer(wx, wy)
