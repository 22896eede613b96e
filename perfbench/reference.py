"""NumPy-only reference formulas used to build inputs and check outputs.

Nothing here imports layerqg: the inputs the benchmark generates and the
correctness gates it applies must not change when the program under test
is refactored.  Each function restates a formula from the package
documentation (README "Numerical method", the `coupling` and `noise`
module docstrings) in dense-matrix form.
"""

from __future__ import annotations

import numpy as np

_TEMPLATE = np.array([[-1.0, 1.0, 0.0],
                      [1.0, -2.0, 1.0],
                      [0.0, 1.0, -1.0]])


def layer_matrices(lambdas, scale=1.0):
    """(h, L): diag of D = scale / lambda_i and the symmetric L = D Ltilde."""
    lam = np.asarray(lambdas, dtype=float)
    h = scale / lam
    return h, np.diag(h) @ (_TEMPLATE * lam[:, None])


def spatial_eigenvalues(n):
    """lambda_{n,m} = pi^2 (n^2 + m^2) for 1 <= n, m <= N (unit square)."""
    k = np.arange(1, n + 1) * np.pi
    return k[:, None] ** 2 + k[None, :] ** 2


def eigen_order(lambdas, n, scale=1.0):
    """Eigenpairs of (A + L) sorted by |mu|, ties broken by (n, m, j).

    Returns 1-based mode indices n, m, the within-mode index j (ascending
    |mu|) and mu, all in that order.
    """
    h, lmat = layer_matrices(lambdas, scale)
    lam = spatial_eigenvalues(n)
    modes = -lam[..., None, None] * np.diag(h) + lmat
    mu = np.linalg.eigh(modes)[0][..., ::-1]          # ascending |mu|
    nn, mm, jj = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1),
                             np.arange(3), indexing="ij")
    flat = mu.reshape(-1)
    order = np.lexsort((jj.reshape(-1), mm.reshape(-1), nn.reshape(-1),
                        np.abs(flat)))
    return (nn.reshape(-1)[order], mm.reshape(-1)[order],
            jj.reshape(-1)[order], flat[order])


def noise_coefficients(mu, sigma, decay):
    """c_k = sigma (1 + |mu_k|)^(-r)."""
    return sigma * (1.0 + np.abs(mu)) ** (-decay)


def sigma_for_stationary_l2(mu, k, decay, gamma, target=1.0):
    """Amplitude with 2 gamma E||q||^2 = sum_k c_k^2 = 2 gamma target^2."""
    weights = (1.0 + np.abs(mu[:k])) ** (-2 * decay)
    return target * np.sqrt(2.0 * gamma / np.sum(weights))


def _trig(n, g):
    """sin and cos of k x on the boundary-inclusive grid of [0, 1], and k."""
    x = np.arange(g + 2) / (g + 1)
    k = np.arange(1, n + 1) * np.pi
    return np.sin(np.outer(x, k)), np.cos(np.outer(x, k)), k


def transport(q_hat, lambdas, scale=1.0):
    """psi_hat, the Galerkin coefficients of u . grad q, and max |u|.

    On the unit square, where the basis functions are 2 sin(n pi x)
    sin(m pi y).  (A + L) psi = q is solved mode by mode and
    u = grad_perp psi = (-psi_y, psi_x).  The product u . grad q has
    cosine content up to 2N, so its projection onto the retained modes
    (content up to 3N) is integrated exactly by the trapezoid rule on
    the boundary-inclusive G = 2N grid: the result is the exact Galerkin
    projection, whatever grid the program uses.
    """
    n = q_hat.shape[-1]
    h, lmat = layer_matrices(lambdas, scale)
    lam = spatial_eigenvalues(n)
    modes = -lam[..., None, None] * np.diag(h) + lmat          # (N, N, 3, 3)
    psi = np.linalg.solve(modes, np.moveaxis(q_hat, 0, -1)[..., None])
    psi = np.moveaxis(psi[..., 0], -1, 0)                      # (3, N, N)
    s, c, k = _trig(n, 2 * n)

    def synth(left, right, coeffs):
        return 2.0 * (left @ coeffs @ right.T)

    u1 = -synth(s, c, psi * k[None, None, :])                  # -psi_y
    u2 = synth(c, s, psi * k[None, :, None])                   # psi_x
    qx = synth(c, s, q_hat * k[None, :, None])
    qy = synth(s, c, q_hat * k[None, None, :])
    w = np.full(2 * n + 2, 1.0 / (2 * n + 1))
    w[0] = w[-1] = 0.5 / (2 * n + 1)
    product = (u1 * qx + u2 * qy) * np.outer(w, w)
    t_hat = 2.0 * (s.T @ product @ s)
    umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2))))
    return psi, t_hat, umax
