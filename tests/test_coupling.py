import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerqg.coupling import eigenpairs, solve_elliptic_coeffs, symmetrize
from layerqg.errors import ConfigurationError, ShapeError
from layerqg.spectral import LayerField, build_basis, single_mode_field

from conftest import eigenpair_field, random_band_coeffs
from oracles import apply_operator, grid_points, mode_matrix, quad_weights

PATH_TEMPLATE = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0],
                          [0.0, 1.0, -1.0]])


class TestSymmetrize:
    def test_identity_scaling(self, basis16):
        cp = symmetrize((1.0, 1.0, 1.0), basis16, 1.0)
        assert np.allclose(cp.h, [1.0, 1.0, 1.0])
        assert np.array_equal(cp.l_matrix, PATH_TEMPLATE)

    def test_unequal_lambdas(self, basis16):
        cp = symmetrize((1.0, 2.0, 4.0), basis16, 1.0)
        assert np.allclose(cp.h, [1.0, 0.5, 0.25])
        assert np.allclose(cp.l_matrix, PATH_TEMPLATE, atol=1e-15)

    def test_l_spectrum(self, basis16):
        # path-graph Laplacian spectrum {0, 1, 3}, negated
        cp = symmetrize((3.0, 0.5, 2.0), basis16, 1.0)
        eigs = np.sort(np.linalg.eigvalsh(cp.l_matrix))
        assert np.allclose(eigs, [-3.0, -1.0, 0.0], atol=1e-13)

    def test_scale_multiplies_l(self, basis16):
        cp = symmetrize((1.0, 1.0, 1.0), basis16, 10.0)
        assert np.allclose(cp.l_matrix, 10.0 * PATH_TEMPLATE)

    def test_nonpositive_lambda_rejected(self, basis16):
        with pytest.raises(ConfigurationError):
            symmetrize((1.0, 0.0, 1.0), basis16, 1.0)

    def test_mode_matrices_negative_definite(self, basis16):
        cp = symmetrize((1.0, 2.0, 4.0), basis16, 1.0)
        lam11 = basis16.eigenvalues[0, 0]
        for (n, m) in [(1, 1), (3, 5), (16, 16)]:
            mode = mode_matrix(cp, n, m)
            assert np.allclose(mode, mode.T)
            eigs = np.linalg.eigvalsh(mode)
            assert np.all(eigs <= -np.min(cp.h) * lam11 + 1e-10)


class TestEllipticSolve:
    def test_zero_maps_to_zero(self, basis16, coupling16):
        psi_hat = solve_elliptic_coeffs(coupling16,
                                        LayerField.zero(basis16).spectral())
        assert np.all(psi_hat == 0.0)

    def test_single_mode_against_direct_solve(self, basis16, coupling16):
        # the square with equal lambda_i has D proportional to I, which hides
        # a misplaced D^{+-1/2}; the rectangle has unequal h_i and a scale
        rectangle = build_basis(1.0, 1.7, 9, 14)
        for basis, cp in [(basis16, coupling16),
                          (rectangle, symmetrize((1.0, 2.0, 4.0), rectangle,
                                                 3.5))]:
            for n, m in [(1, 1), (2, 5), (basis.nx, basis.ny)]:
                q = single_mode_field(basis, n, m, [1.0, 0.0, 0.0])
                psi_hat = solve_elliptic_coeffs(cp, q.spectral())
                mode = mode_matrix(cp, n, m)
                expected = np.linalg.solve(mode, [1.0, 0.0, 0.0])
                got = psi_hat[:, n - 1, m - 1]
                assert (np.max(np.abs(got - expected))
                        <= 1e-12 * np.max(np.abs(expected)))
                back = mode @ got
                assert np.max(np.abs(back - [1.0, 0.0, 0.0])) < 1e-12

    def test_batch_matches_per_mode_solves(self):
        basis = build_basis(1.0, 1.7, 9, 14)
        cp = symmetrize((3.0, 0.5, 2.0), basis, 0.4)
        rng = np.random.default_rng(12)
        q_hat = rng.standard_normal((2, 3) + basis.spectral_shape)
        psi_hat = solve_elliptic_coeffs(cp, q_hat)
        for n in range(1, basis.nx + 1):
            for m in range(1, basis.ny + 1):
                rhs = q_hat[:, :, n - 1, m - 1].T
                expected = np.linalg.solve(mode_matrix(cp, n, m), rhs).T
                got = psi_hat[:, :, n - 1, m - 1]
                assert (np.max(np.abs(got - expected))
                        <= 1e-13 * np.max(np.abs(expected)))
        # each batch row is solved exactly as it would be on its own
        for p in range(2):
            assert np.array_equal(psi_hat[p],
                                  solve_elliptic_coeffs(cp, q_hat[p]))
        # `out` receives the same bits; it must be contiguous and of the
        # input's shape
        out = np.empty((2,) + q_hat.shape)
        got = solve_elliptic_coeffs(cp, q_hat, out=out[1])
        assert np.shares_memory(got, out)
        assert np.array_equal(out[1], psi_hat)
        for bad in (out[:, 0], out[0, :1]):
            with pytest.raises(ShapeError):
                solve_elliptic_coeffs(cp, q_hat, out=bad)

    def test_eigenfunction_input(self, basis16, coupling16, pairs16):
        rho = eigenpair_field(pairs16, 5)
        psi_hat = solve_elliptic_coeffs(coupling16, rho.spectral())
        assert np.allclose(psi_hat, rho.spectral() / pairs16.mu[5],
                           atol=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_random(self, seed):
        basis = build_basis(1.0, 1.0, 12, 12)
        cp = symmetrize((1.0, 2.0, 4.0), basis, 1.0)
        rng = np.random.default_rng(seed)
        q_hat = rng.standard_normal((3,) + basis.spectral_shape)
        back = apply_operator(cp, solve_elliptic_coeffs(cp, q_hat))
        assert np.max(np.abs(back - q_hat)) <= 1e-10 * np.max(np.abs(q_hat))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_ellipticity(self, seed):
        basis = build_basis(1.0, 1.0, 12, 12)
        cp = symmetrize((1.0, 2.0, 4.0), basis, 1.0)
        rng = np.random.default_rng(seed)
        psi_hat = random_band_coeffs(rng, basis)
        quad = np.sum(apply_operator(cp, psi_hat) * psi_hat)
        bound = -np.min(cp.h) * basis.eigenvalues[0, 0] * np.sum(psi_hat**2)
        assert quad <= bound * (1 - 1e-12)


class TestVelocity:
    def test_single_mode_analytic(self, basis16):
        psi = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        u1, u2 = basis16.perp_grad_grids(psi.spectral())
        xs, ys = grid_points(basis16)
        x, y = np.meshgrid(xs, ys, indexing="ij")
        assert np.max(np.abs(u1[0] + 2 * np.pi * np.sin(np.pi * x)
                             * np.cos(np.pi * y))) < 1e-12
        assert np.max(np.abs(u2[0] - 2 * np.pi * np.cos(np.pi * x)
                             * np.sin(np.pi * y))) < 1e-12
        assert np.max(np.abs(u1[1])) == 0.0

    def test_divergence_free_by_finite_differences(self, basis16):
        # independent route: centered differences of the velocity grids;
        # each partial is O((k h)^2) accurate, their sum must cancel
        rng = np.random.default_rng(6)
        psi_hat = np.zeros((3,) + basis16.spectral_shape)
        psi_hat[:, :3, :3] = rng.standard_normal((3, 3, 3))
        u1, u2 = basis16.perp_grad_grids(psi_hat)
        du1_dx = (u1[:, 2:, 1:-1] - u1[:, :-2, 1:-1]) / (2 * basis16.hx)
        du2_dy = (u2[:, 1:-1, 2:] - u2[:, 1:-1, :-2]) / (2 * basis16.hy)
        term_scale = max(np.max(np.abs(du1_dx)), np.max(np.abs(du2_dy)))
        assert np.max(np.abs(du1_dx + du2_dy)) <= 0.05 * term_scale

    def test_no_normal_flux(self, basis16):
        rng = np.random.default_rng(4)
        psi_hat = random_band_coeffs(rng, basis16)
        u1, u2 = basis16.perp_grad_grids(psi_hat)
        # u1 is the normal component on x-edges, u2 on y-edges
        hx, hy = basis16.hx, basis16.hy
        for edge in (u1[:, 0, :], u1[:, -1, :]):
            assert abs(np.sum(edge) * hy) < 1e-13
            assert np.max(np.abs(edge)) < 1e-13
        for edge in (u2[:, :, 0], u2[:, :, -1]):
            assert np.max(np.abs(edge)) < 1e-13


class TestScalingConsistency:
    def test_velocity_independent_of_scale(self, basis16):
        rng = np.random.default_rng(8)
        psi0 = random_band_coeffs(rng, basis16)
        us = []
        for scale in (1.0, 10.0):
            cp = symmetrize((1.0, 2.0, 4.0), basis16, scale)
            q_hat = apply_operator(cp, psi0)
            psi_hat = solve_elliptic_coeffs(cp, q_hat)
            us.append(basis16.perp_grad_grids(psi_hat))
        for a, b in zip(*us):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


class TestHessianGrowth:
    # ratio ||hess psi^i||_p / (p ||q^i||_inf) over even p, per resolution;
    # ceilings recorded from seeded runs (worst observed ~0.21) with headroom
    CEILINGS = {8: 0.35, 16: 0.35}

    @pytest.mark.parametrize("n", [8, 16])
    def test_growth_ratio_bounded(self, n):
        basis = build_basis(1.0, 1.0, n, n)
        cp = symmetrize((1.0, 1.0, 1.0), basis, 1.0)
        rng = np.random.default_rng(77)
        weights, worst = quad_weights(basis), 0.0
        for _ in range(5):
            q_hat = random_band_coeffs(rng, basis)
            psi_hat = solve_elliptic_coeffs(cp, q_hat)
            q_inf = np.max(np.abs(basis.inverse(q_hat)))
            for i in range(3):
                hxx, hxy, hyy = basis.hessian_grids(psi_hat[i])
                mag = np.sqrt(hxx**2 + 2 * hxy**2 + hyy**2)
                for p in (2, 4, 8, 16, 32):
                    lp = np.sum(mag**p * weights) ** (1 / p)
                    worst = max(worst, lp / (p * q_inf))
        assert worst <= self.CEILINGS[n]


class TestEigenpairs:
    def test_ground_pair(self, pairs16, basis16):
        assert pairs16.mu[0] == pytest.approx(-basis16.eigenvalues[0, 0],
                                              rel=1e-13)
        assert np.allclose(np.abs(pairs16.vec[0]), 1 / np.sqrt(3))

    def test_commuting_case_structure(self, basis16):
        # equal lambdas: eigenvectors mode-independent, mu = -lam + {0,-1,-3}
        cp = symmetrize((2.0, 2.0, 2.0), basis16, 1.0)
        pr = eigenpairs(cp, 60)
        offsets = np.sort(np.linalg.eigvalsh(cp.l_matrix))[::-1]  # 0,-1,-3
        for k in range(len(pr)):
            lam = basis16.eigenvalues[pr.mode_n[k] - 1, pr.mode_m[k] - 1]
            expected = -0.5 * lam + offsets[pr.comp_j[k]]
            assert pr.mu[k] == pytest.approx(expected, rel=1e-12)

    def test_sorted_by_abs_mu(self, pairs16):
        assert np.all(np.diff(np.abs(pairs16.mu)) >= -1e-12)

    def test_orthonormal_coefficients(self, pairs16):
        for j, k in [(0, 0), (0, 1), (2, 5), (3, 3)]:
            a = eigenpair_field(pairs16, j).spectral()
            b = eigenpair_field(pairs16, k).spectral()
            assert np.sum(a * b) == pytest.approx(float(j == k), abs=1e-12)

    def test_orthonormal_by_quadrature(self, basis16, pairs16):
        # independent route: integrate the products on the grid
        w = quad_weights(basis16)
        for j, k in [(0, 0), (0, 2), (1, 4)]:
            ga = eigenpair_field(pairs16, j).values()
            gb = eigenpair_field(pairs16, k).values()
            assert np.sum(ga * gb * w) == pytest.approx(float(j == k),
                                                        abs=1e-10)

    def test_all_negative(self, pairs16):
        assert np.all(pairs16.mu < 0)

    def test_k_out_of_range(self, basis16, coupling16):
        with pytest.raises(ConfigurationError):
            eigenpairs(coupling16, 3 * 16 * 16 + 1)
        with pytest.raises(ConfigurationError):
            eigenpairs(coupling16, 0)

    def test_pruned_factoring_matches_full_eigh(self):
        # reference: factor every mode matrix by its own eigh and sort all
        # 3 Nx Ny pairs by |mu|, then (n, m, j)
        def full(cp, basis, k):
            eig = [np.linalg.eigh(-lam * np.diag(cp.h) + cp.l_matrix)
                   for lam in basis.eigenvalues.ravel()]
            eigval = np.array([val for val, _ in eig])[:, ::-1]
            eigvec = np.array([vec for _, vec in eig])[..., ::-1]
            idx = np.argmax(np.abs(eigvec), axis=-2, keepdims=True)
            signs = np.sign(np.take_along_axis(eigvec, idx, axis=-2))
            signs[signs == 0] = 1.0
            eigvec = eigvec * signs
            nn, mm, jj = (v.ravel() for v in np.meshgrid(
                np.arange(1, basis.nx + 1), np.arange(1, basis.ny + 1),
                np.arange(3), indexing="ij"))
            mu = eigval.reshape(-1)
            order = np.lexsort((jj, mm, nn, np.abs(mu)))[:k]
            vecs = eigvec.transpose(0, 2, 1).reshape(-1, 3)
            return nn[order], mm[order], jj[order], mu[order], vecs[order]

        # a square, where (n, m) and (m, n) share a matrix, and a
        # rectangle, each with every pair; then random cases
        cases = [(build_basis(1.0, 1.0, 12, 12), (1.0, 1.0, 1.0), 1.0, 432),
                 (build_basis(1.3, 0.7, 9, 14), (0.5, 2.0, 1.1), 3.0, 378)]
        rng = np.random.default_rng(8)
        for _ in range(40):
            nx, ny = rng.integers(1, 21, size=2)
            basis = build_basis(*rng.uniform(0.3, 3.0, size=2), nx, ny)
            # equal lambdas (h of one size) leave the bound least slack
            lambdas = 10.0 ** rng.uniform(-2, 2, size=3)
            if rng.random() < 0.5:
                lambdas[:] = lambdas[0]
            cases.append((basis, tuple(lambdas), 10.0 ** rng.uniform(-2, 2),
                          int(rng.integers(1, 3 * nx * ny + 1))))
        for basis, lambdas, scale, k in cases:
            cp = symmetrize(lambdas, basis, scale)
            pr = eigenpairs(cp, k)
            for field, want in zip(("mode_n", "mode_m", "comp_j", "mu",
                                    "vec"), full(cp, basis, k)):
                assert np.array_equal(getattr(pr, field), want), field
