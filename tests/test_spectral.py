import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerqg import spectral
from layerqg.errors import (ConfigurationError, ShapeError,
                            UnsupportedExponentError)
from layerqg.spectral import (LayerField, build_basis, lp_norm,
                              single_mode_field)

from conftest import random_band_coeffs
from oracles import grid_points, quad_weights

PI2 = np.pi**2


def coeff_arrays(nx=8, ny=8):
    return st.builds(
        lambda seed: random_band_coeffs(np.random.default_rng(seed),
                                        build_basis(1.0, 1.0, nx, ny)),
        st.integers(0, 10_000))


class TestBasisConstruction:
    def test_unit_square_lowest_eigenvalue(self, basis16):
        assert basis16.eigenvalues[0, 0] == pytest.approx(2 * PI2, rel=1e-14)

    def test_rectangle_eigenvalue(self):
        b = build_basis(1.0, 2.0, 4, 4)
        assert b.eigenvalues[0, 0] == pytest.approx(5 * PI2 / 4, rel=1e-14)

    def test_eigenvalues_increase_along_diagonal(self, basis16):
        diag = np.diag(basis16.eigenvalues)
        assert np.all(np.diff(diag) > 0)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis(-1.0, 1.0, 4, 4)
        with pytest.raises(ConfigurationError):
            build_basis(1.0, 1.0, 0, 4)

    def test_dealiasing_floor_named(self):
        with pytest.raises(ConfigurationError, match="dealiasing"):
            build_basis(1.0, 1.0, 8, 8, gx=15, gy=16)

    def test_basis_function_normalized(self, basis16):
        e11 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        assert lp_norm(e11, 2) == pytest.approx(1.0, abs=1e-12)


class TestTransforms:
    def test_forward_picks_out_sampled_mode(self, basis16):
        xs, ys = grid_points(basis16)
        grid = 2 * np.outer(np.sin(2 * np.pi * xs), np.sin(3 * np.pi * ys))
        coeffs = basis16.forward(grid[None].repeat(3, axis=0))
        assert coeffs[0, 1, 2] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones_like(coeffs, dtype=bool)
        mask[:, 1, 2] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-12

    def test_forward_of_zero(self, basis16):
        zero = np.zeros((3,) + basis16.grid_shape)
        assert np.all(basis16.forward(zero) == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_identity(self, seed):
        # the rectangle has distinct mode cuts, an oversized x grid and a
        # batched (2, 3) leading shape
        rng = np.random.default_rng(seed)
        square = build_basis(1.0, 1.0, 8, 8)
        rect = build_basis(1.3, 0.7, 5, 7, gx=13, gy=14)
        cases = [(square, random_band_coeffs(rng, square)),
                 (rect, np.stack([random_band_coeffs(rng, rect)
                                  for _ in range(2)]))]
        for basis, coeffs in cases:
            grid = basis.inverse(coeffs)
            assert np.all(grid[..., [0, -1], :] == 0.0)
            assert np.all(grid[..., :, [0, -1]] == 0.0)
            back = basis.forward(grid)
            scale = np.max(np.abs(coeffs))
            assert np.max(np.abs(back - coeffs)) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays())
    def test_parseval(self, coeffs):
        basis = build_basis(1.0, 1.0, 8, 8)
        f = LayerField.from_coeffs(basis, coeffs)
        spectral_sq = np.sum(coeffs**2)
        assert abs(lp_norm(f, 2) ** 2 - spectral_sq) <= 1e-10 * spectral_sq

    def test_synth_matches_direct_trig_sums(self):
        # rectangle with distinct mode cuts and an oversized x grid, so a
        # swapped or transposed x/y table cannot pass
        basis = build_basis(1.3, 0.7, 5, 7, gx=13, gy=14)
        c = np.random.default_rng(2).standard_normal((2, 3, 5, 7))
        nf = 2 / np.sqrt(1.3 * 0.7)

        def table(points, length, n_modes, order):
            # d^order/dx^order sin(k x) = k^order (sin, cos, -sin)(k x)
            k = np.arange(1, n_modes + 1) * np.pi / length
            trig = (np.sin, np.cos, lambda a: -np.sin(a))[order]
            return trig(np.outer(points, k)) * k**order

        xs, ys = grid_points(basis)
        for dx in range(3):
            for dy in range(3):
                tx = table(xs, 1.3, 5, dx)
                ty = table(ys, 0.7, 7, dy)
                direct = nf * np.einsum("jn,...nm,km->...jk", tx, c, ty)
                got = basis.synth(c, dx, dy)
                assert got.shape == (2, 3, 15, 16)
                assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(
                    np.abs(direct)), (dx, dy)
        for name, (dx, dy) in {"ss": (0, 0), "cs": (1, 0), "sc": (0, 1),
                               "cc": (1, 1)}.items():
            assert np.array_equal(getattr(basis, f"synth_{name}")(c),
                                  basis.synth(c, dx, dy)), name

    def test_square_grid_builds_its_trig_tables_once(self, monkeypatch):
        built = []
        direct = spectral._trig_tables

        def spy(g, n):
            built.append((g, n))
            return direct(g, n)

        monkeypatch.setattr(spectral, "_trig_tables", spy)
        basis = build_basis(1.2, 0.9, 6, 6)
        c = np.random.default_rng(4).standard_normal((3, 6, 6))
        grids = {(dx, dy): basis.synth(c, dx, dy)
                 for dx in range(3) for dy in range(3)}
        basis.forward(grids[0, 0])
        basis.transport_basis.synth(c, 1, 1)
        assert built == [(12, 6), (9, 6)]      # one per grid, not per axis
        # y tables built from their own sines and cosines, stored as
        # (Ny, Gy+2), give the same bits, so sharing the x pair changes
        # no synthesized value
        own_y = [np.ascontiguousarray(table.T) for table in
                 spectral._derivative_tables(*direct(12, 6), basis.ky[0])]
        for (dx, dy), grid in grids.items():
            assert np.array_equal(grid, basis._synth_x[dx] @ c @ own_y[dy])
        # forward reads the shared (Gy+2, Ny) sines, not a stored copy
        assert basis._trig_y is basis._trig_x
        # synth multiplies both tables as stored: C-contiguous, locked
        assert [t.shape for t in basis._synth_x] == [(14, 6)] * 3
        assert [t.shape for t in basis._synth_y] == [(6, 14)] * 3
        for table in (*basis._synth_x, *basis._synth_y):
            assert table.flags.c_contiguous, table.shape
        for table in (*basis._trig_x, *basis._synth_x, *basis._synth_y,
                      basis._forward_x):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("grid", ["2N", "3N/2"])
    def test_batched_transforms_equal_each_path_alone(self, n, grid):
        # the 2N grid at N=64 puts the second synthesis product above
        # OpenBLAS's small-matrix size (M*N*K of about 1e6), every other
        # case below it; neither kernel may see the batch
        basis = build_basis(1.0, 1.0, n, n)
        if grid == "3N/2":
            basis = basis.transport_basis
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal((16, 3) + basis.spectral_shape)
        values = basis.inverse(coeffs)
        for paths in (1, 2, 16):
            for dx in range(3):
                for dy in range(3):
                    batch = basis.synth(coeffs[:paths], dx, dy)
                    for p in range(paths):
                        assert np.array_equal(
                            batch[p], basis.synth(coeffs[p], dx, dy)), (
                            paths, p, dx, dy)
            batch = basis.forward(values[:paths])
            for p in range(paths):
                assert np.array_equal(batch[p], basis.forward(values[p])), (
                    paths, p)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("grid", ["2N", "3N/2"])
    def test_synth_into_a_strided_workspace_gives_the_same_bits(self, n,
                                                               grid):
        # out = work[0::2] of a (4, P, 3, G+2, G+2) workspace, as the
        # stepper's transport grids: every grid is one gemm either way,
        # and the slots between stay untouched
        basis = build_basis(1.0, 1.0, n, n)
        if grid == "3N/2":
            basis = basis.transport_basis
        rng = np.random.default_rng(n + 1)
        for paths in (1, 2, 16):
            stack = rng.standard_normal((2, paths, 3) + basis.spectral_shape)
            work = np.full((4, paths, 3) + basis.grid_shape, np.nan)
            for dx in range(3):
                for dy in range(3):
                    got = basis.synth(stack, dx, dy, out=work[0::2])
                    assert np.shares_memory(got, work)
                    assert np.array_equal(work[0::2],
                                          basis.synth(stack, dx, dy)), (
                        paths, dx, dy)
                    assert np.isnan(work[1::2]).all()

    def test_shape_mismatch_raises(self, basis16):
        with pytest.raises(ShapeError):
            basis16.forward(np.zeros((3, 5, 5)))
        with pytest.raises(ShapeError):
            basis16.inverse(np.zeros((3, 5, 5)))


QUADRATURE_BASES = [(1.0, 1.3, 16, 16, None, None),      # G+2 = 34
                    (1.0, 1.3, 32, 32, None, None),      # 66
                    (1.0, 1.3, 64, 64, None, None),      # 130
                    (1.3, 0.7, 5, 7, 13, 16)]


class TestQuadrature:
    @pytest.mark.parametrize("dims", QUADRATURE_BASES)
    def test_integrate_is_the_weighted_sum(self, dims):
        # two matrix-vector products against 1-D factors that give back
        # every 2-D trapezoid weight exactly; on positive grids within a
        # relative 1e-15 of the weighted sum
        basis = build_basis(*dims)
        weights = quad_weights(basis)
        wx, wy = basis._quadrature
        assert np.array_equal(np.outer(wx[:basis.gx + 2], wy), weights)
        rng = np.random.default_rng(basis.gx)
        for power in (1, 2, 4, 8):
            values = rng.random((4, 3) + basis.grid_shape) ** power
            want = spectral.field_sum(values * weights)
            got = basis.integrate(values)
            assert np.all(np.abs(got - want) <= 1e-15 * want), power

    @pytest.mark.parametrize("dims", QUADRATURE_BASES)
    def test_integrate_does_not_see_the_batch(self, dims):
        basis = build_basis(*dims)
        rng = np.random.default_rng(basis.gy)
        values = rng.standard_normal((4, 3) + basis.grid_shape)
        batch = basis.integrate(values)
        assert batch.shape == (4,)
        for p in range(4):
            assert np.array_equal(basis.integrate(values[p:p + 1]),
                                  batch[p:p + 1])
            assert basis.integrate(values[p]) == batch[p]


class TestLpNorms:
    def test_constant_one_single_layer(self, basis16):
        grid = np.zeros((3,) + basis16.grid_shape)
        grid[0] = 1.0
        assert lp_norm(LayerField.from_grid(basis16, grid), 2) == \
            pytest.approx(1.0, abs=1e-12)

    def test_e11_l2(self, basis16):
        e11 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        assert lp_norm(e11, 2) == pytest.approx(1.0, abs=1e-12)

    def test_e11_l4(self, basis16):
        # int (2 sin sin)^4 = 16 (3/8)^2 = 9/4 over the unit square
        e11 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        assert lp_norm(e11, 4) == pytest.approx((9 / 4) ** 0.25, rel=1e-12)

    def test_e11_linf(self, basis16):
        e11 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        # peak of 2 sin(pi x) sin(pi y); the grid straddles the center,
        # undershooting the true sup by O(h^2)
        val = lp_norm(e11, np.inf)
        assert val <= 2.0
        h = 1.0 / (basis16.gx + 1)
        assert val >= 2.0 * (1 - (np.pi * h) ** 2 / 2)

    def test_odd_exponent_rejected(self, basis16):
        e11 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        with pytest.raises(UnsupportedExponentError):
            lp_norm(e11, 3)
        with pytest.raises(UnsupportedExponentError):
            lp_norm(e11, 1)

    def test_exponents_share_one_power_chain(self, basis16):
        # ascending exponents continue one product chain: each norm has
        # the bits of its exponent alone; a descending list is refused
        rng = np.random.default_rng(8)
        grid = basis16.inverse(np.stack([random_band_coeffs(rng, basis16)
                                         for _ in range(2)]))
        peak = spectral.grid_peak(grid)
        square = spectral.peak_scaled_square(grid, peak)
        integrate = basis16.integrate
        together = spectral.scaled_lp_norms(peak, square, integrate,
                                            (2, 4, 8))
        for p, norm in zip((2, 4, 8), together):
            alone = spectral.scaled_lp_norms(peak, square, integrate,
                                             (p,))[0]
            assert np.array_equal(norm, alone)
            assert np.array_equal(norm, spectral.grid_lp_norm(
                grid, basis16, p))
        with pytest.raises(UnsupportedExponentError):
            spectral.scaled_lp_norms(peak, square, integrate, (4, 2))

    def test_peak_scaled_square_of_zero_and_subnormal_peaks(self, basis16):
        # a zero field is scaled by 1; a peak whose reciprocal overflows
        # is divided by, so its norms stay finite
        rng = np.random.default_rng(5)
        grid = basis16.inverse(random_band_coeffs(rng, basis16))
        grid /= spectral.grid_peak(grid)
        fields = np.stack([np.zeros_like(grid), grid * 1e-310, grid])
        peak = spectral.grid_peak(fields)
        square = spectral.peak_scaled_square(fields, peak)
        assert not square[0].any()
        assert np.isfinite(square).all() and square.max() <= 1 + 1e-15
        norms = spectral.grid_lp_norm(fields, basis16, 4)
        assert norms[0] == 0 and 0 < norms[1] < 1e-309

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_p_single_layer(self, seed):
        # Jensen on the unit-measure square, one active layer
        basis = build_basis(1.0, 1.0, 8, 8)
        rng = np.random.default_rng(seed)
        coeffs = np.zeros((3,) + basis.spectral_shape)
        coeffs[0] = random_band_coeffs(rng, basis)[0]
        f = LayerField.from_coeffs(basis, coeffs)
        norms = [lp_norm(f, p) for p in (2, 4, 6, 8)] + [lp_norm(f, np.inf)]
        assert np.all(np.diff(norms) >= -1e-10 * max(norms))


class TestLayerField:
    def test_needs_some_representation(self, basis16):
        with pytest.raises(ShapeError):
            LayerField(basis=basis16)

    def test_rejects_nonfinite(self, basis16):
        bad = np.zeros((3,) + basis16.spectral_shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            LayerField.from_coeffs(basis16, bad)

    @pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (17, 1), (1, 17)])
    def test_single_mode_outside_the_band_rejected(self, basis16, n, m):
        with pytest.raises(ConfigurationError, match=rf"mode \({n}, {m}\)"):
            single_mode_field(basis16, n, m, [1.0, 0.0, 0.0])
