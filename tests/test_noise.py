from collections import Counter

import numpy as np
import pytest

from layerqg import rng as rngmod
from layerqg.coupling import pair_coeffs
from layerqg.errors import ConfigurationError
from layerqg.noise import (NoiseMixer, NoiseSpec, make_noise, ou_factors,
                           ou_step, sample_path, sigma_for_stationary_l2)


class TestRegularity:
    def test_coefficients_nonincreasing(self, pairs16):
        spec = make_noise(pairs16, 128, decay=1.5, sigma=2.0)
        assert np.all(np.diff(spec.c) <= 1e-15)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(decay=2.0, sigma=-1.0, c=np.array([1.0, 0.5]))
        with pytest.raises(ConfigurationError):
            NoiseSpec(decay=2.0, sigma=1.0, c=np.array([0.5, 1.0]))


def _projected_increments(spec, pairs, dt, n, seed):
    """<dW_s, rho_k> for k < 8 of n increments of a sampled path, each
    scattered into the basis as the stepping loop does."""
    mixer = NoiseMixer(spec, pairs)
    path = sample_path(spec, n, dt, rngmod.stream(seed, 0))
    return np.array([pair_coeffs(mixer.coefficients(dw), pairs.flat_index,
                                 pairs.vec)[:8]
                     for dw in path.increments])


class TestIncrements:
    def test_silent_increment_is_zero(self, pairs16):
        spec = make_noise(pairs16, 16, decay=2.0, sigma=0.0)
        path = sample_path(spec, 1, 0.1, rngmod.stream(0, 0))
        mixer = NoiseMixer(spec, pairs16)
        assert np.all(mixer.coefficients(path.increments[0]) == 0.0)

    def test_per_mode_variance(self, pairs16):
        # Monte Carlo moment check: var <dW, rho_k> = c_k^2 dt within 3 SE
        spec = make_noise(pairs16, 8, decay=1.0, sigma=1.0)
        dt, n = 0.25, 10_000
        draws = _projected_increments(spec, pairs16, dt, n, seed=123)
        target = spec.c**2 * dt
        emp = np.var(draws, axis=0)
        se = target * np.sqrt(2.0 / n)
        assert np.all(np.abs(emp - target) <= 3 * se)

    def test_cross_moments_vanish(self, pairs16):
        spec = make_noise(pairs16, 8, decay=1.0, sigma=1.0)
        n = 10_000
        draws = _projected_increments(spec, pairs16, 0.25, n, seed=321)
        cov = np.cov(draws.T)
        for j in range(8):
            for k in range(j + 1, 8):
                se = np.sqrt(cov[j, j] * cov[k, k] / n)
                assert abs(cov[j, k]) <= 3 * se

    def test_scatter_columns_are_eigenpair_fields(self, pairs16):
        spec = make_noise(pairs16, 40, decay=1.0, sigma=1.0)
        mixer = NoiseMixer(spec, pairs16)
        fields = mixer.coefficients(np.eye(40))
        for k in range(40):
            assert np.array_equal(fields[k], pairs16.field(k).spectral())
        # a (K, P) batch scatters each column as the (K,) call does
        values = np.random.default_rng(4).standard_normal((40, 5))
        batch = mixer.coefficients(values)
        for p in range(5):
            assert np.array_equal(batch[p], mixer.coefficients(values[:, p]))

    def test_transposed_columns_scatter_as_their_copy(self, pairs16):
        # the stepping loop passes the (K, P) transpose of a path-major
        # (P, K) block row; it scatters to the bytes of its contiguous copy
        k = 40
        mixer = NoiseMixer(make_noise(pairs16, k, decay=1.0, sigma=1.0),
                           pairs16)
        block = np.random.default_rng(8).standard_normal((5, 3, 2, k))
        columns = block[:, 1, 0].T
        assert not columns.flags.c_contiguous
        assert (mixer.coefficients(columns).tobytes()
                == mixer.coefficients(columns.copy()).tobytes())

    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_step_major_chunk_is_its_steps_bitwise(self, pairs16, n_paths):
        # the stepping loop makes the fields of c steps with one call on
        # the (K, c, P) step-major view of a path-major (P, steps, rows,
        # K) block; field [s, p] is the bytes of step s's own (K, P) call
        k, c = 48, 5
        mixer = NoiseMixer(make_noise(pairs16, k, decay=1.0, sigma=1.0),
                           pairs16)
        block = np.random.default_rng(n_paths).standard_normal(
            (n_paths, 7, 2, k))
        fields = mixer.coefficients(block[:, 1:1 + c, 0].transpose(2, 1, 0))
        assert fields.shape == (c, n_paths, 3) + pairs16.basis.spectral_shape
        for s in range(c):
            assert (fields[s].tobytes()
                    == mixer.coefficients(block[:, 1 + s, 0].T).tobytes())

    def test_scatter_rows_are_the_flat_indices(self, pairs16):
        # triplet (row, eigenpair, value) of layer i of pair k is
        # (flat_index[k, i], k, vec[k, i]), sorted by row, then eigenpair
        k = 40
        mixer = NoiseMixer(make_noise(pairs16, k, decay=1.0, sigma=1.0),
                           pairs16)
        expected = sorted(zip(pairs16.flat_index[:k].ravel().tolist(),
                              np.repeat(np.arange(k), 3).tolist(),
                              pairs16.vec[:k].ravel().tolist()))
        assert list(zip(mixer._rows.tolist(), mixer._cols.tolist(),
                        mixer._vals.tolist())) == expected

    def test_scatter_is_the_eigenpair_ordered_sum(self, pairs16):
        # K = 6 retains one, two and three components of different modes,
        # so some coefficients sum three terms, in eigenpair order
        k = 6
        per_mode = Counter(zip(pairs16.mode_n[:k], pairs16.mode_m[:k]))
        assert sorted(set(per_mode.values())) == [1, 2, 3]
        spec = make_noise(pairs16, k, decay=1.0, sigma=1.0)
        mixer = NoiseMixer(spec, pairs16)
        values = np.random.default_rng(6).standard_normal((k, 5))
        batch = mixer.coefficients(values)
        for p in range(5):
            total = np.zeros((3,) + pairs16.basis.spectral_shape)
            for j in range(k):
                total = total + values[j, p] * pairs16.field(j).spectral()
            assert batch[p].tobytes() == total.tobytes()

    def test_path_coarsening_sums_exactly(self, pairs16):
        spec = make_noise(pairs16, 12, decay=2.0, sigma=1.0)
        path = sample_path(spec, 8, 0.01, rngmod.stream(9, 0))
        coarse = path.coarsen(2)
        assert coarse.dt == pytest.approx(0.02)
        assert np.allclose(coarse.increments,
                           path.increments.reshape(4, 2, -1).sum(axis=1))

    def test_bad_coarsening_factor(self, pairs16):
        spec = make_noise(pairs16, 12, decay=2.0, sigma=1.0)
        path = sample_path(spec, 9, 0.01, rngmod.stream(9, 0))
        with pytest.raises(ConfigurationError):
            path.coarsen(2)


class TestStationaryAmplitude:
    def test_unit_energy_calibration(self, pairs16):
        gamma = 0.5
        sigma = sigma_for_stationary_l2(pairs16, 32, 2.0, gamma)
        spec = make_noise(pairs16, 32, 2.0, sigma)
        assert np.sum(spec.c**2) / (2 * gamma) == pytest.approx(1.0,
                                                                rel=1e-12)


class TestOrnsteinUhlenbeck:
    def test_silent_decay(self, pairs16):
        spec = make_noise(pairs16, 8, decay=2.0, sigma=0.0)
        factors = ou_factors(2.0, spec, 0.5, driven=False)
        out = ou_step(np.ones(8), factors,
                      rngmod.stream(0, 0).standard_normal(8))
        assert np.allclose(out, np.exp(-1.0))

    @pytest.mark.parametrize("rate", [0.5, 2.0])
    def test_stationary_variance(self, pairs16, rate):
        spec = make_noise(pairs16, 8, decay=1.0, sigma=1.0)
        gen = rngmod.stream(2_718, 0)
        dt = 3.0 / rate     # near-independent successive samples
        n = 10_000
        factors = ou_factors(rate, spec, dt, driven=False)
        zeta = np.zeros(8)
        samples = np.empty((n, 8))
        for i in range(n):
            zeta = ou_step(zeta, factors, gen.standard_normal(spec.k))
            samples[i] = zeta
        target = spec.c**2 / (2 * rate)
        emp = np.var(samples[10:], axis=0)
        rho2 = np.exp(-2 * rate * dt)
        se = target * np.sqrt(2.0 / n * (1 + rho2) / (1 - rho2))
        assert np.all(np.abs(emp - target) <= 3 * se)

    def test_driven_update_matches_convolution_law(self, pairs16):
        # conditional sampling given the increments keeps the marginal law
        spec = make_noise(pairs16, 6, decay=1.0, sigma=1.0)
        rate, dt, n = 2.0, 0.25, 20_000
        gen = rngmod.stream(99, 0)
        factors = ou_factors(rate, spec, dt, driven=True)
        zeta = np.zeros(6)
        samples = np.empty((n, 6))
        for i in range(n):
            dw = spec.c * np.sqrt(dt) * gen.standard_normal(6)
            zeta = ou_step(zeta, factors, gen.standard_normal(6),
                           driving_increment=dw)
            samples[i] = zeta
        target = spec.c**2 / (2 * rate)
        emp = np.var(samples[n // 10:], axis=0)
        rho2 = np.exp(-2 * rate * dt)
        m = n - n // 10
        se = target * np.sqrt(2.0 / m * (1 + rho2) / (1 - rho2))
        assert np.all(np.abs(emp - target) <= 4 * se)

    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_one_step_moments_exact(self, pairs16, dt):
        # transition from a fixed state: mean decays by e^{-lam dt}, the
        # fresh variance is c^2 (1 - e^{-2 lam dt}) / (2 lam), at any dt
        spec = make_noise(pairs16, 4, decay=1.0, sigma=1.0)
        rate = 2.0
        start = np.array([0.5, -0.2, 0.1, 0.0])
        factors = ou_factors(rate, spec, dt, driven=False)
        gen = rngmod.stream(606, 0)
        n = 40_000
        out = np.empty((n, 4))
        for i in range(n):
            out[i] = ou_step(start, factors, gen.standard_normal(4))
        mean_exact = np.exp(-rate * dt) * start
        var_exact = spec.c**2 * (1 - np.exp(-2 * rate * dt)) / (2 * rate)
        mean_se = np.sqrt(var_exact / n)
        assert np.all(np.abs(out.mean(axis=0) - mean_exact) <= 3 * mean_se)
        var_se = var_exact * np.sqrt(2.0 / n)
        assert np.all(np.abs(out.var(axis=0) - var_exact) <= 3 * var_se)

    def test_ergodic_average_matches_ensemble(self, pairs16):
        # time average of ||zeta||_{H^alpha} along one path vs the mean of
        # the stationary law, sampled directly (zeta_k ~ N(0, c^2/2 lam))
        k, rate, dt, n, alpha = 16, 1.0, 0.5, 40_000, 2.5
        spec = make_noise(pairs16, k, decay=2.0, sigma=1.0)
        lam = pairs16.spatial_eigenvalues[:k]
        gen = rngmod.stream(31_415, 0)
        factors = ou_factors(rate, spec, dt, driven=False)
        zeta = np.zeros(k)
        acc = acc_sq = 0.0
        for i in range(n):
            zeta = ou_step(zeta, factors, gen.standard_normal(spec.k))
            acc += np.sqrt(np.sum(zeta**2 * lam**alpha))
            acc_sq += np.sum(zeta**2 * lam**alpha)
        time_avg_norm = acc / n
        time_avg_sq = acc_sq / n
        draws = rngmod.stream(31_416, 0).standard_normal((20_000, k))
        stationary = draws * (spec.c / np.sqrt(2 * rate))
        ens_norm = np.mean(np.sqrt(np.sum(stationary**2 * lam**alpha,
                                          axis=1)))
        assert time_avg_norm == pytest.approx(ens_norm, rel=0.05)
        ens_sq_exact = np.sum(spec.c**2 * lam**alpha) / (2 * rate)
        assert time_avg_sq == pytest.approx(ens_sq_exact, rel=0.05)

    @pytest.mark.parametrize("driven", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_update_is_bitwise_the_plain_expression(self, pairs16, driven,
                                                    in_place):
        # the products go into the factors' scratch, not into temporaries,
        # and the bytes are those of the plain expression
        spec = make_noise(pairs16, 12, decay=1.0, sigma=1.5)
        factors = ou_factors(2.0, spec, 0.01, driven=driven)
        decay, beta, width, _ = factors
        gen = rngmod.stream(7, 0)
        zeta = gen.standard_normal(12)
        for _ in range(5):
            xi = gen.standard_normal(12)
            dw = spec.c * 0.1 * gen.standard_normal(12) if driven else None
            want = (decay * zeta + beta * dw + width * xi if driven
                    else decay * zeta + width * xi)
            before = zeta.copy()
            got = ou_step(zeta, factors, xi, dw,
                          out=zeta if in_place else None)
            assert np.array_equal(got, want)
            assert (got is zeta) is in_place
            if not in_place:
                assert np.array_equal(zeta, before)
            zeta = got

    def test_bad_rate_rejected(self, pairs16):
        spec = make_noise(pairs16, 3, decay=1.0, sigma=1.0)
        for rate in (0.0, -1.0):
            for driven in (False, True):
                with pytest.raises(ConfigurationError,
                                   match="rate must be positive"):
                    ou_factors(rate, spec, 0.1, driven=driven)
