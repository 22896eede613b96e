from dataclasses import replace
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layerqg import dynamics, rng as rngmod
from layerqg.coupling import (eigenpairs, pair_coeffs, solve_elliptic_coeffs,
                              symmetrize)
from layerqg.dynamics import (ObsContext, Observable, PairingTable,
                              SimConfig, _run_paths, initial_coeffs,
                              nonlinear_term, obs_lp, parse_observables,
                              run_trajectory, step_eta)
from layerqg.errors import (BlowUpError, ConfigurationError, SamplingError,
                            ShapeError, TimeStepError,
                            UnsupportedExponentError)
from layerqg.experiments import _phi_key, monitor_observables
from layerqg.noise import make_noise
from layerqg.runconfig import RunSettings, realize
from layerqg.spectral import (LayerField, SpectralBasis, build_basis,
                              field_sum, grid_lp_norm, single_mode_field)

from conftest import (coarse_normals, on_normals, random_band_coeffs,
                      run_with_snapshots)

PI2 = np.pi**2


def make_config(basis, coupling, pairs, noise, **kw):
    defaults = dict(gamma=0.5, viscosity=0.0, dt=0.01, horizon=0.1,
                    nonlinear=False, init="zero", seed=1)
    defaults.update(kw)
    return SimConfig(pairs=pairs, noise=noise, **defaults)


class TestSingleStep:
    def test_exact_damping(self, basis16, coupling16, pairs16, quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise)
        rng = np.random.default_rng(0)
        eta0 = LayerField.from_coeffs(basis16,
                                      random_band_coeffs(rng, basis16))
        eta1 = step_eta(eta0, LayerField.zero(basis16), cfg)
        expected = np.exp(-0.5 * 0.01) * eta0.spectral()
        assert np.max(np.abs(eta1.spectral() - expected)) <= \
            1e-15 * np.max(np.abs(expected))

    def test_viscous_mode_decay(self, basis16, coupling16, pairs16,
                                quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          viscosity=0.4)
        eta0 = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        eta1 = step_eta(eta0, LayerField.zero(basis16), cfg)
        lam11 = basis16.eigenvalues[0, 0]
        factor = np.exp(-(0.5 + 0.16 * lam11) * 0.01)
        assert eta1.spectral()[0, 0, 0] == pytest.approx(factor, rel=1e-12)
        # Laplacian acts layer-diagonally: other layers stay zero
        assert np.max(np.abs(eta1.spectral()[1:])) == 0.0


def _noisy_config(nonlinear, viscosity=0.0, **kw):
    settings = dict(modes_x=12, modes_y=12, dt=1e-3, horizon=0.02,
                    sigma=2.0, noise_modes=32, viscosity=viscosity,
                    nonlinearity="on" if nonlinear else "off",
                    init="lowband:4:3.0:5")
    settings.update(kw)
    return realize(RunSettings(**settings), seed=4, snap_every=1)


def _increments(cfg):
    """The (n_steps, K) increments c_k sqrt(dt) xi of stream 0, as the
    loop draws and weights them when it draws nothing else."""
    normals = rngmod.stream(cfg.seed, 0).standard_normal(
        (cfg.n_steps, cfg.noise.k))
    return normals * (cfg.noise.c * np.sqrt(cfg.dt))


class TestQForm:
    """The loop steps q = eta + W; W is kept only where it is read."""

    def test_linear_inviscid_step_is_the_exact_ar1_map(self):
        # at eps = 0 a linear step is decay * q + the increment's field,
        # bitwise: the AR(1) map of criterion 6 and the pairsq gate
        cfg = _noisy_config(nonlinear=False)
        rng = np.random.default_rng(8)
        init = np.stack([random_band_coeffs(rng, cfg.basis)
                         for _ in range(2)])
        snaps = run_with_snapshots(cfg, [0, 0], init)[2]
        stepper = dynamics.Stepper(cfg)
        q = init
        for j, increment in enumerate(_increments(cfg), start=1):
            q = stepper.decay * q + stepper.mixer.coefficients(
                increment[:, None])
            for p in range(2):
                assert np.array_equal(snaps[j, p], q[p]), (j, p)

    @pytest.mark.parametrize("viscosity, tokens, kept", [
        (0.0, "l2,linf,h1,pair:1.1.0", False),
        (0.0, "l2,wh1", True), (0.05, "l2,h1", True)])
    def test_w_is_kept_only_where_read(self, monkeypatch, viscosity, tokens,
                                       kept):
        cfg = _noisy_config(nonlinear=True, viscosity=viscosity)
        seen = []
        advance = dynamics.Stepper.advance

        def spy(self, q, w, t):
            seen.append(w is not None)
            return advance(self, q, w, t)

        monkeypatch.setattr(dynamics.Stepper, "advance", spy)
        run_trajectory(cfg, parse_observables(tokens, cfg.pairs))
        assert seen == [kept] * cfg.n_steps

    def test_w_read_in_a_run_that_keeps_none_raises(self):
        # an observable that first reads W after sample 0 finds no W: it
        # raises rather than read zeros
        cfg = _noisy_config(nonlinear=True)
        samples = []

        def late(ctx):
            samples.append(len(samples))
            field = ctx.w_hat if len(samples) > 2 else ctx.q_hat
            return field[:, 0, 0, 0]

        with pytest.raises(SamplingError, match="keeps no W"):
            run_trajectory(cfg, [Observable("late", late)])
        assert len(samples) == 3
        ctx = ObsContext(cfg.coupling, np.zeros((1, 3, 12, 12)), None)
        with pytest.raises(SamplingError, match="keeps no W"):
            ctx.grid("eta")

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_w_series_equal_w_accumulated_outside_the_loop(self, nonlinear):
        # wh2, <W, phi> and the eta and W Lp series of one seed, from the
        # W the loop keeps, equal those of W summed here from the same
        # increments and q from the run's snapshots, on the loop's band
        cfg = _noisy_config(nonlinear=nonlinear)
        phi = single_mode_field(cfg.basis, 1, 2, [1.0, -0.5, 0.25])
        increments = _increments(cfg)
        obs = parse_observables("wh2", cfg.pairs) + monitor_observables(
            cfg.basis, exponents=(2, 4), test_functions=[phi])
        (rec,), _, snaps = run_with_snapshots(cfg, observables=obs)
        mixer = dynamics.Stepper(cfg).mixer
        w = np.zeros((1, 3) + cfg.basis.spectral_shape)
        lam = cfg.basis.eigenvalues
        for j, q in enumerate(snaps):
            if j:
                w += mixer.coefficients(increments[j - 1][:, None])
            ctx = ObsContext(cfg.coupling, q, w, w_band=mixer.band)
            want = {"wh2": np.sqrt(field_sum(lam**2 * w**2)),
                    _phi_key("noise_pairing", phi.spectral()):
                        field_sum(w * phi.spectral()),
                    ("eta", 4): ctx.lp_norms("eta", (2, 4))[1],
                    ("w", 2): ctx.lp_norms("w", (2, 4))[0]}
            for key, value in want.items():
                assert rec.observables[key][j] == value[0], (j, key)

    @pytest.mark.parametrize("modes, noise_modes", [(12, 32), (32, 48)])
    def test_w_grids_from_its_noise_band(self, modes, noise_modes):
        # the loop hands each ObsContext W's noise band, the leading block
        # outside which w_hat is zero: W's x-stage products are the full
        # products' first columns bitwise, its grids are within 1e-14 of
        # the full synthesis and exactly zero at t = 0, and a context
        # built without a band synthesizes in full, with synth's bytes
        cfg = _noisy_config(nonlinear=True, modes_x=modes, modes_y=modes,
                            noise_modes=noise_modes, horizon=0.005)
        basis, band = cfg.basis, dynamics.Stepper(cfg).mixer.band
        assert max(band) < modes
        orders = [(0, 0), *dynamics.GRADIENT, *dynamics.HESSIAN]
        initial = initial_coeffs(cfg.init, basis)
        for j, ctx in dynamics._samples(cfg, [0, 1], initial, None, (1,)):
            w_hat = ctx.w_hat
            assert ctx._w_band == band
            assert not w_hat[..., band[0]:, :].any()
            assert not w_hat[..., band[1]:].any()
            full = ObsContext(cfg.coupling, ctx.q_hat, w_hat)
            for dx, dy in orders:
                got, want = ctx.grid("w", dx, dy), full.grid("w", dx, dy)
                assert np.array_equal(want, basis.synth(w_hat, dx, dy))
                assert np.array_equal(ctx._memo["w", dx],
                                      full._memo["w", dx][..., :band[1]])
                if j == 0:
                    assert not got.any(), (dx, dy)
                else:
                    assert np.abs(got - want).max() <= \
                        1e-14 * np.abs(want).max(), (j, dx, dy)

    @pytest.mark.parametrize("viscosity", [0.0, 0.05])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_step_eta_is_the_eta_update_given_w(self, nonlinear, viscosity):
        cfg = _noisy_config(nonlinear, viscosity, cfl_safety=0.0)
        rng = np.random.default_rng(11)
        eta, w = (50 * random_band_coeffs(rng, cfg.basis) for _ in range(2))
        stepper = dynamics.Stepper(cfg)
        q = LayerField.from_coeffs(cfg.basis, eta + w)
        psi = LayerField.from_coeffs(
            cfg.basis, solve_elliptic_coeffs(cfg.coupling, eta + w))
        transport = (nonlinear_term(q, psi).spectral() if nonlinear
                     else np.zeros_like(eta))
        want = stepper.decay * eta + stepper.phi * (-cfg.gamma * w
                                                    - transport)
        got = step_eta(LayerField.from_coeffs(cfg.basis, eta),
                       LayerField.from_coeffs(cfg.basis, w), cfg).spectral()
        assert np.linalg.norm(transport) > 0.1 * np.linalg.norm(eta) \
            or not nonlinear
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestNonlinearTerm:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_single_mode_annihilation(self, seed):
        basis = build_basis(1.0, 1.0, 12, 12)
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        q = single_mode_field(basis, n, m, rng.standard_normal(3))
        psi = single_mode_field(basis, n, m, rng.standard_normal(3))
        out = nonlinear_term(q, psi).spectral()
        scale = max(np.max(np.abs(q.spectral())), 1.0) * \
            max(np.max(np.abs(psi.spectral())), 1.0)
        assert np.max(np.abs(out)) <= 1e-12 * scale

    def test_zero_stream_function(self, basis16):
        rng = np.random.default_rng(1)
        q = LayerField.from_coeffs(basis16, random_band_coeffs(rng, basis16))
        out = nonlinear_term(q, LayerField.zero(basis16))
        assert np.all(out.spectral() == 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_transport_skew_symmetry(self, seed):
        basis = build_basis(1.0, 1.0, 12, 12)
        rng = np.random.default_rng(seed)
        q_hat = random_band_coeffs(rng, basis)
        psi_hat = random_band_coeffs(rng, basis)
        term = nonlinear_term(LayerField.from_coeffs(basis, q_hat),
                              LayerField.from_coeffs(basis, psi_hat))
        pairing = np.sum(term.spectral() * q_hat)
        u1, u2 = basis.perp_grad_grids(psi_hat)
        grad_psi_inf = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        assert abs(pairing) <= 1e-8 * grad_psi_inf * np.sum(q_hat**2)

    def test_basis_mismatch(self, basis16):
        other = build_basis(1.0, 1.0, 8, 8)
        with pytest.raises(ShapeError):
            nonlinear_term(LayerField.zero(basis16), LayerField.zero(other))

    @pytest.mark.parametrize("shape", [(1.3, 0.7, 7, 10), (1.0, 1.0, 9, 9)])
    def test_transport_grid_projects_exactly(self, shape):
        # the transport grid floor(3N/2) and the basis's own 2N grid both
        # project u . grad q exactly, so they agree to roundoff
        lx, ly, nx, ny = shape
        config = realize(RunSettings(domain_lx=lx, domain_ly=ly, modes_x=nx,
                                     modes_y=ny, noise_modes=4,
                                     cfl_safety=0.0), seed=1)
        basis = config.basis
        assert basis.transport_basis.gx == 3 * nx // 2
        rng = np.random.default_rng(5)
        # scaled so that phi B is 30-40 times decay q: B then dominates
        # the step it is checked in
        q_hat = 1e6 * np.stack([random_band_coeffs(rng, basis)
                                for _ in range(2)])
        psi_hat = solve_elliptic_coeffs(config.coupling, q_hat)

        def exact(psi, q):
            u1, u2 = basis.perp_grad_grids(psi)
            qx, qy = basis.grad_grids(q)
            return basis.forward(u1 * qx + u2 * qy)

        def rel(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        # one step from W = 0 is decay q - phi B
        stepper = dynamics.Stepper(config)
        stepped = stepper.advance(q_hat, np.zeros_like(q_hat), 0.0)
        want = stepper.decay * q_hat - stepper.phi * exact(psi_hat, q_hat)
        assert rel(stepped, want) <= 1e-13
        for p in range(2):
            other = random_band_coeffs(rng, basis)
            term = nonlinear_term(LayerField.from_coeffs(basis, q_hat[p]),
                                  LayerField.from_coeffs(basis, other))
            assert rel(term.spectral(), exact(other, q_hat[p])) <= 1e-13


    def test_guard_peak_is_the_abs_max(self):
        # the CFL guard reads max |g| without the |g| temporary: bitwise
        # the same number, and NaN still reaches the overflow check
        rng = np.random.default_rng(3)
        for grid in (rng.standard_normal((2, 3, 7, 7)),
                     -np.abs(rng.standard_normal(50)), np.zeros(4)):
            assert dynamics._abs_peak(grid) == np.max(np.abs(grid))
        grid = rng.standard_normal(20)
        grid[7] = np.nan
        assert np.isnan(dynamics._abs_peak(grid))

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("mode", [(3, 1), (1, 3)])
    def test_transport_workspace_gives_the_allocating_bits(self, lead, mode):
        # psi on mode (3, 1) puts the velocity peak in psi_x, on (1, 3) in
        # psi_y; a fresh workspace and a reused one holding NaN give the
        # same bits of the term and |u|max, and |u|max is max(|psi_x|,
        # |psi_y|)
        basis = build_basis(1.0, 1.0, 12, 12)
        grid = basis.transport_basis
        rng = np.random.default_rng(sum(lead) + mode[0])
        q_hat = rng.standard_normal(lead + (3, 12, 12))
        psi_hat = 1e-3 * rng.standard_normal(lead + (3, 12, 12))
        psi_hat[..., 0, mode[0] - 1, mode[1] - 1] += 1.0
        fresh, work = (dynamics._TransportWork.new(grid, lead + (3, 12, 12))
                       for _ in range(2))
        work.space.fill(np.nan)
        for buffers in (fresh, work):
            np.copyto(buffers.stack, np.stack((psi_hat, q_hat)))
        term, umax = dynamics._transport(fresh)
        term_ws, umax_ws = dynamics._transport(work)
        assert np.array_equal(term_ws, term)
        assert umax_ws == umax
        peaks = [np.max(np.abs(grid.synth(psi_hat, *order)))
                 for order in ((1, 0), (0, 1))]
        assert umax == max(peaks)
        assert np.argmax(peaks) == (mode == (1, 3))
        # the workspace ends with the product in slot 0 and (q_y, q_x) in
        # slots 2 and 3
        assert np.array_equal(work.grids[2], grid.synth(q_hat, 0, 1))
        assert np.array_equal(work.grids[3], grid.synth(q_hat, 1, 0))

    def test_workspace_transport_is_the_unbuffered_transforms(self):
        # on a non-square basis, a batch through one reused workspace,
        # its stack in a grid slot as `advance` has it, gives the bits of
        # synth and forward called without buffers
        basis = build_basis(1.0, 1.5, 12, 8)
        grid = basis.transport_basis
        rng = np.random.default_rng(11)
        work = dynamics._TransportWork.new(grid, (2, 3, 12, 8))
        for fill in (np.nan, 0.0):
            work.space.fill(fill)
            stack = rng.standard_normal((2, 2, 3, 12, 8))
            psi_x, q_x = grid.synth(stack, 1, 0)
            psi_y, q_y = grid.synth(stack, 0, 1)
            np.copyto(work.stack, stack)
            term, umax = dynamics._transport(work)
            assert np.array_equal(term,
                                  grid.forward(psi_x * q_y - psi_y * q_x))
            assert umax == max(np.max(np.abs(psi_x)), np.max(np.abs(psi_y)))

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("modes", [(12, 12), (12, 8)])
    def test_repeat_step_allocates_only_its_results(self, modes, n_paths):
        # at an unchanged batch shape every intermediate of a nonlinear
        # step lives in the Stepper's workspace: a repeat step allocates
        # its new state and the projected term, and little else
        config = realize(RunSettings(modes_x=modes[0], modes_y=modes[1],
                                     dt=1e-3, noise_modes=16), seed=3)
        assert config.nonlinear
        stepper = dynamics.Stepper(config)
        rng = np.random.default_rng(9)
        q_hat = np.stack([random_band_coeffs(rng, config.basis)
                          for _ in range(n_paths)])
        stepper.advance(q_hat, None, 0.0)
        tracemalloc.start()
        try:
            new = stepper.advance(q_hat, None, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * new.nbytes + 4096

    @pytest.mark.parametrize("order", [(1, 0), (0, 1)])
    def test_nan_in_either_velocity_component_reaches_the_guard(
            self, monkeypatch, order):
        basis = build_basis(1.0, 1.0, 8, 8)
        rng = np.random.default_rng(4)
        gradient_plan = SpectralBasis.gradient_plan

        def spy(self, c, xs, out_x, out_y):
            synth = gradient_plan(self, c, xs, out_x, out_y)

            def spoiled():
                synth()
                # psi_x or psi_y only
                (out_x if order == (1, 0) else out_y)[0, 1, 4, 4] = np.nan
            return spoiled

        monkeypatch.setattr(SpectralBasis, "gradient_plan", spy)
        work = dynamics._TransportWork.new(basis.transport_basis, (3, 8, 8))
        np.copyto(work.stack, rng.standard_normal((2, 3, 8, 8)))
        with np.errstate(invalid="ignore"):
            assert np.isnan(dynamics._transport(work)[1])

    def test_advanced_state_owns_its_memory(self):
        # the new state shares no memory with any buffer the bound step
        # keeps, so the next step cannot overwrite a state the loop keeps
        base = realize(RunSettings(modes_x=8, modes_y=8, dt=1e-3,
                                   noise_modes=16), seed=2)
        rng = np.random.default_rng(6)
        for nonlinear, viscosity in itertools.product((True, False),
                                                      (0.0, 0.1)):
            stepper = dynamics.Stepper(replace(base, nonlinear=nonlinear,
                                               viscosity=viscosity))
            for n_paths in (1, 3):
                q_hat, w = (np.stack([random_band_coeffs(rng, base.basis)
                                      for _ in range(n_paths)])
                            for _ in range(2))
                new = stepper.advance(q_hat, w, 0.0)
                # decay, phi and the finiteness mask; with eps > 0 w_gain
                # and the W term; nonlinear, the transport workspace
                buffers = stepper._batch(q_hat.shape).buffers
                assert len(buffers) == 3 + 2 * (viscosity > 0) + nonlinear
                for buffer in buffers:
                    assert not np.shares_memory(new, buffer)


class TestTrajectory:
    def test_lp_decay_under_transport(self, basis16, coupling16, pairs16,
                                      quiet_noise):
        # transport preserves every Lp norm; damping is exact
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          nonlinear=True, dt=1e-3, horizon=0.2,
                          init="lowband:3:0.2:7")
        rec = run_trajectory(cfg, parse_observables("l2,l4,l8"))
        for name in ("l2", "l4", "l8"):
            series = rec.observables[name]
            expected = series[0] * np.exp(-0.5 * rec.times)
            assert np.max(np.abs(series / expected - 1)) < 1e-5

    def test_bit_identical_reruns(self, basis16, coupling16, pairs16):
        noise = make_noise(pairs16, 24, 2.0, 1.0)
        cfg = make_config(basis16, coupling16, pairs16, noise,
                          nonlinear=True, dt=5e-3, horizon=0.1,
                          init="lowband:3:0.5:3", seed=42, snap_every=5)
        obs = parse_observables(dynamics.DEFAULT_OBSERVABLES)
        (rec_a,), _, q_a = run_with_snapshots(cfg, observables=obs)
        (rec_b,), _, q_b = run_with_snapshots(cfg, observables=obs)
        assert np.array_equal(q_a, q_b)
        for name in rec_a.observables:
            assert np.array_equal(rec_a.observables[name],
                                  rec_b.observables[name])

    def test_different_streams_differ(self, basis16, coupling16, pairs16):
        noise = make_noise(pairs16, 24, 2.0, 1.0)
        cfg = make_config(basis16, coupling16, pairs16, noise,
                          dt=5e-3, horizon=0.1, seed=42)
        rec_a = run_trajectory(cfg, stream=0)
        rec_b = run_trajectory(cfg, stream=1)
        assert not np.allclose(rec_a.observables["l2"],
                               rec_b.observables["l2"])

    def test_pairing_is_scalar_ou(self, basis16, coupling16, pairs16):
        # nonlinearity off: each <q, rho_k> is a damped OU coordinate
        noise = make_noise(pairs16, 16, 2.0, 1.0)
        gamma = 0.5
        cfg = make_config(basis16, coupling16, pairs16, noise, gamma=gamma,
                          dt=0.02, horizon=600.0, seed=7, obs_every=5)
        table = PairingTable(pairs16)
        obs = [table.observable(k) for k in range(3)]
        rec = run_trajectory(cfg, obs)
        for k in range(3):
            v = rec.observables[obs[k].name]
            v = v[len(v) // 6:]
            target = noise.c[k] ** 2 / (2 * gamma)
            # effective sample count from the OU correlation time
            n_eff = len(v) * 0.02 * 5 * gamma / 2
            se = target * np.sqrt(2 / n_eff)
            assert abs(np.var(v) - target) <= 3 * se + 1e-3 * target

    def test_richardson_self_convergence(self, pairs16, monkeypatch):
        # runs at dt = 2e-3, 1e-3 and 5e-4 on one Brownian path: the
        # coarse runs step on sums of the fine run's normals
        noise = make_noise(pairs16, 24, 2.0, 2.0)
        fine = rngmod.stream(13, 0).standard_normal((200, noise.k))
        a, b, c = (_final_state(pairs16, noise, dt, monkeypatch,
                                coarse_normals(fine, factor))
                   for dt, factor in ((2e-3, 4), (1e-3, 2), (5e-4, 1)))
        # the fine run steps on its own stream's normals
        real = _final_state(pairs16, noise, 5e-4)
        assert np.array_equal(c, real)
        e1 = np.sqrt(np.sum((a - b) ** 2))
        e2 = np.sqrt(np.sum((b - c) ** 2))
        assert 1.6 <= e1 / e2 <= 2.4    # first-order scheme

    def test_record_invariants(self, basis16, coupling16, pairs16,
                               quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          horizon=0.05, snap_every=2)
        taken = []
        rec = run_trajectory(cfg, sink=lambda t, q: taken.append((t, q)))
        assert np.all(np.diff(rec.times) > 0)
        assert rec.config is cfg
        # the sink takes the path's (1, 3, Nx, Ny) q at every snapshot time
        _, times, snaps = run_with_snapshots(cfg)
        assert [t for t, _ in taken] == list(times)
        assert len(times) == cfg.n_samples(cfg.snap_every)
        for (_, q), want in zip(taken, snaps, strict=True):
            assert q.shape == (1, 3, 16, 16) and np.array_equal(q, want)

    def test_config_hash_covers_cadences(self, basis16, coupling16, pairs16,
                                         quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise)
        hashes = {cfg.config_hash(),
                  replace(cfg, obs_every=2).config_hash(),
                  replace(cfg, snap_every=3).config_hash()}
        assert len(hashes) == 3

    def test_config_hash_is_pinned(self):
        config = realize(RunSettings(modes_x=8, modes_y=8, noise_modes=16,
                                     dt=0.01, horizon=0.2,
                                     init="lowband:3:1.0:2"), seed=3)
        assert config.config_hash() == "488f5d69fe4db1de"

    def test_discretization_is_stated_once(self, basis16, coupling16,
                                           pairs16, quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise)
        assert cfg.basis is cfg.coupling.basis is cfg.pairs.basis
        wide = build_basis(2.0, 1.0, 16, 16)
        for name, value in (("basis", wide),
                            ("coupling", symmetrize((1.0, 1.0, 1.0), wide))):
            with pytest.raises(TypeError):
                replace(cfg, **{name: value})
            with pytest.raises(TypeError):
                SimConfig(pairs=pairs16, noise=quiet_noise, gamma=0.5,
                          viscosity=0.0, dt=0.01, horizon=0.1,
                          **{name: value})

    @pytest.mark.parametrize("run_settings", [
        dict(modes_x=12, modes_y=12, nonlinearity="off", dt=0.01,
             horizon=0.5, noise_modes=32, obs_every=2),
        dict(modes_x=16, modes_y=16, dt=1e-3, horizon=0.03, viscosity=0.05,
             init="lowband:4:3.0:5", noise_modes=48)],
        ids=["linear_n12", "nonlinear_n16"])
    def test_batch_matches_single_paths(self, run_settings):
        # seed -> bytes must not depend on the batch size; W is compared
        # through wh2.5
        cfg = realize(RunSettings(**run_settings), seed=5, snap_every=5)
        obs = parse_observables("l2,l4,linf,h1,gradl4,wh2.5,pair:1.1.0,"
                                "pairsq:1.2.1", cfg.pairs)
        batch, _, batch_q = run_with_snapshots(cfg, range(4),
                                               observables=obs)
        for stream, rec in enumerate(batch):
            (single,), _, single_q = run_with_snapshots(cfg, [stream],
                                                        observables=obs)
            assert rec.stream == stream
            assert np.array_equal(rec.times, single.times)
            assert np.array_equal(batch_q[:, stream], single_q[:, 0])
            for ob in obs:
                assert np.array_equal(rec.observables[ob.name],
                                      single.observables[ob.name]), ob.name

    @pytest.mark.parametrize("streams, generators", [
        ([0, 0, 0], 1), ([0, 1, 2], 3), ([0, 0, 1], 3)])
    def test_one_draw_per_shared_stream(self, monkeypatch, streams,
                                        generators):
        # paths that share one stream draw it once and add its increment
        # to each; path p's q at every sample is still bitwise the
        # one-path run's from row p on streams[p]
        cfg = realize(RunSettings(modes_x=12, modes_y=12, dt=1e-3,
                                  horizon=0.02, noise_modes=32,
                                  init="zero"), seed=5, snap_every=4)
        rng = np.random.default_rng(3)
        init = np.stack([3 * random_band_coeffs(rng, cfg.basis)
                         for _ in streams])
        singles = [run_with_snapshots(cfg, [stream], q0)[2][:, 0]
                   for stream, q0 in zip(streams, init)]
        made, stream = [], rngmod.stream

        def counted(seed, stream_id=0):
            made.append(stream_id)
            return stream(seed, stream_id)

        monkeypatch.setattr(rngmod, "stream", counted)
        batch_q = run_with_snapshots(cfg, streams, init)[2]
        assert made == (streams[:1] if generators == 1 else streams)
        for p, single_q in enumerate(singles):
            assert np.array_equal(batch_q[:, p], single_q)

    def test_per_path_initial_data(self, monkeypatch):
        # path p of a (P, 3, Nx, Ny) datum on one shared stream is the
        # one-path run from row p, also when the rows split into batches;
        # W is compared through wh1
        cfg = realize(RunSettings(modes_x=16, modes_y=16, dt=1e-3,
                                  horizon=0.03, noise_modes=48),
                      seed=5, snap_every=5)
        obs = parse_observables("l2,linf,h1,wh1", cfg.pairs)
        rng = np.random.default_rng(2)
        init = np.stack([3 * random_band_coeffs(rng, cfg.basis)
                         for _ in range(3)])
        singles = [run_with_snapshots(cfg, [0], q0, obs) for q0 in init]
        whole = run_with_snapshots(cfg, [0] * 3, init, obs)
        monkeypatch.setattr(dynamics, "_BATCH_POINTS",
                            2 * 3 * math.prod(cfg.basis.grid_shape))
        monkeypatch.setattr(dynamics, "_blas_pinned", lambda: True)  # pooled
        split = run_with_snapshots(cfg, [0] * 3, init, obs,
                                   threads=2)                # batches of 2, 1
        for batch, _, batch_q in (whole, split):
            for p, (rec, ((single,), _, single_q)) in enumerate(
                    zip(batch, singles, strict=True)):
                assert np.array_equal(batch_q[:, p], single_q[:, 0])
                for ob in obs:
                    assert np.array_equal(rec.observables[ob.name],
                                          single.observables[ob.name])
        for bad in (init[:2], init[0, :2], init[..., :-1]):
            with pytest.raises(ShapeError, match="initial shape"):
                _run_paths(cfg, obs, [0] * 3, bad)

    @pytest.mark.parametrize("env, pinned", [
        ({}, False), ({"OMP_NUM_THREADS": "1"}, True),
        ({"MKL_NUM_THREADS": " 1 "}, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False)])
    def test_blas_pinned_reads_the_first_set_variable(self, monkeypatch,
                                                      env, pinned):
        # the fallback when NumPy loaded no OpenBLAS to ask
        monkeypatch.setattr(dynamics, "_openblas_thread_query", lambda: None)
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert dynamics._blas_pinned() is pinned

    def test_blas_threads_asks_the_loaded_library(self, monkeypatch):
        # OpenBLAS fixed its count at load; a variable set now changes
        # neither the count nor the answer
        query = dynamics._openblas_thread_query()
        if query is None:
            pytest.skip("NumPy loaded no bundled OpenBLAS")
        live = query()
        assert live >= 1
        for value in ("1", str(live + 1)):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
            assert dynamics._blas_threads() == live
            assert dynamics._blas_pinned() is (live == 1)

    def test_stepper_workspace_follows_the_batch(self):
        # one Stepper stepping P = 1, 4, 1 in turn gives the bits of fresh
        # Steppers, linear or not, writes into neither input, and later
        # steps leave its earlier results alone
        base = realize(RunSettings(modes_x=16, modes_y=16, dt=1e-3,
                                   viscosity=0.05, noise_modes=48), seed=5)
        rng = np.random.default_rng(9)
        for nonlinear in (True, False):
            cfg = replace(base, nonlinear=nonlinear)
            stepper = dynamics.Stepper(cfg)
            results = []
            for n_paths in (1, 4, 1):
                eta, w = (np.stack([scale * random_band_coeffs(rng, cfg.basis)
                                    for _ in range(n_paths)])
                          for scale in (1.0, 0.1))
                eta_before, w_before = eta.copy(), w.copy()
                got = stepper.advance(eta, w, 0.0)
                assert np.array_equal(eta, eta_before)
                assert np.array_equal(w, w_before)
                assert np.array_equal(got, dynamics.Stepper(cfg).advance(
                    eta, w, 0.0))
                for p in range(n_paths):
                    alone = dynamics.Stepper(cfg).advance(eta[p:p + 1],
                                                          w[p:p + 1], 0.0)
                    assert np.array_equal(got[p:p + 1], alone)
                results.append((got, got.copy()))
            for got, copy in results:
                assert np.array_equal(got, copy)

    def test_large_grids_step_in_smaller_batches(self, monkeypatch):
        cfg = realize(RunSettings(modes_x=16, modes_y=16, dt=1e-3,
                                  horizon=0.02, init="lowband:4:3.0:5",
                                  noise_modes=48), seed=5, snap_every=5)
        obs = parse_observables("l2,linf,h1", cfg.pairs)
        whole, _, whole_q = run_with_snapshots(cfg, range(4), observables=obs)
        sizes = []
        advance = dynamics.Stepper.advance

        def spy(self, eta, w, t):
            sizes.append(len(eta))
            return advance(self, eta, w, t)

        monkeypatch.setattr(dynamics.Stepper, "advance", spy)
        monkeypatch.setattr(dynamics, "_BATCH_POINTS",
                            3 * 3 * math.prod(cfg.basis.grid_shape))
        split, _, split_q = run_with_snapshots(cfg, range(4), observables=obs)
        assert set(sizes) == {3, 1}
        assert [rec.stream for rec in split] == [0, 1, 2, 3]
        assert np.array_equal(whole_q, split_q)
        for a, b in zip(whole, split):
            for ob in obs:
                assert np.array_equal(a.observables[ob.name],
                                      b.observables[ob.name])


def _final_state(pairs, noise, dt, monkeypatch=None, normals=None):
    """The q at t = 0.1 of a nonlinear run at step dt from a lowband datum,
    on seed 13's stream 0 or, given, on the preset `normals`."""
    cfg = SimConfig(pairs=pairs, noise=noise, gamma=0.5, viscosity=0.0,
                    dt=dt, horizon=0.1, snap_every=int(round(0.1 / dt)),
                    nonlinear=True, init="lowband:3:1.0:5", seed=13)
    initial = initial_coeffs(cfg.init, cfg.basis)

    def run():
        return run_with_snapshots(cfg, initial=initial)[2][-1, 0]
    return run() if normals is None else on_normals(monkeypatch, normals,
                                                    run)


class TestGuards:
    def test_config_time_ceiling(self, basis16, coupling16, pairs16,
                                 quiet_noise):
        with pytest.raises(TimeStepError, match="stability ceiling"):
            make_config(basis16, coupling16, pairs16, quiet_noise,
                        gamma=0.5, dt=1.5)

    def test_damping_ceiling_is_the_config_ceiling(self, basis16, coupling16,
                                                   pairs16, quiet_noise):
        # dt = cfl_safety / gamma passes SimConfig; cfl_safety * (1 / gamma)
        # lies one ulp below it, and a flow at rest has no advective ceiling
        gamma, safety = 1.618, 0.3
        dt = safety / gamma
        assert safety * (1.0 / gamma) < dt
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          nonlinear=True, gamma=gamma, cfl_safety=safety,
                          dt=dt, horizon=2 * dt)
        rec = run_trajectory(cfg, observables=parse_observables("linf"))
        assert np.array_equal(rec.observables["linf"], [0.0, 0.0, 0.0])

    def test_adaptive_cfl_trips(self, basis16, coupling16, pairs16,
                                quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          nonlinear=True, dt=0.01, horizon=0.05,
                          init="mode:1,1:2000,0,0", snap_every=1)
        taken = []
        with pytest.raises(TimeStepError, match="CFL") as err:
            run_trajectory(cfg, observables=parse_observables("wh0"),
                           sink=lambda t, q: taken.append((t, q)))
        # the sink took every snapshot before the abort, as the partial
        # record its samples; the quiet noise leaves W at zero
        rec = err.value.record
        assert [t for t, _ in taken] == list(rec.times)
        assert np.array_equal(taken[0][1][0],
                              initial_coeffs(cfg.init, basis16))
        assert np.all(rec.observables["wh0"] == 0.0)

    @pytest.mark.parametrize("cfl_safety, amplitude, error", [
        (0.5, 2000.0, TimeStepError), (0.0, 1e200, BlowUpError)])
    def test_abort_record_is_the_largest_path(self, basis16, coupling16,
                                              pairs16, quiet_noise,
                                              cfl_safety, amplitude, error):
        # a batch's abort carries the partial record of the path whose
        # state was largest before the failing step
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          nonlinear=True, dt=0.01, horizon=0.05,
                          cfl_safety=cfl_safety)
        init = np.stack([initial_coeffs(f"mode:1,1:{a},0,0", basis16)
                         for a in (1.0, amplitude, 2.0)])
        with pytest.raises(error) as err:
            _run_paths(cfg, [], [0, 1, 2], init)
        assert err.value.record.stream == 1

    def test_blow_up_detected_with_guard_off(self, basis16, coupling16,
                                             pairs16, quiet_noise):
        cfg = make_config(basis16, coupling16, pairs16, quiet_noise,
                          nonlinear=True, dt=0.01, horizon=0.05,
                          cfl_safety=0.0, init="mode:1,1:1e200,0,0")
        with pytest.raises(BlowUpError) as err:
            run_trajectory(cfg, observables=[])
        assert err.value.record is not None
        assert err.value.record.blow_time is not None

    def test_transport_overflow_is_a_blow_up(self):
        # u ~ 1e159 and grad q ~ 1e161: the product overflows while the
        # velocity stays finite, so only the finiteness checks catch it
        config = realize(RunSettings(modes_x=8, modes_y=8, sigma=0.0,
                                     cfl_safety=0.0, dt=1e-3, horizon=0.01,
                                     init="lowband:3:1e160:7"), seed=1)
        q_hat = initial_coeffs(config.init, config.basis)
        psi_hat = solve_elliptic_coeffs(config.coupling, q_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                run_trajectory(config)
            with pytest.raises(FloatingPointError, match="transport overflow"):
                nonlinear_term(LayerField.from_coeffs(config.basis, q_hat),
                               LayerField.from_coeffs(config.basis, psi_hat))
        assert err.value.time == 0.0
        record = err.value.record
        assert record.blow_time == 0.0
        assert np.array_equal(record.times, [0.0])

    def test_horizon_must_align(self, basis16, coupling16, pairs16,
                                quiet_noise):
        with pytest.raises(ConfigurationError, match="multiple of dt"):
            make_config(basis16, coupling16, pairs16, quiet_noise,
                        dt=0.01, horizon=0.015)

    def test_negative_seed_rejected(self, basis16, coupling16, pairs16,
                                    quiet_noise):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            make_config(basis16, coupling16, pairs16, quiet_noise, seed=-1)


class TestInitialData:
    def test_zero(self, basis16):
        assert np.all(initial_coeffs("zero", basis16) == 0.0)

    def test_mode(self, basis16):
        c = initial_coeffs("mode:2,3:1,-2,0.5", basis16)
        assert c[0, 1, 2] == 1.0 and c[1, 1, 2] == -2.0 and c[2, 1, 2] == 0.5
        assert np.count_nonzero(c) == 3

    def test_lowband_l2_normalized(self, basis16):
        c = initial_coeffs("lowband:4:0.7:9", basis16)
        assert np.sqrt(np.sum(c**2)) == pytest.approx(0.7, rel=1e-12)
        assert np.max(np.abs(c[:, 4:, :])) == 0.0

    def test_lowband_same_field_across_cuts(self, basis16):
        fine = build_basis(1.0, 1.0, 32, 32)
        a = initial_coeffs("lowband:4:0.7:9", basis16)
        b = initial_coeffs("lowband:4:0.7:9", fine)
        assert np.array_equal(a, b[:, :16, :16])

    @pytest.mark.parametrize("descriptor", ["lowband:4:3.0:5",
                                            "lowband:3:1.0:7"])
    def test_lowband_band_bits_do_not_depend_on_the_cut(self, descriptor):
        # the datum is normalized over its band alone, so the band's bits
        # are the same at every mode cut; summed over the zero-padded
        # array they moved by an ulp between N = 8 and N = 12 or 16
        nmax = int(descriptor.split(":")[1])
        bands = [initial_coeffs(descriptor, build_basis(1.0, 1.0, n, n))
                 [:, :nmax, :nmax] for n in (8, 12, 16, 32)]
        for band in bands[1:]:
            assert np.array_equal(band, bands[0])

    def test_unknown_descriptor(self, basis16):
        with pytest.raises(ConfigurationError):
            initial_coeffs("vortex:3", basis16)
        with pytest.raises(ConfigurationError):
            initial_coeffs("mode:1,1:1,2", basis16)
        with pytest.raises(ConfigurationError,
                           match=r"bad init descriptor.*mode \(0, 1\)"):
            initial_coeffs("mode:0,1:1,0,0", basis16)
        # an empty band or a non-finite amplitude would make a NaN datum
        for descriptor in ("lowband:0:1.0:2", "lowband:3:nan:2",
                           "lowband:3:inf:2"):
            with pytest.raises(ConfigurationError,
                               match="bad init descriptor"):
                initial_coeffs(descriptor, basis16)


class TestLpObservables:
    def test_match_grid_norms(self):
        # rectangle with distinct mode cuts and grids above 2N, two paths,
        # the second all zero
        basis = build_basis(1.3, 0.7, 5, 7, gx=13, gy=16)
        coupling = symmetrize((1.0, 1.0, 1.0), basis)
        rng = np.random.default_rng(4)
        q_hat = np.stack([random_band_coeffs(rng, basis),
                          np.zeros((3,) + basis.spectral_shape)])
        ctx = ObsContext(coupling, q_hat, np.zeros_like(q_hat))
        q_grid = basis.inverse(q_hat)
        for p in (2, 4, 6, np.inf):
            ob = obs_lp(p)
            got = ob(ctx)
            want = grid_lp_norm(q_grid, basis, p)
            if p == 2:
                assert abs(got[0] - want[0]) <= 1e-13 * want[0]
            else:
                assert np.array_equal(got, want), ob.name
            assert got[1] == 0.0, ob.name
            for i in range(2):
                single = ObsContext(coupling, q_hat[i:i + 1],
                                    np.zeros_like(q_hat[:1]))
                assert np.array_equal(ob(single), got[i:i + 1]), ob.name

    def test_odd_exponent_rejected(self):
        with pytest.raises(UnsupportedExponentError):
            parse_observables("l3")


class TestHObservables:
    TOKENS = "h0,h1,h2.5,wh1"

    @staticmethod
    def evaluate(pairs, q_hat, w_hat, tokens=TOKENS):
        """The named observables of one (P, 3, Nx, Ny) sample, by name."""
        ctx = ObsContext(pairs.coupling, q_hat, w_hat)
        return {ob.name: ob(ctx) for ob in parse_observables(tokens, pairs)}

    # path 0 is e_11 in layer 0, path 1 is 2 e_12 in layer 2; W is e_11 on
    # path 0 and e_21 on path 1
    LAM = np.array([2 * PI2, 5 * PI2])
    AMP = np.array([1.0, 2.0])

    @pytest.fixture
    def single_mode(self, basis16, pairs16):
        q_hat = np.stack([
            single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0]).spectral(),
            single_mode_field(basis16, 1, 2, [0.0, 0.0, 2.0]).spectral()])
        w_hat = np.stack([
            single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0]).spectral(),
            single_mode_field(basis16, 2, 1, [0.0, 1.0, 0.0]).spectral()])
        return self.evaluate(pairs16, q_hat, w_hat)

    def test_single_mode_h1(self, single_mode):
        assert single_mode["h1"] == pytest.approx(self.AMP * np.sqrt(self.LAM),
                                                  rel=1e-13)

    def test_single_mode_h52(self, single_mode):
        assert single_mode["h2.5"] == pytest.approx(
            self.AMP * self.LAM ** 1.25, rel=1e-13)

    def test_single_mode_h0_and_wh1(self, single_mode):
        assert single_mode["h0"] == pytest.approx(self.AMP, rel=1e-13)
        assert single_mode["wh1"] == pytest.approx(np.sqrt(self.LAM), rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_alpha_on_unit_square(self, seed):
        # all eigenvalues >= 2 pi^2 > 1, so alpha -> norm is nondecreasing
        basis = build_basis(1.0, 1.0, 8, 8)
        pairs = eigenpairs(symmetrize((1.0, 1.0, 1.0), basis), 8)
        rng = np.random.default_rng(seed)
        q_hat, w_hat = (np.stack([random_band_coeffs(rng, basis)
                                  for _ in range(3)]) for _ in range(2))
        tokens = "h0,h0.5,h1,h2,h2.5,wh0,wh1,wh2.5"
        got = self.evaluate(pairs, q_hat, w_hat, tokens)
        norms = np.array([got[name] for name in tokens.split(",")])
        assert np.all(np.diff(norms[:5], axis=0) >= 0)
        assert np.all(np.diff(norms[5:], axis=0) >= 0)

    def test_h0_is_l2(self, basis16, pairs16):
        # Parseval: l2 and h0 are the same sum of squared coefficients
        rng = np.random.default_rng(11)
        q_hat, w_hat = (np.stack([random_band_coeffs(rng, basis16)
                                  for _ in range(2)]) for _ in range(2))
        got = self.evaluate(pairs16, q_hat, w_hat, self.TOKENS + ",l2")
        assert np.array_equal(got["h0"], got["l2"])
        assert got["l2"].shape == (2,) and np.all(got["l2"] > 0)


class TestPairings:
    @staticmethod
    def one_by_one(pairs, k, q_hat, square):
        """The per-observable formula: a gather, a product and a sum."""
        n, m = pairs.mode_n[k] - 1, pairs.mode_m[k] - 1
        val = np.sum(q_hat[..., n, m] * pairs.vec[k], axis=-1)
        return val * val if square else val

    @staticmethod
    def coeffs(rng, basis, n_paths):
        # layers of very different sizes, so that the order of the sum
        # over layers shows in the bits
        scales = 10.0 ** rng.uniform(-6, 6, (n_paths, 3, 1, 1))
        return scales * np.stack([random_band_coeffs(rng, basis)
                                  for _ in range(n_paths)])

    @pytest.mark.parametrize("n_paths", [1, 16])
    def test_shared_gather_matches_each_pairing(self, basis16, pairs16,
                                                n_paths):
        # two parses, over two sets of eigenpairs, evaluated on one sample
        other = eigenpairs(symmetrize((1.0, 2.0, 0.5), basis16), 60)
        rng = np.random.default_rng(n_paths)
        q_hat = self.coeffs(rng, basis16, n_paths)
        ctx = ObsContext(pairs16.coupling, q_hat, np.zeros_like(q_hat))
        for pairs in (pairs16, other):
            ks = rng.permutation(len(pairs))
            tokens = [f"{tag}:{pairs.mode_n[k]}.{pairs.mode_m[k]}."
                      f"{pairs.comp_j[k]}" for k in ks
                      for tag in ("pair", "pairsq")]
            obs = parse_observables(",".join(tokens + ["l2"]), pairs)
            for i, (ob, token) in enumerate(zip(obs, tokens)):
                want = self.one_by_one(pairs, ks[i // 2], q_hat,
                                       token.startswith("pairsq"))
                assert np.array_equal(ob(ctx), want), token
        assert len(ctx._memo) == 2      # one evaluation per parse

    @pytest.mark.parametrize("tokens", [
        ["pairsq:1.1.0"],
        ["pair:1.1.0", "l2", "pairsq:1.1.0", "pairsq:1.2.1", "pair:2.1.2",
         "h1", "pairsq:2.2.0", "pair:1.3.1"]])
    def test_one_gather_per_sample(self, monkeypatch, tokens):
        # the loop gathers all the pairings of one set of eigenpairs with
        # one pair_coeffs per sample; each label's series is bitwise its
        # one-label run's
        cfg = realize(RunSettings(modes_x=8, modes_y=8, dt=1e-3,
                                  horizon=0.02, noise_modes=24,
                                  init="lowband:3:2.0:4"), seed=6)
        calls = []

        def spy(*args):
            calls.append(args[0].shape)
            return pair_coeffs(*args)

        monkeypatch.setattr(dynamics, "pair_coeffs", spy)
        obs = parse_observables(",".join(tokens), cfg.pairs)
        batch = _run_paths(cfg, obs, range(3))
        assert calls == [(3, 3, 8, 8)] * cfg.n_samples(1)
        for token in tokens:
            alone = _run_paths(cfg, parse_observables(token, cfg.pairs),
                               range(3))
            for rec, one in zip(batch, alone):
                assert rec.observables[token].tobytes() == \
                    one.observables[token].tobytes(), token
        assert [list(rec.observables) for rec in batch] == [tokens] * 3

    @pytest.mark.parametrize("n_paths", [1, 16])
    def test_project_takes_leading_axes(self, basis16, pairs16, n_paths):
        q_hat = self.coeffs(np.random.default_rng(7), basis16, n_paths)
        want = np.stack([self.one_by_one(pairs16, k, q_hat, False)
                         for k in range(len(pairs16))], axis=-1)
        index, vec = pairs16.flat_index, pairs16.vec
        assert np.array_equal(pair_coeffs(q_hat, index, vec), want)
        assert np.array_equal(pair_coeffs(q_hat[0], index, vec), want[0])


class TestObservableParsing:
    def test_standard_tokens(self, pairs16):
        obs = parse_observables("l2,l4,linf,h1,h2.5,gradl4,wh2.5", pairs16)
        assert [o.name for o in obs] == \
            ["l2", "l4", "linf", "h1", "h2.5", "gradl4", "wh2.5"]

    def test_pairing_token(self, pairs16):
        obs = parse_observables("pair:1.1.0,pairsq:1.1.0", pairs16)
        assert [o.name for o in obs] == ["pair:1.1.0", "pairsq:1.1.0"]
        with pytest.raises(ConfigurationError):
            parse_observables("pair:99.1.0", pairs16)

    def test_unknown_token(self):
        with pytest.raises(ConfigurationError):
            parse_observables("l2,magic")

    @pytest.mark.parametrize("token", ["lx", "l", "l2.5", "whq", "wh", "h",
                                       "hx", "hnan", "whinf"])
    def test_malformed_number_names_the_token(self, token):
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(token)}: expected "):
            parse_observables(f"l2,{token}")

    @pytest.mark.parametrize("text, token, name", [
        ("l2,h1,h1.0", "h1.0", "h1"), ("linf,l2,linf", "linf", "linf"),
        ("wh2.5,wh2.50", "wh2.50", "wh2.5"),
        ("pair:1.1.0,pair:1.1.0", "pair:1.1.0", "pair:1.1.0")])
    def test_repeated_name_names_the_token(self, pairs16, text, token, name):
        # one name would give two equal series.csv columns
        with pytest.raises(ConfigurationError,
                           match=rf"^{re.escape(token)}: repeats observable "
                                 rf"'{re.escape(name)}'$"):
            parse_observables(text, pairs16)

    @pytest.mark.parametrize("token", ["l0", "l3", "l-2"])
    def test_unsupported_exponent_is_a_configuration_error(self, token):
        with pytest.raises(ConfigurationError, match="even integers >= 2"):
            parse_observables(f"l2,{token}")
