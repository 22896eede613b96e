import concurrent.futures
from dataclasses import replace
import math

import numpy as np
import pytest

from layerqg import cli, rng as rngmod, sweeps
from layerqg import dynamics
from layerqg.dynamics import (ObsContext, Observable, SimConfig,
                              parse_observables, run_trajectory)
from layerqg.errors import (BlowUpError, ConfigurationError, SamplingError,
                            TimeStepError)
from layerqg.experiments import (_damped_integrate, log_estimate_monitor,
                                 lp_envelope, monitor_observables,
                                 w14_monitor, weak_residual)
from layerqg.noise import make_noise
from layerqg.spectral import (LayerField, SpectralBasis, grid_lp_norm,
                              single_mode_field)
from layerqg.sweeps import (SweepReport, _l2_distance, galerkin_sweep,
                            viscosity_sweep, yudovich_stability)

from conftest import (coarse_normals, on_normals, random_band_coeffs,
                      run_with_snapshots)


def noisy_config(basis, coupling, pairs, sigma=2.0, **kw):
    noise = make_noise(pairs, 48, 2.0, sigma)
    defaults = dict(gamma=0.5, viscosity=0.0, dt=2e-3, horizon=0.5,
                    nonlinear=True, init="lowband:3:1.0:11", seed=5)
    defaults.update(kw)
    return SimConfig(pairs=pairs, noise=noise, **defaults)


def monitored(cfg, exponents=(2, 4), test_functions=(), **kwargs):
    """A run of cfg that records every monitor series at its observable
    cadence."""
    return run_trajectory(cfg, observables=monitor_observables(
        cfg.basis, exponents, test_functions), **kwargs)


class TestSweepReport:
    def test_ladder_must_be_monotone(self):
        with pytest.raises(ConfigurationError):
            SweepReport(kind="x", ladder=[1, 3, 2], distance_name="d",
                        distances=np.array([1.0, 0.5]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepReport(kind="x", ladder=[1, 2, 3], distance_name="d",
                        distances=np.array([1.0, -0.5]))

    def test_verdict_flags(self):
        rep = SweepReport(kind="x", ladder=[1, 2, 3, 4], distance_name="d",
                          distances=np.array([1.0, 2.0, 0.5]))
        assert not rep.monotone_decreasing
        assert rep.first_violation == 0
        good = SweepReport(kind="x", ladder=[1, 2, 3, 4], distance_name="d",
                           distances=np.array([1.0, 0.5, 0.2]))
        assert good.monotone_decreasing
        assert good.first_violation is None
        assert good.empirical_rate > 0


class TestGalerkin:
    def test_ladder_too_short(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16)
        with pytest.raises(ConfigurationError):
            galerkin_sweep(cfg, [16, 32])

    def test_identical_records_distance_zero(self, basis16, coupling16,
                                             pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1,
                           snap_every=5)
        qa = run_with_snapshots(cfg)[2]
        qb = run_with_snapshots(cfg)[2]
        assert [_l2_distance(a[0], b[0]) for a, b in zip(qa, qb)] == \
            [0.0] * len(qa)

    @pytest.mark.parametrize("shapes", [((8, 8), (12, 12)),
                                        ((8, 12), (12, 10))],
                             ids=["square", "rectangular"])
    def test_l2_distance_is_the_padded_formula(self, shapes):
        # Parseval over the shared block and both tails gives the sum of
        # the zero-padded difference, without the padded copy
        rng = np.random.default_rng(21)
        qa, qb = (rng.standard_normal((3,) + shape) for shape in shapes)
        big = tuple(max(a, b) for a, b in zip(*shapes))
        diff = np.zeros((3,) + big)
        diff[:, :shapes[0][0], :shapes[0][1]] = qa
        diff[:, :shapes[1][0], :shapes[1][1]] -= qb
        want = np.sqrt(np.sum(diff**2))
        got = _l2_distance(qa, qb)
        assert abs(got - want) <= 1e-14 * want
        assert _l2_distance(qb, qa) == got

    def test_linear_dynamics_zero_beyond_support(self, basis16, coupling16,
                                                 pairs16):
        # mode sets beyond the coarsest rung never activate
        cfg = noisy_config(basis16, coupling16, pairs16, nonlinear=False,
                           horizon=0.2, init="lowband:4:1.0:2")
        rep = galerkin_sweep(cfg, [16, 24, 32])
        assert np.all(rep.distances == 0.0)

    def test_nonlinear_distances_decrease(self, basis16, coupling16,
                                          pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, sigma=2.0,
                           viscosity=0.05, horizon=0.3,
                           init="lowband:4:2.0:11")
        rep = galerkin_sweep(cfg, [16, 24, 32])
        assert rep.monotone_decreasing

    def test_noise_beyond_coarse_rung_rejected(self, basis16, coupling16,
                                               pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16)
        with pytest.raises(ConfigurationError):
            galerkin_sweep(cfg, [2, 4, 8])

    def test_rungs_carry_the_config_eigenpairs(self, monkeypatch, pairs16):
        # each rung scatters the config's own noise eigenpairs into its
        # cut; re-solved on the N=32 cut, the 700 smallest |mu| would
        # reach mode 17, which the N=16 rung cannot hold
        cfg = SimConfig(pairs=pairs16, noise=make_noise(pairs16, 700, 2.0,
                                                        1.0),
                        gamma=0.5, viscosity=0.0, dt=1e-3, horizon=2e-3,
                        nonlinear=False, seed=5)
        rungs, batches = [], sweeps._batches

        def seen(config, *args, **kwargs):
            rungs.append(config.pairs)
            return batches(config, *args, **kwargs)

        monkeypatch.setattr(sweeps, "_batches", seen)
        galerkin_sweep(cfg, [16, 32, 64])
        assert [pairs.basis.nx for pairs in rungs] == [16, 32, 64]
        for pairs in rungs:
            for name in ("mode_n", "mode_m", "comp_j", "mu", "vec"):
                assert getattr(pairs, name)[:700].tobytes() == \
                    getattr(cfg.pairs, name)[:700].tobytes(), name


class TestViscosity:
    def test_distances_decrease_and_est2_bounded(self, basis16, coupling16,
                                                 pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, viscosity=0.1,
                           horizon=0.3)
        rep = viscosity_sweep(cfg, [0.2, 0.1, 0.05, 0.025])
        assert rep.monotone_decreasing
        est2 = rep.extras["est2"]
        assert np.max(est2) / np.min(est2) <= 10.0

    def test_ladder_direction_enforced(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16)
        with pytest.raises(ConfigurationError):
            viscosity_sweep(cfg, [0.05, 0.1, 0.2])
        with pytest.raises(ConfigurationError):
            viscosity_sweep(cfg, [0.2, 0.1])

    def test_report_bit_reproducible(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1)
        reports = [viscosity_sweep(cfg, [0.2, 0.1, 0.05]) for _ in range(2)]
        assert np.array_equal(reports[0].distances, reports[1].distances)
        assert np.array_equal(reports[0].extras["est2"],
                              reports[1].extras["est2"])


class TestYudovich:
    def test_equal_data_is_exactly_zero(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1,
                           snap_every=5)
        qa = run_with_snapshots(cfg)[2]
        qb = run_with_snapshots(cfg)[2]
        assert np.array_equal(qa, qb)

    def test_linear_response_and_jump_bound(self, basis16, coupling16,
                                            pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.25,
                           snap_every=1)
        pert = single_mode_field(basis16, 2, 1, [1.0, 0.5, -1.0])
        rep = yudovich_stability(cfg, [1e-1, 1e-2, 1e-3], pert)
        z = rep.distances
        assert np.all(np.diff(z) < 0)
        assert z[2] <= 0.1 * z[0]
        # recorded series moves by O(dt) per step
        assert np.all(rep.extras["max_jump"] <= 100 * cfg.dt * z)

    def test_nonpositive_delta_rejected(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16)
        pert = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            yudovich_stability(cfg, [1e-1, 0.0], pert)

    def test_zero_perturbation_rejected(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16)
        with pytest.raises(ConfigurationError):
            yudovich_stability(cfg, [1e-1, 1e-2, 1e-3],
                               LayerField.zero(basis16))


class TestLockstep:
    """The driver steps the sample generators of a run together."""

    @staticmethod
    def run(n, stop=None, error=TimeStepError, time=None):
        # a stand-in batch: samples 0..n-1, or an abort on the way to
        # sample `stop`, at `time` (default 0.1 * stop)
        def samples():
            for j in range(n):
                if j == stop:
                    raise error("stopped",
                                time=0.1 * j if time is None else time)
                yield j, None
        return [0], samples()

    def test_fold_sees_each_sample_of_all(self):
        seen = []
        seconds, = dynamics._drive([([self.run(4), self.run(4)],
                                     seen.append)])
        assert seen == [[(j, None)] * 2 for j in range(4)]
        assert seconds.shape == (2,) and np.all(seconds >= 0)

    @pytest.mark.parametrize("error", [TimeStepError, BlowUpError])
    def test_earliest_abort_raises(self, error):
        # rung 0 would stop at sample 3, rung 1 stops at sample 2 and so
        # stops the study there, though rung 0 comes first in order; of
        # two aborts on the way to one sample, the earlier raises
        seen = []
        with pytest.raises(error) as err:
            dynamics._drive([([self.run(5, 3), self.run(5, 2, error),
                               self.run(5)], seen.append)])
        assert err.value.time == pytest.approx(0.2)
        assert [samples[0][0] for samples in seen] == [0, 1]
        with pytest.raises(error) as err:
            dynamics._drive([([self.run(5, 2, error, time=0.19),
                               self.run(5, 2, error, time=0.11)],
                              seen.append)])
        assert err.value.time == 0.11

    def test_sweeps_leave_the_error_state_alone(self, basis16, coupling16,
                                                pairs16, monkeypatch):
        # the errstate is entered around each drive, never held across a
        # yield: the ladders, a run split over two pool threads, and bare
        # generators stepped in turn or resumed on another thread leave
        # np.geterr() as they found it
        before = np.geterr()
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.02,
                           viscosity=0.05)
        first, second = (dynamics._batches(cfg, [s])[0][1] for s in (0, 1))
        for _ in zip(first, second):
            pass
        assert list(second) == []       # its last resumption ends it
        assert np.geterr() == before
        samples = dynamics._batches(cfg, [0])[0][1]
        next(samples)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            pool.submit(list, samples).result(timeout=60)
        assert np.geterr() == before
        pert = single_mode_field(basis16, 1, 2, [1.0, -0.5, 0.25])
        for study in (lambda: galerkin_sweep(cfg, [8, 12, 16]),
                      lambda: viscosity_sweep(cfg, [0.2, 0.1, 0.05]),
                      lambda: yudovich_stability(cfg, [0.1, 0.01], pert)):
            study()
            assert np.geterr() == before
        monkeypatch.setattr(dynamics, "_BATCH_POINTS",
                            2 * 3 * math.prod(basis16.grid_shape))
        monkeypatch.setattr(dynamics, "_blas_pinned", lambda: True)
        records = dynamics._run_paths(cfg, parse_observables("l2"), range(4),
                                      threads=2)
        assert len(records) == 4
        assert np.geterr() == before


class TestWeakResidual:
    def test_linear_noiseless_is_quadrature_small(self, basis16, coupling16,
                                                  pairs16, quiet_noise):
        gamma = 0.5
        cfg = SimConfig(pairs=pairs16,
                        noise=quiet_noise, gamma=gamma, viscosity=0.0,
                        dt=1e-2, horizon=0.5, nonlinear=False,
                        init="mode:1,1:1,0,0", seed=1)
        phi = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        rec = monitored(cfg, test_functions=[phi])
        res = weak_residual(rec, [phi])[0]
        # trapezoid error for exp decay: h^2/12 * gamma^2 * t * |<q0,phi>|
        bound = cfg.dt**2 * gamma**2 * rec.times * 1.0
        assert np.all(res <= bound + 1e-14)

    def test_zero_test_function(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1)
        zero = LayerField.zero(basis16)
        rec = monitored(cfg, test_functions=[zero])
        res = weak_residual(rec, [zero])
        assert np.all(res == 0.0)

    def test_first_order_self_convergence(self, basis16, coupling16,
                                          pairs16, monkeypatch):
        # the dt = 2e-3 run steps on sums of the dt = 1e-3 run's normals
        noise = make_noise(pairs16, 48, 2.0, 2.0)
        fine = rngmod.stream(5, 0).standard_normal((250, noise.k))
        rng = np.random.default_rng(17)
        phis = [LayerField.from_coeffs(basis16,
                                       random_band_coeffs(rng, basis16))
                for _ in range(3)]
        recs = {}
        for dt, factor in ((2e-3, 2), (1e-3, 1)):
            cfg = noisy_config(basis16, coupling16, pairs16, dt=dt,
                               horizon=0.25)
            cfg = replace(cfg, noise=noise)
            initial = dynamics.initial_coeffs(cfg.init, basis16)
            recs[dt] = on_normals(
                monkeypatch, coarse_normals(fine, factor),
                lambda: monitored(cfg, test_functions=phis, initial=initial))
        res_c = weak_residual(recs[2e-3], phis).max(axis=1)
        res_f = weak_residual(recs[1e-3], phis).max(axis=1)
        assert np.all(res_f <= 0.6 * res_c)

    def test_sparse_record_rejected(self, basis16, coupling16, pairs16):
        # 50 steps sampled every 50: two samples
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1,
                           obs_every=50)
        phi = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        rec = monitored(cfg, test_functions=[phi])
        assert len(rec.times) == 2
        with pytest.raises(SamplingError, match="at least 3 samples"):
            weak_residual(rec, [phi])


class TestMonitors:
    def test_log_ratio_single_mode_baseline(self, basis16, coupling16,
                                            pairs16, quiet_noise):
        cfg = SimConfig(pairs=pairs16,
                        noise=quiet_noise, gamma=0.5, viscosity=0.0,
                        dt=1e-2, horizon=0.1, nonlinear=False,
                        init="mode:1,1:1,0,0", seed=1, obs_every=5)
        rec = monitored(cfg)
        rep = log_estimate_monitor(rec)
        assert not rep.skipped.any()
        assert 0 < rep.maximum < 1.0    # single-mode baseline, frozen bound

    def test_zero_snapshots_skipped(self, basis16, coupling16, pairs16,
                                    quiet_noise):
        cfg = SimConfig(pairs=pairs16,
                        noise=quiet_noise, gamma=0.5, viscosity=0.0,
                        dt=1e-2, horizon=0.05, nonlinear=False,
                        init="zero", seed=1)
        rec = monitored(cfg)
        rep = log_estimate_monitor(rec)
        assert rep.skipped.all()
        assert np.all(rep.series == 0.0)
        assert rep.maximum == 0.0

    def test_noisy_ratio_stays_near_baseline(self, basis16, coupling16,
                                             pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.5,
                           obs_every=10)
        rec = monitored(cfg)
        rep = log_estimate_monitor(rec)
        baseline = 0.7    # recorded for this resolution
        assert rep.maximum <= 3 * baseline

    def test_w14_exact_decay_noiseless(self, basis16, coupling16, pairs16,
                                       quiet_noise):
        gamma = 0.5
        cfg = SimConfig(pairs=pairs16,
                        noise=quiet_noise, gamma=gamma, viscosity=0.0,
                        dt=1e-2, horizon=0.3, nonlinear=False,
                        init="lowband:3:1.0:4", seed=1)
        rec = monitored(cfg)
        rep = w14_monitor(rec)
        expected = rep.series[0] * np.exp(-gamma * rec.times)
        assert np.allclose(rep.series, expected, rtol=1e-10)
        assert rep.dominated

    def test_w14_zero_data(self, basis16, coupling16, pairs16, quiet_noise):
        cfg = SimConfig(pairs=pairs16,
                        noise=quiet_noise, gamma=0.5, viscosity=0.0,
                        dt=1e-2, horizon=0.05, nonlinear=False,
                        init="zero", seed=1)
        rec = monitored(cfg)
        rep = w14_monitor(rec)
        assert np.all(rep.series == 0.0)

    def test_damped_integrate_small_rate(self):
        # e' = -a e + 1 from e(0) = 0 gives e(h) = (1 - e^{-ah}) / a,
        # which is h (1 - ah/2) to O((ah)^2); 1 - e^{-ah} itself rounds to 0
        a, h = 1e-14, 1e-3
        e = _damped_integrate(np.array([a, a]), np.ones(2),
                              np.array([0.0, h]), 0.0)
        assert e[1] == pytest.approx(h * (1 - a * h / 2), rel=1e-15)

    def test_noisy_envelopes_dominate(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.5,
                           obs_every=2)
        rec = monitored(cfg, exponents=(2, 4, 8))
        for k in (1, 2, 4):
            q_norm, env_q, eta_norm, env_eta = lp_envelope(rec, k)
            assert np.all(q_norm <= env_q * (1 + 1e-9) + 1e-12)
            assert np.all(eta_norm <= env_eta * (1 + 1e-9) + 1e-12)
        assert w14_monitor(rec).dominated


class TestSharedPass:
    def test_monitors_read_the_record_and_change_nothing(
            self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1,
                           obs_every=2)
        phi = single_mode_field(basis16, 2, 1, [1.0, -0.5, 0.25])
        rec = monitored(cfg, test_functions=[phi])
        stored = {key: series.copy()
                  for key, series in rec.observables.items()}

        def same(a, b):
            if isinstance(a, (tuple, list)):
                return all(same(x, y) for x, y in zip(a, b))
            if hasattr(a, "series"):
                return all(same(getattr(a, f), getattr(b, f)) for f in (
                    "times", "series", "maximum", "skipped", "envelope",
                    "dominated"))
            return np.array_equal(a, b)

        monitors = [log_estimate_monitor, w14_monitor,
                    lambda rec: lp_envelope(rec, 1),
                    lambda rec: lp_envelope(rec, 2),
                    lambda rec: weak_residual(rec, [phi])]
        for monitor in monitors:
            assert same(monitor(rec), monitor(rec))
        assert rec.observables.keys() == stored.keys()
        assert all(np.array_equal(rec.observables[key], series)
                   for key, series in stored.items())

    def test_a_missing_series_is_named(self, basis16, coupling16, pairs16):
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.02)
        bare = run_trajectory(cfg, observables=[])
        for monitor, name in ((log_estimate_monitor, "q_inf"),
                              (w14_monitor, "grad_q_l4"),
                              (lambda rec: lp_envelope(rec, 1), "'q', 2")):
            with pytest.raises(SamplingError, match=name):
                monitor(bare)
        rec = monitored(cfg, exponents=(2, 4))
        with pytest.raises(SamplingError, match="'q', 6"):
            lp_envelope(rec, 3)
        phi = single_mode_field(basis16, 1, 1, [1.0, 0.0, 0.0])
        with pytest.raises(SamplingError,
                           match="pairing of test function 0"):
            weak_residual(rec, [phi])

    def test_monitor_series_equal_the_run_observables(
            self, basis16, coupling16, pairs16):
        # a nonlinear run's observables and diagnose's monitor series of
        # the same samples come from one evaluation path
        cfg = noisy_config(basis16, coupling16, pairs16, horizon=0.1,
                           obs_every=2)
        run = run_trajectory(cfg, observables=parse_observables(
            "linf,l4,gradl4"))
        diagnose = monitored(cfg)
        assert np.array_equal(run.times, diagnose.times)
        for name, key in (("linf", "q_inf"), ("l4", ("q", 4)),
                          ("gradl4", "grad_q_l4")):
            assert np.array_equal(run.observables[name],
                                  diagnose.observables[key]), name

    def test_eta_norms_equal_those_of_a_synthesized_eta(
            self, basis16, coupling16, pairs16):
        # eta's grid is q's less W's: its Lp norms are within 1e-14 of
        # those of the grid of q_hat - w_hat, synthesized alone, at every
        # sample, and bitwise at t = 0, where W = 0; the noise is strong
        # enough that W is a tenth of q by the end
        cfg = noisy_config(basis16, coupling16, pairs16, sigma=300.0,
                           horizon=0.1, obs_every=2)
        exponents = (2, 4, 6)
        synthesized = [Observable(("alone", p), lambda ctx, p=p: grid_lp_norm(
            basis16.inverse(ctx.q_hat - ctx.w_hat), basis16, p))
            for p in exponents]
        rec = run_trajectory(cfg, observables=monitor_observables(
            basis16, exponents) + synthesized)
        for p in exponents:
            got, want = rec.observables["eta", p], rec.observables["alone", p]
            assert np.all(np.abs(got - want) <= 1e-14 * want), p
            assert got[0] == want[0], p
        assert rec.observables["w", 2][-1] > 0.1 * rec.observables["q", 2][-1]

    def test_a_sample_releases_every_product_and_grid(
            self, basis16, coupling16, pairs16):
        # the loop's release plan drops each x-stage product (f, dx) and
        # grid (f, dx, dy) after its last reader, so none outlives the
        # monitor series of a sample
        rng = np.random.default_rng(3)
        q_hat, w_hat = (np.stack([random_band_coeffs(rng, basis16)])
                        for _ in range(2))
        phi = single_mode_field(basis16, 2, 1, [1.0, -0.5, 0.25])
        obs = monitor_observables(basis16, (2, 4), [phi])
        ctx = ObsContext(coupling16, q_hat, w_hat)
        made = set()
        for ob, drops in zip(obs, dynamics._release_plan(obs)):
            ob(ctx)
            made |= {key for key in ctx._memo if isinstance(key, tuple)
                     and isinstance(key[1], int)}
            ctx.release(drops)
        assert len(made) == 8 + 14 + 2      # with the eta and |u| grids
        assert made.isdisjoint(ctx._memo)

    def test_diagnose_synthesizes_each_grid_once_per_sample(
            self, tmp_path, monkeypatch):
        calls = {"x": 0, "y": 0, "samples": 0, "grads_before": 0}
        evaluating = []
        stage_x, stage_y = SpectralBasis.stage_x, SpectralBasis.stage_y
        grad_grids = SpectralBasis.grad_grids
        call, init = Observable.__call__, ObsContext.__init__

        def counting_stage_x(self, c, dx):
            calls["x"] += bool(evaluating)
            return stage_x(self, c, dx)

        def counting_stage_y(self, product, dy, out=None):
            calls["y"] += bool(evaluating)
            return stage_y(self, product, dy, out=out)

        def counting_grad_grids(self, coeffs):
            calls["grads_before"] += not evaluating
            return grad_grids(self, coeffs)

        def counting_call(self, ctx):
            evaluating.append(self)
            try:
                return call(self, ctx)
            finally:
                evaluating.pop()

        def counting_init(self, *args):
            calls["samples"] += 1
            init(self, *args)

        monkeypatch.setattr(SpectralBasis, "stage_x", counting_stage_x)
        monkeypatch.setattr(SpectralBasis, "stage_y", counting_stage_y)
        monkeypatch.setattr(SpectralBasis, "grad_grids", counting_grad_grids)
        monkeypatch.setattr(Observable, "__call__", counting_call)
        monkeypatch.setattr(ObsContext, "__init__", counting_init)
        cfg = tmp_path / "d.cfg"
        cfg.write_text("modes_x=8\nmodes_y=8\nsigma=1.0\ndt=0.005\n"
                       "horizon=0.05\ninit=lowband:3:1.0:2\n"
                       "noise_modes=16\n")
        assert cli.main(["diagnose", "--config", str(cfg), "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
        assert calls["samples"] == 11
        # x-stage products: q of x order 0 and 1, W and psi of 0, 1 and 2
        assert 0 < calls["x"] <= 8 * calls["samples"]
        # grids: q and grad q (3), W, grad W and D^2 W (6), grad psi and
        # D^2 psi (5); eta and |u| are formed from them
        assert 0 < calls["y"] <= 14 * calls["samples"]
        # the test function's gradient, once before the run
        assert calls["grads_before"] == 1
