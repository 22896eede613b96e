import numpy as np
import pytest
from dataclasses import replace

from layerqg.dynamics import (Observable, PairingTable, SimConfig, obs_lp,
                              parse_observables, run_trajectory)
from layerqg.errors import ConfigurationError, ShapeError
from layerqg.measures import _theta_envelope, kb_average, tightness_diagnostic
from layerqg.noise import make_noise, sigma_for_stationary_l2


def linear_config(basis, coupling, pairs, sigma=1.0, **kw):
    noise = make_noise(pairs, 32, 2.0, sigma)
    defaults = dict(gamma=0.5, viscosity=0.0, dt=0.02, horizon=100.0,
                    nonlinear=False, init="zero", seed=3)
    defaults.update(kw)
    return SimConfig(pairs=pairs, noise=noise, **defaults)


class TestKbAverage:
    def test_silent_dynamics_average_zero(self, basis16, coupling16,
                                          pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, sigma=0.0,
                            horizon=2.0)
        ms = kb_average(cfg, [1.0, 2.0], [obs_lp(2)], n_paths=2)
        for m in ms:
            assert m.means[0] == 0.0
            assert m.stderrs[0] == 0.0

    def test_horizons_validated(self, basis16, coupling16, pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, horizon=2.0)
        with pytest.raises(ConfigurationError):
            kb_average(cfg, [2.0, 1.0], [obs_lp(2)])
        with pytest.raises(ConfigurationError):
            kb_average(cfg, [1.0, 5.0], [obs_lp(2)])

    @pytest.mark.parametrize("horizons", [
        [0.045], [0.042, 0.048], [0.0], [-0.007], [np.nan], [np.inf],
        [0.049, 0.042], [0.056]],
        ids=["off-grid", "off-grid-last", "zero", "negative", "nan", "inf",
             "descending", "beyond"])
    def test_horizons_checked_before_the_run(self, basis16, coupling16,
                                             pairs16, monkeypatch, horizons):
        # samples every 7 steps of 1e-3: 0, 0.007, ..., 0.049 and 0.05
        from layerqg import dynamics
        cfg = linear_config(basis16, coupling16, pairs16, dt=1e-3,
                            horizon=0.05, obs_every=7)
        steps = []
        monkeypatch.setattr(dynamics.Stepper, "advance",
                            lambda *args: steps.append(args))
        with pytest.raises(ConfigurationError, match="horizon"):
            kb_average(cfg, horizons, [obs_lp(2)])
        assert not steps

    def test_no_paths_rejected(self, basis16, coupling16, pairs16):
        # the stepping loop makes the check
        cfg = linear_config(basis16, coupling16, pairs16, horizon=2.0)
        with pytest.raises(ConfigurationError, match="n_paths must be >= 1"):
            kb_average(cfg, [1.0], [obs_lp(2)], n_paths=0)

    def test_sample_time_horizons_accepted(self, basis16, coupling16,
                                           pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, dt=1e-3,
                            horizon=0.05, obs_every=7)
        ms = kb_average(cfg, [0.042, 0.049, 0.05], [obs_lp(2)])
        assert [m.horizon for m in ms] == [0.042, 0.049, 0.05]

    def test_average_linearity(self, basis16, coupling16, pairs16):
        # time averaging commutes with linear combinations of observables
        cfg = linear_config(basis16, coupling16, pairs16, horizon=5.0)
        table = PairingTable(pairs16)
        a, b = table.observable(0), table.observable(1)
        combo = Observable("combo", lambda ctx: 2 * a.fn(ctx) - 3 * b.fn(ctx))
        ms = kb_average(cfg, [5.0], [a, b, combo], n_paths=2)
        m = ms[0]
        lhs = m.value("combo")
        rhs = 2 * m.value(a.name) - 3 * m.value(b.name)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_pooled_observable_rejected(self, basis16, coupling16, pairs16):
        # one value for the whole batch would be copied to every path
        cfg = linear_config(basis16, coupling16, pairs16, horizon=0.2)
        pooled = Observable("pooled", lambda ctx: np.sum(ctx.q_hat**2))
        with pytest.raises(ShapeError, match="pooled"):
            kb_average(cfg, [0.2], [pooled], n_paths=2)

    def test_repeated_names_average_alike(self, basis16, coupling16,
                                          pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, horizon=0.4)
        # one parse_observables call rejects a repeated name; a list built
        # by hand may still repeat one
        obs = parse_observables("l2,h1") + parse_observables("l2,h1.0")
        m = kb_average(cfg, [0.4], obs, n_paths=3)[0]
        assert m.names == ["l2", "h1", "l2", "h1"]
        assert np.array_equal(m.means[:2], m.means[2:])
        assert np.array_equal(m.stderrs[:2], m.stderrs[2:])
        assert m.means[0] > 0

    def test_linear_ou_second_moment(self, basis16, coupling16, pairs16):
        gamma = 0.5
        cfg = linear_config(basis16, coupling16, pairs16, dt=0.01,
                            horizon=400.0, seed=2024, obs_every=2)
        table = PairingTable(pairs16)
        obs = [table.observable(k, square=True) for k in range(3)]
        ms = kb_average(cfg, [400.0], obs, n_paths=12)
        m = ms[0]
        for k in range(3):
            target = cfg.noise.c[k] ** 2 / (2 * gamma)
            assert abs(m.means[k] - target) <= 0.05 * target

    def test_nested_horizons_stabilize(self, basis16, coupling16, pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, dt=0.01,
                            horizon=320.0, seed=77, obs_every=2)
        obs = [PairingTable(pairs16).observable(0, square=True)]
        ms = kb_average(cfg, [80.0, 160.0, 320.0], obs, n_paths=6)
        vals = [m.means[0] for m in ms]
        deltas = np.abs(np.diff(vals))
        assert deltas[1] < deltas[0]

    def test_time_average_matches_late_ensemble(self, basis16, coupling16,
                                                pairs16):
        # ergodicity of the damped linear flow
        gamma = 0.5
        cfg = linear_config(basis16, coupling16, pairs16, dt=0.01,
                            horizon=300.0, seed=41, obs_every=2)
        obs = [PairingTable(pairs16).observable(0, square=True)]
        ms = kb_average(cfg, [300.0], obs, n_paths=8)
        time_avg, time_se = ms[0].means[0], ms[0].stderrs[0]
        finals = []
        for p in range(24):
            cfg_short = replace(cfg, horizon=20.0)
            rec = run_trajectory(cfg_short, observables=obs,
                                 stream=100 + p)
            finals.append(rec.observables[obs[0].name][-1])
        ens_avg = np.mean(finals)
        ens_se = np.std(finals, ddof=1) / np.sqrt(len(finals))
        assert abs(time_avg - ens_avg) <= 3 * np.hypot(time_se, ens_se)


class TestTightness:
    def test_silent_noise_degenerate(self, basis16, coupling16, pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, sigma=0.0,
                            horizon=1.0)
        rep = tightness_diagnostic(cfg, rate=2.0, horizon=10.0,
                                   radii=[0.5, 1.0, 2.0])
        assert rep.sup_q_inf == 0.0
        assert np.all(rep.fractions == 1.0)
        assert rep.trend_ok

    def test_linear_flow_stabilizes(self, basis16, coupling16, pairs16):
        cfg = linear_config(basis16, coupling16, pairs16, sigma=1.0,
                            horizon=1.0, seed=12)
        rep = tightness_diagnostic(cfg, rate=2.0, horizon=150.0)
        assert rep.trend_ok
        assert np.all(np.diff(rep.fractions) >= 0)

    def test_envelope_dominates_at_small_noise(self, basis16, coupling16,
                                               pairs16):
        # small amplitude keeps the averaged growth condition satisfied
        cfg = linear_config(basis16, coupling16, pairs16, sigma=0.3,
                            horizon=1.0, seed=4, nonlinear=True, dt=0.01)
        rep = tightness_diagnostic(cfg, rate=2.0, horizon=60.0)
        assert not rep.envelope_uninformative
        assert rep.envelope_condition_held
        assert rep.theta_dominated

    def test_envelope_recurrence_matches_quadrature(self):
        # the O(n) recurrence against the direct trapezoid sums per time
        rng = np.random.default_rng(17)
        times = np.cumsum(rng.uniform(0.01, 0.05, 500))
        times -= times[0]
        zeta = rng.uniform(0.0, 0.4, 500)
        gamma, rate = 0.5, 2.0
        envelope, uninformative, _ = _theta_envelope(times, zeta, gamma, rate)
        assert not uninformative
        growth = zeta - gamma
        j_cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (growth[1:] + growth[:-1]) * np.diff(times))])
        forcing = (zeta + abs(rate - gamma)) * zeta
        direct = np.empty(500)
        for s in range(500):
            integrand = forcing[: s + 1] * np.exp(j_cum[s] - j_cum[: s + 1])
            integral = np.sum(0.5 * (integrand[1:] + integrand[:-1])
                              * np.diff(times[: s + 1]))
            direct[s] = zeta[0] * np.exp(j_cum[s]) + integral
        assert np.max(np.abs(envelope / direct - 1)) <= 1e-12

    def test_non_finite_ou_state_stops_the_run_at_the_next_sample(
            self, basis16, coupling16, pairs16, monkeypatch):
        # the OU state is updated in place without a per-step check; the
        # sampled zeta norm reports a non-finite state at the next sample
        from layerqg import measures
        cfg = linear_config(basis16, coupling16, pairs16, horizon=1.0)
        advance, steps = measures.ou_step, []

        def spoiled(zeta, factors, xi, increment, out):
            steps.append(len(steps) + 1)
            advance(zeta, factors, xi, increment, out=out)
            if len(steps) == 3:
                out[0] = np.nan

        monkeypatch.setattr(measures, "ou_step", spoiled)
        with pytest.raises(ConfigurationError, match="non-finite OU state"):
            tightness_diagnostic(cfg, rate=2.0, horizon=1.0)
        assert len(steps) == 5

    @pytest.mark.parametrize("sigma", [1.0, 0.0])
    def test_one_ou_step_per_step(self, basis16, coupling16, pairs16,
                                  monkeypatch, sigma):
        from layerqg import measures
        cfg = linear_config(basis16, coupling16, pairs16, sigma=sigma,
                            horizon=1.0)
        step, calls = measures.ou_step, []

        def counted(*args, **kwargs):
            calls.append(args[3] is None)
            return step(*args, **kwargs)

        monkeypatch.setattr(measures, "ou_step", counted)
        tightness_diagnostic(cfg, rate=2.0, horizon=1.0)
        # 50 steps of 0.02; without noise the update is the standalone one
        assert calls == [sigma == 0.0] * 50

    def test_rate_guard(self, basis16, coupling16, pairs16):
        cfg = linear_config(basis16, coupling16, pairs16)
        with pytest.raises(ConfigurationError):
            tightness_diagnostic(cfg, rate=0.1, horizon=10.0)

    def test_unit_energy_run_confined(self, basis16, coupling16, pairs16):
        gamma = 0.5
        sigma = sigma_for_stationary_l2(pairs16, 32, 2.0, gamma)
        noise = make_noise(pairs16, 32, 2.0, sigma)
        cfg = SimConfig(pairs=pairs16,
                        noise=noise, gamma=gamma, viscosity=0.0, dt=0.01,
                        horizon=1.0, nonlinear=True, init="zero", seed=3)
        rep = tightness_diagnostic(cfg, rate=2.0, horizon=60.0)
        assert rep.trend_ok
        assert np.all(np.diff(rep.fractions) >= 0)
        assert rep.fractions[-1] == 1.0
