"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated budget.

The lines bypass pytest capture, so plain `pytest tests/test_acceptance.py`
shows them as the criteria finish.
"""

import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

import layerqg as L
from layerqg import rng as rngmod
from layerqg.cli import main as cli_main
from layerqg.dynamics import (PairingTable, SimConfig, nonlinear_term,
                              parse_observables, run_trajectory)
from layerqg.experiments import (lp_envelope, monitor_observables,
                                 w14_monitor, weak_residual)
from layerqg.noise import make_noise, ou_factors, ou_step, sample_path
from layerqg.spectral import LayerField, single_mode_field

from conftest import random_band_coeffs, run_with_snapshots

GAMMA = 0.5


_CAPTURE = None


@pytest.fixture(autouse=True)
def _report_outside_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(num, name, budget):
    tic = time.perf_counter()
    try:
        yield
    except Exception:
        _announce(f"ACCEPTANCE {num:2d} {name}: FAIL "
                  f"({time.perf_counter() - tic:.1f}s)")
        raise
    elapsed = time.perf_counter() - tic
    verdict = "PASS" if elapsed <= budget else "FAIL (over budget)"
    _announce(f"ACCEPTANCE {num:2d} {name}: {verdict} "
              f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed <= budget, f"runtime {elapsed:.1f}s over {budget}s budget"


def standard_setup(n, lambdas=(1.0, 1.0, 1.0), scale=1.0):
    basis = L.build_basis(1.0, 1.0, n, n)
    coupling = L.symmetrize(lambdas, basis, scale)
    pairs = L.eigenpairs(coupling, 3 * n * n)
    return basis, coupling, pairs


def test_criterion_1_elliptic_round_trip():
    from layerqg.coupling import apply_operator, solve_elliptic_coeffs
    with criterion(1, "elliptic round-trip", 5.0):
        for n in (32, 64):
            basis, coupling, _ = standard_setup(n, (1.0, 2.0, 4.0))
            rng = np.random.default_rng(1000 + n)
            for _ in range(100):
                q_hat = rng.standard_normal((3, n, n))
                back = apply_operator(coupling,
                                      solve_elliptic_coeffs(coupling, q_hat))
                norm_q = np.sqrt(np.sum(q_hat**2))
                assert np.sqrt(np.sum((back - q_hat) ** 2)) <= 1e-10 * norm_q


def test_criterion_2_transport_skew_symmetry():
    with criterion(2, "transport skew-symmetry", 10.0):
        basis, coupling, _ = standard_setup(32)
        from layerqg.coupling import solve_elliptic_coeffs
        rng = np.random.default_rng(2)
        for _ in range(100):
            q_hat = random_band_coeffs(rng, basis)
            psi_hat = solve_elliptic_coeffs(coupling, q_hat)
            term = nonlinear_term(LayerField.from_coeffs(basis, q_hat),
                                  LayerField.from_coeffs(basis, psi_hat))
            pairing = np.sum(term.spectral() * q_hat)
            u1, u2 = basis.perp_grad_grids(psi_hat)
            grad_psi_inf = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
            assert abs(pairing) <= 1e-8 * grad_psi_inf * np.sum(q_hat**2)


def test_criterion_3_single_mode_annihilation():
    with criterion(3, "single-mode Jacobian annihilation", 1.0):
        basis, _, _ = standard_setup(32)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            q = single_mode_field(basis, n, m, rng.standard_normal(3))
            psi = single_mode_field(basis, n, m, rng.standard_normal(3))
            out = nonlinear_term(q, psi).spectral()
            assert np.max(np.abs(out)) <= 1e-12


def test_criterion_4_exact_lp_decay():
    with criterion(4, "exact L^2k decay at sigma=0", 60.0):
        basis, coupling, pairs = standard_setup(32)
        noise = make_noise(pairs, 16, 2.0, 0.0)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=1e-3,
                        horizon=1.0, nonlinear=True, init="lowband:3:0.2:7",
                        seed=4)
        rec = run_trajectory(cfg, parse_observables("l2,l4,l8"))
        decay = np.exp(-GAMMA * rec.times)
        for name in ("l2", "l4", "l8"):
            series = rec.observables[name]
            ratio = series / (decay * series[0])
            assert np.all((ratio >= 1 - 1e-4) & (ratio <= 1 + 1e-4)), name


def test_criterion_5_ou_stationary_variance():
    with criterion(5, "OU stationary variance", 60.0):
        _, _, pairs = standard_setup(16)
        k = 32
        spec = make_noise(pairs, k, decay=1.0, sigma=1.0)
        lam_modes = pairs.spatial_eigenvalues[:k]
        n = 10_000
        for rate, seed in ((0.5, 50), (2.0, 51)):
            gen = rngmod.stream(seed, 0)
            dt = 3.0 / rate      # near-independent effective samples
            factors = ou_factors(rate, spec, dt, driven=False)
            zeta = np.zeros(k)
            samples = np.empty((n, k))
            for i in range(n):
                zeta = ou_step(zeta, factors, gen.standard_normal(k))
                samples[i] = zeta
            target = spec.c**2 / (2 * rate)
            emp = np.var(samples, axis=0)
            rho2 = np.exp(-2 * rate * dt)
            se = target * np.sqrt(2.0 / n * (1 + rho2) / (1 - rho2))
            assert np.all(np.abs(emp - target) <= 3 * se), f"rate {rate}"
            # aggregate second moments in L2 and H^{5/2}
            for alpha in (0.0, 2.5):
                weights = lam_modes**alpha
                agg = np.mean(np.sum(samples**2 * weights, axis=1))
                agg_target = np.sum(spec.c**2 * weights) / (2 * rate)
                agg_se = np.sqrt(np.sum(
                    (2 * (target * weights) ** 2) *
                    (1 + rho2) / (1 - rho2)) / n)
                assert abs(agg - agg_target) <= 3 * agg_se, \
                    f"aggregate alpha={alpha} rate={rate}"


def test_criterion_6_linear_kb_limit():
    with criterion(6, "linear Krylov-Bogoliubov limit", 120.0):
        basis, coupling, pairs = standard_setup(12)
        noise = make_noise(pairs, 32, 2.0, 1.0)
        horizon = 200.0 / GAMMA
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=0.01,
                        horizon=horizon, nonlinear=False, init="zero",
                        seed=2024, obs_every=2)
        # five largest coefficients sit at the smallest |mu|
        table = PairingTable(pairs)
        obs = [table.observable(k, square=True) for k in range(5)]
        measures = L.kb_average(cfg, [horizon], obs, n_paths=24)
        m = measures[0]
        for k in range(5):
            target = noise.c[k] ** 2 / (2 * GAMMA)
            assert abs(m.means[k] - target) <= 0.05 * target, f"mode {k}"


def test_criterion_7_vanishing_viscosity():
    with criterion(7, "vanishing-viscosity Cauchy proxy", 600.0):
        basis, coupling, pairs = standard_setup(32)
        noise = make_noise(pairs, 48, 2.0, 2.0)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.2, dt=2e-3,
                        horizon=1.0, nonlinear=True, init="lowband:3:1.0:11",
                        seed=7)
        report = L.viscosity_sweep(cfg, [0.2, 0.1, 0.05, 0.025])
        assert report.monotone_decreasing, report.distances
        est2 = report.extras["est2"]
        assert np.max(est2) / np.min(est2) <= 10.0, est2


def test_criterion_8_galerkin_refinement():
    with criterion(8, "Galerkin refinement", 600.0):
        basis, coupling, pairs = standard_setup(16)
        noise = make_noise(pairs, 48, 2.0, 2.0)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.05, dt=2e-3,
                        horizon=0.5, nonlinear=True, init="lowband:4:2.0:11",
                        seed=8)
        report = L.galerkin_sweep(cfg, [16, 32, 64])
        assert report.monotone_decreasing, report.distances


def test_criterion_9_yudovich_stability():
    with criterion(9, "Yudovich stability", 300.0):
        basis, coupling, pairs = standard_setup(32)
        noise = make_noise(pairs, 48, 2.0, 2.0)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=1e-3,
                        horizon=0.5, nonlinear=True, init="lowband:3:1.0:11",
                        seed=9, snap_every=1)
        pert = single_mode_field(basis, 2, 1, [1.0, 0.5, -1.0])
        report = L.yudovich_stability(cfg, [1e-1, 1e-2, 1e-3], pert)
        z = report.distances
        assert np.all(np.diff(z) < 0), z
        assert z[2] <= 0.1 * z[0], z
        # equal data: bitwise-identical trajectories, z identically zero
        path = sample_path(noise, cfg.n_steps, cfg.dt, rngmod.stream(9, 0))
        qa = run_with_snapshots(cfg, noise_path=path)[2]
        qb = run_with_snapshots(cfg, noise_path=path)[2]
        assert np.array_equal(qa, qb)


def test_criterion_10_weak_residual_convergence():
    with criterion(10, "weak-formulation residual convergence", 300.0):
        basis, coupling, pairs = standard_setup(16)
        noise = make_noise(pairs, 48, 2.0, 2.0)
        fine = sample_path(noise, 500, 1e-3, rngmod.stream(10, 0))
        rng = np.random.default_rng(100)
        phis = [LayerField.from_coeffs(basis, random_band_coeffs(rng, basis))
                for _ in range(5)]
        records = {}
        for dt, factor in ((2e-3, 2), (1e-3, 1)):
            cfg = SimConfig(pairs=pairs,
                            noise=noise, gamma=GAMMA, viscosity=0.0, dt=dt,
                            horizon=0.5, nonlinear=True,
                            init="lowband:3:1.0:11", seed=10)
            records[dt] = run_trajectory(
                cfg, observables=monitor_observables(basis,
                                                     test_functions=phis),
                noise_path=fine.coarsen(factor))
        coarse = weak_residual(records[2e-3], phis).max(axis=1)
        fine_r = weak_residual(records[1e-3], phis).max(axis=1)
        assert np.all(fine_r <= 0.6 * coarse), fine_r / coarse


def test_criterion_11_tightness_diagnostic():
    with criterion(11, "tightness diagnostic", 600.0):
        basis, coupling, pairs = standard_setup(16)
        sigma = L.sigma_for_stationary_l2(pairs, 48, 2.0, GAMMA)
        noise = make_noise(pairs, 48, 2.0, sigma)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=5e-3,
                        horizon=1.0, nonlinear=True, init="zero",
                        seed=20240809)
        report = L.tightness_diagnostic(cfg, rate=2.0,
                                        horizon=100.0 / GAMMA)
        assert report.thirds[2] <= 1.5 * report.thirds[0], report.thirds
        assert np.all(np.diff(report.fractions) >= 0)


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, "manifest-replay reproducibility", 120.0):
        cfg = tmp_path / "repro.cfg"
        cfg.write_text("modes_x=12\nmodes_y=12\ngamma=0.5\nsigma=1.0\n"
                       "nonlinearity=off\ndt=0.02\nhorizon=20\ninit=zero\n"
                       "observables=l2,l4,h1\n")
        digests = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            code = cli_main(["invariant", "--config", str(cfg), "--seed",
                             "12", "--out", str(out), "--horizons", "10,20",
                             "--paths", "8", "--threads", workers])
            assert code == 0
            digests.append(hashlib.sha256(
                (out / "invariant.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def test_criterion_13_envelope_dominance():
    with criterion(13, "a-posteriori envelope dominance", 300.0):
        basis, coupling, pairs = standard_setup(16)
        noise = make_noise(pairs, 48, 2.0, 2.0)
        cfg = SimConfig(pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=1e-3,
                        horizon=1.0, nonlinear=True, init="lowband:3:1.0:11",
                        seed=13, obs_every=2)
        rec = run_trajectory(cfg, observables=monitor_observables(
            basis, exponents=(2, 4, 6, 8)))
        for k in (1, 2, 3, 4):
            q_norm, env_q, _, _ = lp_envelope(rec, k)
            assert np.all(q_norm <= env_q * (1 + 1e-9) + 1e-12), f"L^{2*k}"
        w14 = w14_monitor(rec)
        assert w14.dominated
