#!/usr/bin/env python3
"""Time-averaged observables over nested horizons, plus the long-run
confinement diagnostic.

For the advection-free system each eigenpair coordinate is an exact
scalar Ornstein-Uhlenbeck process, so the time average of <q, rho_k>^2
must approach c_k^2 / (2 gamma); the script prints that comparison, then
repeats the averaging for the full nonlinear system, and finally runs the
confinement diagnostic (sup-norm trend over thirds, time-fraction table).

Usage: python scripts/invariant_measure_study.py [--paths P]
"""

import argparse

import layerqg as L
from layerqg.dynamics import SimConfig, obs_pairing

N = 12
GAMMA = 0.5


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=8)
    args = parser.parse_args()

    basis = L.build_basis(1.0, 1.0, N, N)
    coupling = L.symmetrize((1.0, 1.0, 1.0), basis)
    pairs = L.eigenpairs(coupling, basis, 3 * N * N)
    noise = L.make_noise(pairs, 32, 2.0, 1.0)
    horizon = 200.0 / GAMMA

    for nonlinear in (False, True):
        label = "nonlinear" if nonlinear else "linear"
        cfg = SimConfig(basis=basis, coupling=coupling, pairs=pairs,
                        noise=noise, gamma=GAMMA, viscosity=0.0, dt=0.01,
                        horizon=horizon, nonlinear=nonlinear, init="zero",
                        seed=2024, obs_every=2)
        obs = [obs_pairing(pairs, k, square=True) for k in range(4)]
        measures = L.kb_average(cfg, [horizon / 4, horizon / 2, horizon],
                                obs, n_paths=args.paths)
        print(f"{label} system, horizons {[m.horizon for m in measures]}")
        final = measures[-1]
        for k in range(4):
            target = noise.c[k] ** 2 / (2 * GAMMA)
            print(f"  mode {k}: avg {final.means[k]:.4e} "
                  f"+- {final.stderrs[k]:.1e}   OU target {target:.4e}")

    sigma = L.sigma_for_stationary_l2(pairs, 32, 2.0, GAMMA)
    noise_cal = L.make_noise(pairs, 32, 2.0, sigma)
    cfg = SimConfig(basis=basis, coupling=coupling, pairs=pairs,
                    noise=noise_cal, gamma=GAMMA, viscosity=0.0, dt=5e-3,
                    horizon=1.0, nonlinear=True, init="zero", seed=2024)
    rep = L.tightness_diagnostic(cfg, rate=2.0, horizon=100.0 / GAMMA)
    print(f"\nconfinement diagnostic at unit stationary energy "
          f"(sigma={sigma:.1f})")
    print(f"  sup ||q||_inf = {rep.sup_q_inf:.3f}, thirds {rep.thirds}")
    print(f"  no increasing trend: {rep.trend_ok}")
    print("  fraction of time below radius:")
    for r, f in zip(rep.radii, rep.fractions):
        print(f"    R={r:7.3f}: {f:.3f}")


if __name__ == "__main__":
    main()
