#!/usr/bin/env python3
"""False-failure rate and power of the ensemble_linear_n12 pairsq gate.

    python3 perfbench/gate_rates.py [--draws 200000] [--seed 0]

One path's pairsq average is the quadratic form a . x^2 of the Gaussian
vector x ~ N(0, C) that `EnsembleLinear.quadratic_form` gives, so it is
distributed as sum_i l_i z_i^2 with l_i the eigenvalues of
A^(1/2) C A^(1/2).  The mean over the paths is sum_i l_i chi2_P / P, and
the five labels are independent.  This script draws that distribution
directly (no simulation of the program), applies the gate's two tests,
and prints how often a correct program fails, and how many pooled
standard errors a program off by a constant factor in variance is away.
"""

import argparse
import math

import numpy as np

from workloads import KB_LABEL_STDERRS, KB_POOLED_STDERRS, WORKLOADS

LABELS = 5
CHUNK = 2000


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    wl = WORKLOADS["ensemble_linear_n12"]
    a, cov = wl.quadratic_form()
    root = np.sqrt(a)
    eig = np.linalg.eigvalsh(root[:, None] * cov * root[None, :])[::-1]
    mean, stderr = wl.expected()
    rel = stderr / mean
    pooled_err = rel / math.sqrt(LABELS)
    # Keep the eigenvalues that carry all but 1e-7 of the variance; the
    # rest enter through their mean.
    keep = int(np.searchsorted(np.cumsum(eig**2) / np.sum(eig**2),
                               1 - 1e-7)) + 1
    head, tail = eig[:keep], float(np.sum(eig[keep:]))
    rng = np.random.default_rng(args.seed)
    label_fail = pooled_fail = either = draws = 0
    while draws < args.draws:
        chi2 = rng.chisquare(wl.PATHS, size=(CHUNK, LABELS, keep))
        ratio = (chi2 @ head / wl.PATHS + tail) / mean
        by_label = np.any(np.abs(ratio - 1) > KB_LABEL_STDERRS * rel, axis=1)
        pooled = (np.abs(ratio.mean(axis=1) - 1)
                  > KB_POOLED_STDERRS * pooled_err)
        label_fail += int(by_label.sum())
        pooled_fail += int(pooled.sum())
        either += int((by_label | pooled).sum())
        draws += CHUNK
    print(f"exact mean {mean:.6g} (c_k = 1), relative stderr per label "
          f"{rel:.4f}, pooled over {LABELS} labels {pooled_err:.4f}")
    print(f"{draws} simulated runs of a correct program:")
    print(f"  a label beyond {KB_LABEL_STDERRS:g} stderr: {label_fail}")
    print(f"  pooled ratio beyond {KB_POOLED_STDERRS:g} stderr: {pooled_fail}")
    print(f"  gate fails: {either} (rate {either / draws:.2e})")
    for factor in (0.25, 0.5, 0.8, 1.25, 2.0):
        print(f"variance x{factor:g}: pooled ratio "
              f"{abs(factor - 1) / pooled_err:.1f} stderr from 1")


if __name__ == "__main__":
    main()
