import threading

import numpy as np
import pytest

from layerqg import dynamics
from layerqg.coupling import eigenpairs, symmetrize
from layerqg.noise import make_noise
from layerqg.spectral import build_basis


@pytest.fixture(scope="session")
def basis16():
    return build_basis(1.0, 1.0, 16, 16)


@pytest.fixture(scope="session")
def coupling16(basis16):
    return symmetrize((1.0, 1.0, 1.0), basis16, 1.0)


@pytest.fixture(scope="session")
def pairs16(coupling16):
    return eigenpairs(coupling16, 3 * 16 * 16)


@pytest.fixture(scope="session")
def quiet_noise(pairs16):
    """sigma = 0 noise over 16 retained pairs."""
    return make_noise(pairs16, 16, 2.0, 0.0)


def random_band_coeffs(rng, basis, decay=1.0):
    """Random spectral layer coefficients with smooth falloff."""
    raw = rng.standard_normal((3,) + basis.spectral_shape)
    return raw / (1.0 + basis.eigenvalues) ** decay


def run_with_snapshots(config, streams=(0,), initial=None, noise_path=None,
                       observables=(), threads=1):
    """(records, times, q) of one `dynamics._run_paths` call: its records
    of `observables`, and each path's q at the snapshot times of `config`
    (its snap_every) as a (S, P, 3, Nx, Ny) array, taken by the run's
    snapshot sink.  A batch's samples start at t = 0 in its thread; the
    batches are put in `_batches` order, the larger first, so a run pooled
    over `threads` needs batches of distinct sizes."""
    batches, current = [], threading.local()

    def sink(t, q):
        if t == 0:
            current.batch = []
            batches.append(current.batch)
        current.batch.append((t, q))

    records = dynamics._run_paths(config, list(observables), list(streams),
                                  initial, noise_path, sink=sink,
                                  threads=threads)
    batches.sort(key=lambda batch: -len(batch[0][1]))
    q = np.concatenate([[q for _, q in batch] for batch in batches], axis=1)
    return records, np.array([t for t, _ in batches[0]]), q
