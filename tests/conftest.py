import threading

import numpy as np
import pytest

from layerqg import dynamics, rng as rngmod
from layerqg.coupling import eigenpairs, symmetrize
from layerqg.noise import make_noise
from layerqg.spectral import build_basis, single_mode_field


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


def eigenpair_field(pairs, k):
    """rho_k of a set of eigenpairs as a LayerField, made from its mode
    (n_k, m_k) and vector v_k, not through the `flat_index` the package
    gathers with."""
    return single_mode_field(pairs.basis, pairs.mode_n[k], pairs.mode_m[k],
                             pairs.vec[k])


def random_band_coeffs(rng, basis, decay=1.0):
    """Random spectral layer coefficients with smooth falloff."""
    raw = rng.standard_normal((3,) + basis.spectral_shape)
    return raw / (1.0 + basis.eigenvalues) ** decay


def run_with_snapshots(config, streams=(0,), initial=None, observables=(),
                       threads=1):
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
                                  initial, sink=sink, threads=threads)
    batches.sort(key=lambda batch: -len(batch[0][1]))
    q = np.concatenate([[q for _, q in batch] for batch in batches], axis=1)
    return records, np.array([t for t, _ in batches[0]]), q


class FixedNormals:
    """A stand-in for a generator of `rng.stream` that hands out preset
    normals in order: `standard_normal(out=)` fills `out` with the next
    out.size of them, as the stepping loop draws its blocks."""

    def __init__(self, normals):
        self._normals = np.ravel(normals)
        self._used = 0

    def standard_normal(self, *, out):
        end = self._used + out.size
        out[...] = self._normals[self._used:end].reshape(out.shape)
        self._used = end
        return out


def coarse_normals(fine, factor):
    """The (n / factor, K) normals that drive a step of `factor` fine
    steps on the same Brownian path as the (n, K) normals `fine`: each
    coarse increment is the sum of its fine ones, and the loop scales
    both by c_k sqrt(its dt)."""
    n, k = fine.shape
    return fine.reshape(n // factor, factor, k).sum(axis=1) / np.sqrt(factor)


def on_normals(monkeypatch, normals, run):
    """`run()` with every `rng.stream` generator a FixedNormals of
    `normals`: a dt-refinement check drives its runs with the normals of
    one Brownian path.  Anything else that draws from a stream, such as
    a lowband initial datum, must be made before."""
    with monkeypatch.context() as patch:
        patch.setattr(rngmod, "stream",
                      lambda seed, stream: FixedNormals(normals))
        return run()
