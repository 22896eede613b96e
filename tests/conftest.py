import pytest

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
