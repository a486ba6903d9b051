import pytest

from hypverify.radial import make_radial_grid


@pytest.fixture(scope="session")
def grid12():
    """Workhorse radial grid for moderate-accuracy checks."""
    return make_radial_grid(rho_max=12.0, num_nodes=896)


@pytest.fixture(scope="session")
def grid_conv():
    """Grid for convolution checks: small enough that double integrals
    stay cheap, fine enough that the panel interpolant of the second
    factor keeps radial_convolution within 1.1e-11 of the Abel oracle
    and 1.3e-11 of the heat semigroup."""
    return make_radial_grid(rho_max=12.0, num_nodes=640)


@pytest.fixture(scope="session")
def sgrid40():
    """Spectral grid matched to grid12: resolves phases up to
    lam_max * rho_max / 2 with margin."""
    from hypverify.spectral import make_spectral_grid

    return make_spectral_grid(lam_max=40.0, num_nodes=1024)
