import numpy as np
import pytest

from qbounce.basis import build_basis

from helpers import quadrature_z_columns


@pytest.fixture(scope="session")
def basis20():
    return build_basis(20)


@pytest.fixture(scope="session")
def basis50():
    return build_basis(50)


@pytest.fixture(scope="session")
def z_quadrature50(basis50):
    """<i|z|j> of ``basis50`` by adaptive quadrature (oracle for Z)."""
    return quadrature_z_columns(basis50)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
