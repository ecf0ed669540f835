"""Eigenbasis construction: orthonormality, matrix elements, units."""

import math

import numpy as np
import pytest

from qbounce.basis import (BasisProjectionError, UnitSystem,
                           _overlap_integrals, build_basis)

from helpers import quadrature_z_columns


# ---------------------------------------------------------------- basis

def test_energies_are_airy_zero_magnitudes(basis20):
    assert basis20.zeros[0] == pytest.approx(2.3381074104597670, abs=1e-10)
    assert np.all(np.diff(basis20.zeros) > 0)


def test_orthonormality(basis50):
    """Gram matrix of the eigenfunctions equals the identity.

    Recomputes the overlaps <i|j> on a fixed fine grid, independently of
    the adaptive quadrature used for projections.
    """
    zs = np.linspace(0.0, basis50.z_max, 200001)
    psi = np.empty((len(zs), basis50.m))
    for i in range(1, basis50.m + 1):
        psi[:, i - 1] = basis50.eval_eigenstate(i, zs)
    weights = np.full(len(zs), zs[1] - zs[0])
    weights[0] = weights[-1] = 0.5 * (zs[1] - zs[0])  # trapezoid rule
    gram = psi.T @ (psi * weights[:, None])
    assert np.max(np.abs(gram - np.eye(basis50.m))) < 1e-7


def test_eigenfunctions_satisfy_stationary_equation(basis20):
    """-psi'' + z psi = z_i psi, second derivative by central differences."""
    h = 1e-3
    z = np.linspace(1.0, 12.0, 23)
    for i in (1, 3, 10):
        psi = basis20.eval_eigenstate(i, z)
        d2 = (basis20.eval_eigenstate(i, z + h) - 2 * psi
              + basis20.eval_eigenstate(i, z - h)) / h ** 2
        resid = -d2 + z * psi - basis20.zeros[i - 1] * psi
        # dominated by the O(h^2) truncation of the central difference
        assert np.max(np.abs(resid)) < 1e-5, f"state {i}"


def test_position_matrix_diagonal_closed_form(basis50, z_quadrature50):
    """<i|z|i> = 2 z_i / 3 against quadrature of the eigenfunctions."""
    diff = np.diag(basis50.z_matrix) - np.diag(z_quadrature50)
    assert np.max(np.abs(diff)) <= 1e-10


def test_position_matrix_offdiagonal_closed_form(basis50, z_quadrature50):
    """2 (-1)^(i+j+1) / (z_i - z_j)^2 against quadrature, signs included."""
    off = ~np.eye(basis50.m, dtype=bool)
    actual, expected = basis50.z_matrix[off], z_quadrature50[off]
    assert np.max(np.abs(actual - expected)) <= 1e-10
    assert np.array_equal(np.sign(actual), np.sign(expected))


@pytest.mark.parametrize("m, columns", [
    (6, range(6)),
    # every 10th column plus the first, middle and last pairs; the full
    # M = 150 oracle takes under a minute
    (150, sorted({*range(0, 150, 10), 0, 1, 74, 75, 148, 149})),
], ids=["M6", "M150"])
def test_position_matrix_matches_quadrature(m, columns):
    basis = build_basis(m)
    actual = basis.z_matrix[:, columns]
    expected = quadrature_z_columns(basis, columns)
    assert np.max(np.abs(actual - expected)) <= 1e-10
    assert np.array_equal(np.sign(actual), np.sign(expected))


def test_position_matrix_symmetric(basis50):
    assert np.array_equal(basis50.z_matrix, basis50.z_matrix.T)


def test_z_eigenpairs_rebuild_z_and_are_read_only(basis50):
    v, lam = basis50.z_eigvecs, basis50.z_eigvals
    assert np.max(np.abs((v * lam) @ v.T - basis50.z_matrix)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(basis50.m))) < 1e-13
    for a in (v, lam):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_transition_frequencies(basis20):
    w = basis20.transition_frequencies()
    assert w[0] == pytest.approx(1.7498420336710, abs=1e-10)
    assert len(w) == 19


def test_eval_eigenstate_vanishes_at_floor(basis20):
    for i in (1, 5, 20):
        assert abs(basis20.eval_eigenstate(i, 0.0)) < 1e-11


def test_eval_eigenstate_rejects_negative_height(basis20):
    with pytest.raises(ValueError):
        basis20.eval_eigenstate(1, -0.5)
    with pytest.raises(IndexError):
        basis20.eval_eigenstate(21, 1.0)


# ------------------------------------------------------------ projection

def test_project_gaussian_captures_packet(basis50):
    coeffs, captured = basis50.project_gaussian(20.0, 8.0)
    assert captured > 0.999
    assert np.sum(coeffs ** 2) == pytest.approx(1.0, abs=1e-12)
    # mean height of the packet ~ mu_z (small floor-truncation correction)
    mean_z = coeffs @ basis50.z_matrix @ coeffs
    assert mean_z == pytest.approx(20.0, abs=0.1)


@pytest.mark.parametrize("mu,sigma", [(20.0, 8.0), (10.0, 2.0), (3.0, 1.5)])
def test_project_gaussian_over_the_packet_support(basis50, mu, sigma):
    """Overlaps cut at 6.5 sigma from the packet's center against the whole
    basis window, within the quadrature tolerance (1e-12)."""
    coeffs, captured = basis50.project_gaussian(mu, sigma)
    amp = (2.0 / (math.pi * sigma ** 2)) ** 0.25
    full = _overlap_integrals(basis50.zeros, basis50.norms,
                              lambda z: amp * np.exp(-((z - mu) / sigma) ** 2),
                              0.0, basis50.z_max)
    assert np.max(np.abs(coeffs * math.sqrt(captured) - full)) < 1e-12


def test_project_gaussian_rejects_unrepresentable(basis20):
    # packet centered far above the highest basis state
    with pytest.raises(BasisProjectionError):
        basis20.project_gaussian(200.0, 2.0)


def test_project_gaussian_warns_on_marginal_capture(basis20):
    # narrow packet near the top of the M=20 energy range: ~98% captured
    with pytest.warns(UserWarning):
        basis20.project_gaussian(15.0, 1.0)


# ----------------------------------------------------------------- units

def test_neutron_scales_match_published_values():
    u = UnitSystem.neutron()
    assert u.z_g == pytest.approx(5.87e-6, rel=5e-3)
    assert u.t_g == pytest.approx(1.094e-3, rel=5e-3)
    assert u.E_g == pytest.approx(0.60e-12 * 1.602176634e-19, rel=1e-2)


def test_kick_amplitude_from_gradient():
    # 0.8 T/m on a neutron gives a_k close to one half
    u = UnitSystem.neutron()
    assert u.kick_amplitude(0.8) == pytest.approx(0.5, rel=0.1)


def test_unit_round_trip_identity():
    u = UnitSystem.neutron()
    for q in ("length", "time", "energy"):
        v = 1.2345678901234567
        assert u.from_si(u.to_si(v, q), q) == pytest.approx(v, rel=1e-14)


def test_unknown_quantity_rejected():
    with pytest.raises(ValueError):
        UnitSystem.neutron().to_si(1.0, "mass")
