"""Eigenbasis construction: orthonormality, matrix elements, units."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qbounce import basis as basis_module
from qbounce.airy import airy_ai
from qbounce.basis import (BasisProjectionError, QuadratureError, UnitSystem,
                           _overlap_integrals, build_basis)

from helpers import (eval_eigenstate, gauss_kronrod_overlaps,
                     quadrature_z_columns, transition_frequencies)


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
        psi[:, i - 1] = eval_eigenstate(basis50, i, zs)
    weights = np.full(len(zs), zs[1] - zs[0])
    weights[0] = weights[-1] = 0.5 * (zs[1] - zs[0])  # trapezoid rule
    gram = psi.T @ (psi * weights[:, None])
    assert np.max(np.abs(gram - np.eye(basis50.m))) < 1e-7


def test_eigenfunctions_satisfy_stationary_equation(basis20):
    """-psi'' + z psi = z_i psi, second derivative by central differences."""
    h = 1e-3
    z = np.linspace(1.0, 12.0, 23)
    for i in (1, 3, 10):
        psi = eval_eigenstate(basis20, i, z)
        d2 = (eval_eigenstate(basis20, i, z + h) - 2 * psi
              + eval_eigenstate(basis20, i, z - h)) / h ** 2
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
    v_c, vt_c = basis50.v_complex, basis50.vt_complex
    assert np.max(np.abs((v * lam) @ v.T - basis50.z_matrix)) < 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(basis50.m))) < 1e-13
    assert np.array_equal(v_c, v) and np.array_equal(vt_c, v.T)
    assert v_c.flags.c_contiguous and vt_c.flags.c_contiguous
    for a in (v, lam, v_c, vt_c):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_transition_frequencies(basis20):
    w = transition_frequencies(basis20)
    assert w[0] == pytest.approx(1.7498420336710, abs=1e-10)
    assert len(w) == 19


def test_eval_eigenstate_vanishes_at_floor(basis20):
    for i in (1, 5, 20):
        assert abs(eval_eigenstate(basis20, i, 0.0)) < 1e-11


def test_eval_eigenstate_rejects_negative_height(basis20):
    with pytest.raises(ValueError):
        eval_eigenstate(basis20, 1, -0.5)
    with pytest.raises(IndexError):
        eval_eigenstate(basis20, 21, 1.0)


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


@pytest.mark.filterwarnings("ignore:captured norm")
@pytest.mark.parametrize("m,mu,sigma", [
    (150, 20.0, 8.0), (100, 20.0, 8.0), (50, 20.0, 8.0), (50, 10.0, 2.0),
    (50, 3.0, 1.5), (20, 15.0, 1.0)])
def test_project_gaussian_matches_gauss_kronrod_oracle(m, mu, sigma):
    """The Gauss-Legendre panels against the G7/K15 loop on the same window."""
    basis = build_basis(m)
    coeffs, captured = basis.project_gaussian(mu, sigma)
    amp = (2.0 / (math.pi * sigma ** 2)) ** 0.25
    half = basis_module._PACKET_SIGMAS * sigma
    oracle = gauss_kronrod_overlaps(
        basis.zeros, basis.norms,
        lambda z: amp * np.exp(-((z - mu) / sigma) ** 2),
        max(0.0, mu - half), min(basis.z_max, mu + half))
    assert np.max(np.abs(coeffs * math.sqrt(captured) - oracle)) <= 1e-13


def test_projection_evaluates_a_third_of_the_old_airy_pairs(monkeypatch):
    """The fig2 packet at M = 150 takes at most 160500 (x, state) pairs of
    Ai, a third of the G7/K15 loop's 481500."""
    pairs = []

    def counted(x):
        pairs.append(np.size(x))
        return airy_ai(x)

    monkeypatch.setattr(basis_module, "airy_ai", counted)
    build_basis(150).project_gaussian(20.0, 8.0)
    assert 0 < sum(pairs) <= 160_500


def test_project_gaussian_working_set_is_bounded():
    """At M = 150 the traced peak of a projection stays under 4 MB: the
    Airy values of one chunk of panels, ``_CHUNK_ELEMENTS`` doubles, and
    the panel sums (9.5 MB at four times the chunk)."""
    basis = build_basis(150)
    tracemalloc.start()
    try:
        basis.project_gaussian(20.0, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_unconverged_overlap_names_its_state(basis20, monkeypatch):
    """Only state 3 is nonzero, and a step in the integrand cannot converge
    within 8 panels."""
    monkeypatch.setattr(basis_module, "_MAX_PANELS", 8)
    norms = np.where(np.arange(basis20.m) == 2, basis20.norms, 0.0)
    with pytest.raises(QuadratureError,
                       match=r"overlap with state 3 did not converge: "
                             r"error .* > tol 1\.000e-12"):
        _overlap_integrals(basis20.zeros, norms,
                           lambda z: np.where(z < 3.3, 1.0, 0.0),
                           0.0, basis20.z_max)


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    """The Gauss-Legendre rule is built on first use, so commands that
    project nothing do not pay numpy.polynomial's import time and memory."""
    code = "import sys, qbounce.cli; print('numpy.polynomial' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.stdout.strip() == "False"


def test_project_gaussian_rejects_unrepresentable(basis20):
    # packet centered far above the highest basis state
    with pytest.raises(BasisProjectionError):
        basis20.project_gaussian(200.0, 2.0)


@pytest.mark.parametrize("sigma", [1e-160, 1e-200, 1e-155])
def test_project_gaussian_rejects_an_underflowing_width(basis20, monkeypatch,
                                                        sigma):
    """sigma^2 below the smallest normal double (subnormal or 0.0): a
    ValueError naming sigma_z, before any integral is taken."""
    monkeypatch.setattr(basis_module, "_overlap_integrals", None)
    with pytest.raises(ValueError, match=f"sigma_z = {sigma!r} underflows"):
        basis20.project_gaussian(5.0, sigma)


def test_non_finite_integrand_stops_the_refinement(basis20):
    """A NaN integrand ends the refinement at once instead of bisecting
    until the panel limit."""
    with pytest.raises(QuadratureError, match="error nan"):
        _overlap_integrals(basis20.zeros, basis20.norms,
                           lambda x: np.full_like(x, np.nan), 0.0, 10.0)


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


@pytest.mark.parametrize("mass,gravity", [(1e-300, 9.8), (1e300, 9.8),
                                          (1e-27, 1e-300), (1e-27, math.inf),
                                          (math.nan, 9.8)])
def test_scales_outside_the_float_range_are_rejected(mass, gravity):
    """m^2 g under- or overflowing, or a nan, is a ValueError, not an
    ArithmeticError or an infinite scale."""
    with pytest.raises(ValueError, match="float range"):
        UnitSystem(mass=mass, gravity=gravity)
