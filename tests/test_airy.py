"""Airy evaluation against mpmath and the analytic zero structure."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbounce import airy
from qbounce.airy import airy_ai, airy_ai_prime, airy_zeros
from qbounce.basis import build_basis

from helpers import series_ai

mpmath.mp.dps = 30


def _mp_ai(x):
    return np.array([float(mpmath.airyai(v)) for v in x])


def _mp_aip(x):
    return np.array([float(mpmath.airyai(v, 1)) for v in x])


def test_ai_values_dense_grid():
    # crosses the series/asymptotic switch at |x| = 8 in both directions
    x = np.linspace(-20.0, 20.0, 401)
    assert np.max(np.abs(airy_ai(x) - _mp_ai(x))) < 1e-12


def test_ai_prime_values_dense_grid():
    x = np.linspace(-20.0, 20.0, 401)
    assert np.max(np.abs(airy_ai_prime(x) - _mp_aip(x))) < 1e-12


def test_values_over_the_projection_range():
    # an M = 150 projection evaluates Ai from about -79 to +92
    x = np.linspace(-100.0, 100.0, 1001)
    assert np.max(np.abs(airy_ai(x) - _mp_ai(x))) < 1e-12
    assert np.max(np.abs(airy_ai_prime(x) - _mp_aip(x))) < 1e-12


# the Taylor nodes sit 1/8 apart on [-8, 8]; midpoints are farthest from one
_NODE_MIDPOINTS = list(np.arange(-8.0, 8.0, 0.125) + 0.0625)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=50))
@example(_NODE_MIDPOINTS)
@example([-8.0 - 1e-9, -8.0 + 1e-9, 8.0 - 1e-9, 8.0 + 1e-9])
def test_taylor_table_against_mpmath(x):
    x = np.array(x)
    assert np.max(np.abs(airy_ai(x) - _mp_ai(x))) < 1e-12
    assert np.max(np.abs(airy_ai_prime(x) - _mp_aip(x))) < 1e-12


def test_walked_node_values_against_mpmath():
    # the walk from x = 0 sets Ai and Ai' at every node; the Maclaurin
    # series it replaced was 6.9e-14 and 2.2e-13 off
    ai, aip = airy._TAYLOR[0][0], airy._TAYLOR[1][0]
    assert np.max(np.abs(ai - _mp_ai(airy._NODES))) < 3e-14
    assert np.max(np.abs(aip - _mp_aip(airy._NODES))) < 1e-13


def test_projection_matches_longdouble_series(monkeypatch):
    """The M = 150 Gaussian projection with Ai from the Taylor table and
    with Ai from the longdouble Maclaurin series, an independent oracle."""
    basis = build_basis(150)
    table, _ = basis.project_gaussian(20.0, 8.0)
    monkeypatch.setattr(airy, "_taylor_ai", series_ai)
    series, _ = basis.project_gaussian(20.0, 8.0)
    assert np.max(np.abs(table - series)) < 1e-13


def test_branch_crossover_is_seamless():
    x = np.array([-8.0 - 1e-9, -8.0 + 1e-9, 8.0 - 1e-9, 8.0 + 1e-9])
    assert np.max(np.abs(airy_ai(x) - _mp_ai(x))) < 1e-12


def test_scalar_input_returns_float():
    assert isinstance(airy_ai(1.0), float)
    assert isinstance(airy_ai_prime(-3.0), float)


def test_zero_dimensional_array_returns_float():
    for f in (airy_ai, airy_ai_prime):
        out = f(np.array(1.0))
        assert isinstance(out, float)
        assert out == f(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    for f in (airy_ai, airy_ai_prime):
        with pytest.raises(ValueError, match="non-finite"):
            f(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            f(bad)


def test_known_origin_values():
    assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-15)
    assert airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, abs=1e-15)


def test_zeros_against_mpmath():
    z = airy_zeros(400)
    for i in (0, 1, 5, 49, 199, 399):
        ref = float(-mpmath.airyaizero(i + 1))
        assert abs(z[i] - ref) < 1e-11, f"zero {i + 1}"


def test_zeros_are_roots():
    z = airy_zeros(60)
    assert np.max(np.abs(airy_ai(-z))) < 5e-12


def test_zero_spacing_shrinks_monotonically():
    # gap ~ pi/sqrt(z): strictly decreasing
    z = airy_zeros(200)
    gaps = np.diff(z)
    assert np.all(np.diff(gaps) < 0)


def test_zero_count_bounds():
    with pytest.raises(ValueError):
        airy_zeros(0)
    with pytest.raises(ValueError):
        airy_zeros(401)
