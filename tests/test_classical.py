"""Classical bouncer ensemble: analytic flight, sampling, kicks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbounce import classical
from qbounce.classical import (ClassicalEnsemble, ballistic_flight,
                               mean_height_series, particle_energy,
                               propagate, sample_initial)
from qbounce.pulses import KickPulse

from helpers import bounce_flight, walk_mean_height_series

FIG1_PULSE = KickPulse(0.5, 0.5, 60.0)


def assert_same_states(z1, v1, z2, v2, tol):
    """Equal phase-space points; on the floor v = -u and v = +u are one point."""
    assert np.max(np.abs(z1 - z2)) < tol
    on_floor = np.minimum(z1, z2) < tol
    dv = np.where(on_floor, np.abs(np.abs(v1) - np.abs(v2)), np.abs(v1 - v2))
    assert np.max(dv) < tol


# ------------------------------------------------------------- sampling

def test_sample_mean_within_standard_error():
    n = 20000
    ens = sample_initial(n, 20.0, 0.0, 4.0, 0.125, seed=11)
    assert abs(ens.z.mean() - 20.0) < 3 * 4.0 / math.sqrt(n)
    assert abs(ens.v.mean()) < 3 * 0.125 / math.sqrt(n)


def test_sample_deterministic_for_fixed_seed():
    a = sample_initial(500, 20.0, 0.0, 4.0, 0.125, seed=42)
    b = sample_initial(500, 20.0, 0.0, 4.0, 0.125, seed=42)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.v, b.v)


def test_sample_degenerate_velocity_width():
    ens = sample_initial(100, 20.0, 1.5, 4.0, 0.0, seed=1)
    assert np.all(ens.v == 1.5)


def test_sample_rejects_heavy_floor_leakage():
    with pytest.raises(ValueError):
        sample_initial(1000, 0.1, 0.0, 5.0, 0.1, seed=1)


def test_sample_redraws_stay_above_floor():
    ens = sample_initial(5000, 4.0, 0.0, 3.0, 0.1, seed=5)
    assert np.all(ens.z >= 0)
    assert ens.n == 5000


# ------------------------------------------------------- ballistic flight

def test_drop_from_rest_bounce_period():
    # drop from z=20: floor hit at sqrt(20), back at apex at 2 sqrt(20)
    t_half = math.sqrt(20.0)
    z, v = ballistic_flight([20.0], [0.0], t_half)
    assert z[0] == pytest.approx(0.0, abs=1e-12)
    z, v = ballistic_flight([20.0], [0.0], 2 * t_half)
    assert z[0] == pytest.approx(20.0, abs=1e-10)
    assert v[0] == pytest.approx(0.0, abs=1e-10)


def test_energy_conserved_through_many_bounces():
    rng = np.random.default_rng(3)
    z0 = rng.uniform(1.0, 30.0, 2000)
    v0 = rng.uniform(-5.0, 5.0, 2000)
    e0 = particle_energy(z0, v0)
    z1, v1 = ballistic_flight(z0, v0, 137.7)
    e1 = particle_energy(z1, v1)
    assert np.max(np.abs(e1 / e0 - 1.0)) < 1e-10


def test_heights_never_negative_after_flight():
    rng = np.random.default_rng(4)
    z, v = ballistic_flight(rng.uniform(0.0, 10.0, 500),
                            rng.uniform(-4.0, 4.0, 500), 23.1)
    assert np.all(z >= 0)


def test_particle_at_rest_on_floor_stays():
    z, v = ballistic_flight([0.0], [0.0], 5.0)
    assert z[0] == 0.0 and v[0] == 0.0


def test_phase_space_volume_preserved():
    """Jacobian determinant of the bounce-free-interval map is 1."""
    T, h = 13.3, 1e-6
    for z0, v0 in [(17.0, 1.3), (5.0, -2.0), (25.0, 0.0)]:
        zp, vp = ballistic_flight([z0 + h], [v0], T)
        zm, vm = ballistic_flight([z0 - h], [v0], T)
        dz_dz, dv_dz = (zp[0] - zm[0]) / (2 * h), (vp[0] - vm[0]) / (2 * h)
        zp, vp = ballistic_flight([z0], [v0 + h], T)
        zm, vm = ballistic_flight([z0], [v0 - h], T)
        dz_dv, dv_dv = (zp[0] - zm[0]) / (2 * h), (vp[0] - vm[0]) / (2 * h)
        det = dz_dz * dv_dv - dz_dv * dv_dz
        assert det == pytest.approx(1.0, abs=1e-6), (z0, v0)


@settings(max_examples=200, deadline=None)
@given(z=st.floats(0.0, 50.0), v=st.floats(-15.0, 15.0),
       dt=st.floats(0.0, 200.0))
def test_flight_matches_bounce_by_bounce_oracle(z, v, dt):
    assume(v * v + 4.0 * z >= 0.25)  # at most 400 bounces for the oracle
    assert_same_states(*ballistic_flight([z], [v], dt),
                       *bounce_flight([z], [v], dt), 1e-10)


@pytest.mark.parametrize("v0", [-1.5, 1.5])
@pytest.mark.parametrize("dt", [0.7, 2.5, 41.3])
def test_flight_from_the_floor_matches_oracle(v0, dt):
    assert_same_states(*ballistic_flight([0.0], [v0], dt),
                       *bounce_flight([0.0], [v0], dt), 1e-10)


def test_zero_time_flight_is_identity():
    rng = np.random.default_rng(6)
    z0 = np.r_[rng.uniform(0.0, 30.0, 500), 0.0]
    v0 = np.r_[rng.uniform(-8.0, 8.0, 500), 2.0]
    z, v = ballistic_flight(z0, v0, 0.0)
    assert np.max(np.abs(z - z0)) < 1e-12 and np.max(np.abs(v - v0)) < 1e-12
    # a particle arriving at the floor comes back as leaving it
    z, v = ballistic_flight([0.0], [-2.0], 0.0)
    assert z[0] == 0.0 and v[0] == 2.0


def test_flight_splits_in_time():
    rng = np.random.default_rng(7)
    z0, v0 = rng.uniform(0.0, 30.0, 2000), rng.uniform(-8.0, 8.0, 2000)
    for a, b in [(0.3, 0.4), (13.1, 77.7), (100.0, 99.9)]:
        assert_same_states(*ballistic_flight(*ballistic_flight(z0, v0, a), b),
                           *ballistic_flight(z0, v0, a + b), 1e-10)


def test_flight_energy_conserved_to_rounding():
    rng = np.random.default_rng(8)
    z0, v0 = rng.uniform(0.0, 30.0, 2000), rng.uniform(-8.0, 8.0, 2000)
    e0 = particle_energy(z0, v0)
    for dt in (0.5, 37.3, 200.0):
        e1 = particle_energy(*ballistic_flight(z0, v0, dt))
        assert np.max(np.abs(e1 / e0 - 1.0)) < 1e-12


# ------------------------------------------------------------- propagate

def test_zero_amplitude_pulse_is_ballistic():
    ens = sample_initial(300, 20.0, 0.0, 4.0, 0.125, seed=9)
    kicked = propagate(ens, 30.0, [KickPulse(0.0, 0.5, 15.0)])
    free = propagate(ens, 30.0, [])
    assert np.allclose(kicked.z, free.z, rtol=0, atol=1e-9)
    assert np.allclose(kicked.v, free.v, rtol=0, atol=1e-9)


def test_propagate_conserves_count_and_floor():
    ens = sample_initial(1000, 20.0, 0.0, 4.0, 0.125, seed=2)
    out = propagate(ens, 80.0, [KickPulse(0.5, 0.5, 40.0)])
    assert out.n == 1000
    assert np.all(out.z >= 0)
    assert out.time == 80.0


def test_propagate_flags_escaping_particles():
    ens = ClassicalEnsemble(np.array([5.0]), np.array([30.0]))
    with pytest.warns(UserWarning, match="z_cap"):
        propagate(ens, 10.0, [], z_cap=50.0)


def test_propagate_rejects_backwards_time():
    ens = sample_initial(10, 20.0, 0.0, 4.0, 0.125, seed=1)
    moved = propagate(ens, 5.0, [])
    with pytest.raises(ValueError):
        propagate(moved, 1.0, [])


def test_kick_changes_energy_only_inside_window():
    ens = sample_initial(200, 20.0, 0.0, 4.0, 0.125, seed=8)
    pulse = KickPulse(0.5, 0.5, 30.0)
    before = propagate(ens, pulse.window[0], [pulse])
    e_before = particle_energy(before.z, before.v)
    e_start = particle_energy(ens.z, ens.v)
    assert np.max(np.abs(e_before / e_start - 1.0)) < 1e-10
    after = propagate(before, pulse.window[1], [pulse])
    e_after = particle_energy(after.z, after.v)
    assert np.max(np.abs(e_after - e_before)) > 0.01  # kick did work


# ------------------------------------------------------- mean height

def test_mean_height_starts_at_mu_z():
    times = np.arange(0.0, 5.0, 0.5)
    series = mean_height_series(5000, 20.0, 0.0, 4.0, 0.125, 13,
                                [KickPulse(0.5, 0.5, 60.0)], times)
    for s in (1, -1):
        assert abs(series[s][0] - 20.0) < 3 * 4.0 / math.sqrt(5000)


def test_spin_branches_identical_before_kick():
    times = np.arange(0.0, 20.0, 1.0)
    series = mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 13,
                                [KickPulse(0.5, 0.5, 60.0)], times)
    assert np.array_equal(series[1], series[-1])


def test_series_matches_per_sample_walk(monkeypatch):
    """Closed-form stretches against one propagate per sample, old flight."""
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    series = mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 7, [FIG1_PULSE],
                                times)
    monkeypatch.setattr(classical, "ballistic_flight", bounce_flight)
    walk = walk_mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 7,
                                   [FIG1_PULSE], times)
    for s in (1, -1):
        assert np.max(np.abs(series[s] - walk[s])) < 1e-10


def test_series_lands_on_samples_inside_the_window():
    """Samples between lo and hi of the pulse window come from the stepper."""
    lo, hi = FIG1_PULSE.window
    times = np.array([0.0, 30.0, lo, lo + 0.05, 60.0, 61.7, hi, 90.0])
    series = mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 3, [FIG1_PULSE],
                                times, spins=(-1,))
    walk = walk_mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 3,
                                   [FIG1_PULSE], times, spins=(-1,))
    assert np.max(np.abs(series[-1] - walk[-1])) < 1e-10


def test_series_flags_escaping_particles():
    times = np.arange(0.0, 10.0, 0.5)
    with pytest.warns(UserWarning, match="z_cap"):
        mean_height_series(200, 1.0, 10.0, 0.1, 0.1, 4, [], times)


def test_series_without_escapes_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 4, [FIG1_PULSE],
                           np.arange(0.0, 100.0, 0.5))
