"""Classical bouncer ensemble: analytic flight, sampling, kicks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbounce import classical
from qbounce.classical import (DEFAULT_STEPS_PER_SIGMA, ClassicalEnsemble,
                               ballistic_flight, mean_height_series,
                               sample_initial)
from qbounce.pulses import (KickPulse, forcing, merged_windows, run_steps,
                            whole_steps)
from qbounce.quantum import step_grid

from helpers import (_free_mean_height, _verlet, bounce_flight,
                     particle_energy, propagate, verlet_flight,
                     walk_mean_height_series)

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


# ---------------------------------------- propagate, the snapshot oracle

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


@pytest.mark.parametrize("t_to", [math.nan, math.inf])
def test_propagate_rejects_non_finite_time(t_to):
    ens = sample_initial(10, 20.0, 0.0, 4.0, 0.125, seed=1)
    with pytest.raises(ValueError, match="finite"):
        propagate(ens, t_to, [FIG1_PULSE])


def test_propagate_rejects_shake_pulses():
    ens = sample_initial(10, 20.0, 0.0, 4.0, 0.125, seed=1)
    with pytest.raises(ValueError, match="magnetic kicks only"):
        propagate(ens, 5.0, [KickPulse(0.5, 0.5, 2.0, "shake")])


def test_propagate_rejects_backwards_time():
    ens = sample_initial(10, 20.0, 0.0, 4.0, 0.125, seed=1)
    moved = propagate(ens, 5.0, [])
    with pytest.raises(ValueError):
        propagate(moved, 1.0, [])


@pytest.mark.parametrize("steps", [-3, 0, 2.5])
def test_propagate_needs_a_whole_positive_step_count(steps):
    ens = sample_initial(100, 20.0, 0.0, 4.0, 0.125, seed=3)
    with pytest.raises(ValueError, match="steps_per_sigma"):
        propagate(ens, 70.0, [FIG1_PULSE], steps_per_sigma=steps)


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


# ------------------------------------------------ kick windows in rounds

@st.composite
def kicked_windows(draw):
    """A merged window of one or two (overlapping) pulses, its stretches cut
    at random times (grids of unequal h), and particles, some on the floor."""
    spin = draw(st.sampled_from([1, -1]))
    width = draw(st.floats(0.1, 0.5))
    pulses = [KickPulse(draw(st.floats(0.0, 3.0)), width, 5.0)]
    if draw(st.booleans()):
        pulses.append(KickPulse(draw(st.floats(0.0, 3.0)),
                                draw(st.floats(0.1, 0.5)),
                                5.0 + draw(st.floats(-6.0, 6.0)) * width))
    (lo, hi, _), = merged_windows(pulses, 0.0, 20.0)
    cuts = draw(st.lists(st.floats(0.001, 0.999), max_size=6, unique=True))
    edges = np.unique(np.r_[lo, lo + (hi - lo) * np.array(cuts), hi])
    states = draw(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e-3), st.floats(0.0, 5.0)),
        st.floats(-5.0, 5.0)), min_size=1, max_size=20))
    z, v = np.array(states).T
    return pulses, spin, edges, z, v


_SLOW_PULSES = [KickPulse(1.3950006868088876, 0.45270362237565853, 5.0),
                KickPulse(0.974609375, 0.4807123577335163, 3.747991544367319)]


@settings(max_examples=60, deadline=None)
@given(case=kicked_windows())
# a slow bouncer (u = 0.24) kicked off the floor, whose chain of landings
# amplifies any rounding in them: with eps |P| lost to cancellation on each
# landing it read 6.3e-10 off
@example(case=(_SLOW_PULSES, 1,
               np.array(merged_windows(_SLOW_PULSES, 0.0, 20.0)[0][:2]),
               np.array([0.0008046939042005748]),
               np.array([0.23611430285773652])))
def test_kick_rounds_match_step_by_step_oracle(case):
    """Rounds of bounces against one Verlet step at a time (1e-10)."""
    pulses, spin, edges, z, v = case
    assume(np.all(v * v + 4.0 * z >= 0.04))  # away from micro-hops
    ours = classical._kick_flight(z, v, edges, pulses, spin, 20)
    ref = verlet_flight(z, v, edges, pulses, spin, 20)
    assert_same_states(*ours[:2], *ref[:2], 1e-10)
    assert np.max(np.abs(ours[2] - ref[2])) < 1e-10


def _count_rounds(monkeypatch):
    rounds = []
    split = classical._floor_split
    monkeypatch.setattr(classical, "_floor_split",
                        lambda *args: rounds.append(1) or split(*args))
    return rounds


@pytest.mark.parametrize("amplitude,spin", [(0.5, 1), (1.5, -1)])
def test_resting_particle_waits_out_a_weak_kick(monkeypatch, amplitude, spin):
    """Under a net downward force a particle at rest stays on the floor in
    one round; the step-by-step oracle micro-hops within a few h^2."""
    pulse = KickPulse(amplitude, 0.5, 10.0)
    edges = np.linspace(*pulse.window, 13)
    h = pulse.width / DEFAULT_STEPS_PER_SIGMA
    rounds = _count_rounds(monkeypatch)
    z, v, means = classical._kick_flight(np.zeros(1), np.zeros(1), edges,
                                         [pulse], spin, DEFAULT_STEPS_PER_SIGMA)
    assert len(rounds) <= 1 and z[0] == 0.0 and v[0] == 0.0
    assert np.all(means == 0.0)
    ref = verlet_flight(np.zeros(1), np.zeros(1), edges, [pulse], spin,
                        DEFAULT_STEPS_PER_SIGMA)
    assert abs(ref[0][0]) < 4 * h * h and abs(ref[1][0]) < 4 * h
    assert np.max(np.abs(ref[2])) < 4 * h * h


def test_resting_particle_lifts_off_when_the_force_turns_up(monkeypatch):
    """With a > 1 the net force turns upward mid-window: the particle rests
    until the first step that starts with a >= 0, then flies and bounces."""
    pulse = KickPulse(1.5, 0.5, 10.0)
    lo, hi = pulse.window
    h = pulse.width / DEFAULT_STEPS_PER_SIGMA
    rounds = _count_rounds(monkeypatch)
    z, v, _ = classical._kick_flight(np.zeros(1), np.zeros(1), [lo, hi],
                                     [pulse], 1, DEFAULT_STEPS_PER_SIGMA)
    assert len(rounds) <= 3 and z[0] >= 0.0
    n = whole_steps(hi - lo, h)  # the kernel's grid
    t = np.cumsum(np.r_[lo, np.full(n, (hi - lo) / n)])
    k = int(np.argmax(-2.0 + 2.0 * pulse.envelope(t) >= 0))
    # the oracle from rest at that step, on the rest of the same grid
    ref = _verlet(np.zeros(1), np.zeros(1), t[k], hi, [pulse], 1,
                  (hi - t[k]) / (n - k - 0.5))
    assert_same_states(z, v, *ref[:2], 1e-10)


# -------------------------------------------- free flight by bounce sums

def assert_flight_means_match_oracle(ens, times, tol=1e-12):
    ours = classical._flight_means(ens, times)
    ref = _free_mean_height(ens, times)
    assert np.max(np.abs(ours - ref)) < tol


@st.composite
def free_ensembles(draw):
    """Particles at rest, on the floor, near it and in flight, and an
    ascending sample grid from the ensemble time, evenly spaced or not."""
    states = draw(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e-3), st.floats(0.0, 50.0)),
        st.one_of(st.just(0.0), st.floats(-15.0, 15.0))),
        min_size=1, max_size=30))
    z, v = np.array(states).T
    t0 = draw(st.floats(0.0, 100.0))
    if draw(st.booleans()):
        times = t0 + draw(st.floats(0.0, 1.0)) + np.arange(
            draw(st.integers(1, 400))) * draw(st.floats(0.01, 0.5))
    else:
        times = t0 + np.unique(draw(st.lists(st.floats(0.0, 200.0),
                                             min_size=1, max_size=200)))
    return ClassicalEnsemble(z, v, time=t0), times


@settings(max_examples=150, deadline=None)
@given(case=free_ensembles())
# a block of span 2^-1023: its index scale (len - 1) / tau[-1] is ~9e307
@example(case=(ClassicalEnsemble(np.array([4.0]), np.array([0.0])),
               np.array([0.0, 2.0 ** -1023])))
def test_flight_means_match_sample_by_sample_oracle(case):
    assert_flight_means_match_oracle(*case)


def test_flight_means_of_the_fig1_ensemble_match_the_oracle():
    """n = 20000, both spins, before and after the kick, t in [0, 200]."""
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    for s in (1, -1):
        ens = sample_initial(20000, 20.0, 0.0, 4.0, 0.125, 7, spin=s)
        for start in (ens, propagate(ens, FIG1_PULSE.window[1], [FIG1_PULSE])):
            assert_flight_means_match_oracle(start, times[times >= start.time])


def test_flight_means_with_resting_particles():
    """Particles at z = v = 0 add 0 but count in the mean."""
    z, v = np.array([0.0, 7.0, 0.0, 3.0]), np.array([0.0, 1.5, 0.0, -2.0])
    times = np.linspace(0.0, 40.0, 333)
    ours = classical._flight_means(ClassicalEnsemble(z, v), times)
    moving = classical._flight_means(ClassicalEnsemble(z[1::2], v[1::2]),
                                     times)
    assert np.max(np.abs(ours - 0.5 * moving)) < 1e-13
    resting = ClassicalEnsemble(np.zeros(3), np.zeros(3))
    assert np.all(classical._flight_means(resting, times) == 0.0)


def test_flight_means_of_particles_on_the_floor():
    """Leaving (v > 0) and arriving (v < 0) at the floor: both leave it."""
    ens = ClassicalEnsemble(np.zeros(2), np.array([3.0, -5.0]))
    times = np.linspace(0.0, 30.0, 301)
    exact = np.mean([ballistic_flight(ens.z, ens.v, t)[0] for t in times],
                    axis=1)
    ours = classical._flight_means(ens, times)
    assert np.max(np.abs(ours - exact)) < 1e-12
    assert_flight_means_match_oracle(ens, times)


def test_flight_means_on_bounce_times():
    """From z = 4 at rest (u = 4): bounces at t = 2, 6, 10 exactly, and
    z = (t - t_k)(4 - t + t_k) after the bounce at t_k."""
    ens = ClassicalEnsemble(np.array([4.0]), np.array([0.0]))
    times = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 10.0, 10.5])
    exact = np.array([4.0, 3.0, 0.0, 3.0, 0.0, 0.0, 1.75])
    ours = classical._flight_means(ens, times)
    assert np.max(np.abs(ours - exact)) < 1e-13


def test_flight_means_at_the_ensemble_time_and_one_sample():
    ens = propagate(sample_initial(500, 20.0, 0.0, 4.0, 0.125, seed=2),
                    71.3, [FIG1_PULSE])
    at_start = classical._flight_means(ens, np.array([ens.time]))
    assert abs(at_start[0] - ens.z.mean()) < 1e-12
    assert_flight_means_match_oracle(ens, np.array([ens.time + 37.9]))


@pytest.mark.parametrize("step", [0.01, 0.1, 7.3])
def test_flight_means_across_many_blocks(step):
    """Grids limited by the block's sample count, by its span, and sparse."""
    ens = sample_initial(3000, 20.0, 0.0, 4.0, 0.125, seed=5)
    times = np.arange(0.0, 200.0, step)
    blocks = max(len(times) / classical._BLOCK_SAMPLES,
                 times[-1] / classical._BLOCK_SPAN)
    assert blocks > 10
    assert_flight_means_match_oracle(ens, times)


def test_flight_means_of_particles_faster_than_the_samples():
    """Periods below the sample step are summed sample by sample."""
    z, v = np.array([1e-6, 2e-4, 12.0]), np.array([0.0, -0.01, 1.0])
    times = np.arange(0.0, 50.0, 0.5)
    assert_flight_means_match_oracle(ClassicalEnsemble(z, v), times)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.floats(1e-3, 5.0), max_size=300),
       keys=st.lists(st.floats(-10.0, 400.0), min_size=1, max_size=50))
def test_locate_matches_searchsorted(steps, keys):
    tau = np.cumsum(np.r_[0.0, steps])
    keys = np.array(keys + [0.0, float(tau[-1])] + tau[::7].tolist())
    assert np.array_equal(classical._locate(tau, keys),
                          np.searchsorted(tau, keys))


@pytest.mark.parametrize("last", [5e-324, 1e-310, 1e-300])
def test_locate_on_a_subnormal_span(last):
    """A span of a few subnormals would overflow the index scale."""
    tau = np.array([0.0, 0.5 * last, last])
    keys = np.array([-1.0, 0.0, 0.25 * last, 0.5 * last, last, 1.0])
    assert np.array_equal(classical._locate(tau, keys),
                          np.searchsorted(tau, keys))


# ------------------------------------------------------- mean height

def test_mean_height_starts_at_mu_z():
    times = np.arange(0.0, 5.0, 0.5)
    series = mean_height_series(5000, 20.0, 0.0, 4.0, 0.125, 13,
                                [KickPulse(0.5, 0.5, 60.0)], times)
    for s in (1, -1):
        assert abs(series[s][0][0] - 20.0) < 3 * 4.0 / math.sqrt(5000)


def test_spin_branches_identical_before_kick():
    times = np.arange(0.0, 20.0, 1.0)
    series = mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 13,
                                [KickPulse(0.5, 0.5, 60.0)], times)
    assert np.array_equal(series[1][0], series[-1][0])


def test_series_matches_per_sample_walk(monkeypatch):
    """Closed-form stretches against one propagate per sample, old flight."""
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    series = mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 7, [FIG1_PULSE],
                                times)
    monkeypatch.setattr(classical, "ballistic_flight", bounce_flight)
    walk = walk_mean_height_series(2000, 20.0, 0.0, 4.0, 0.125, 7,
                                   [FIG1_PULSE], times)
    for s in (1, -1):
        assert np.max(np.abs(series[s][0] - walk[s])) < 1e-10


def test_series_lands_on_samples_inside_the_window():
    """Samples between lo and hi of the pulse window come from the stepper."""
    lo, hi = FIG1_PULSE.window
    times = np.array([0.0, 30.0, lo, lo + 0.05, 60.0, 61.7, hi, 90.0])
    series = mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 3, [FIG1_PULSE],
                                times, spins=(-1,))
    walk = walk_mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 3,
                                   [FIG1_PULSE], times, spins=(-1,))
    assert np.max(np.abs(series[-1][0] - walk[-1])) < 1e-10


@pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [],
                                   [0.0, 1.0, math.inf], [0.0, 2.0, 1.0]])
def test_series_rejects_bad_sample_times(times):
    with pytest.raises(ValueError, match="sample times"):
        mean_height_series(100, 20.0, 0.0, 4.0, 0.125, 1, [FIG1_PULSE],
                           np.array(times))


def test_snapshot_past_a_window_across_the_samples_leaves_the_series():
    """The fig1 kick window [57, 63] with samples up to t = 60 and a
    snapshot at 70: the walk steps [57, 60] on the samples and [60, 63]
    apart, so the series is bit for bit the one without the snapshot (one
    stepper run over [57, 63] moved a sample of spin -1 by an ulp)."""
    times = np.arange(0.0, 60.0 + 1e-9, 0.1)
    plain = mean_height_series(20000, 20.0, 0.0, 4.0, 0.125, 7, [FIG1_PULSE],
                               times)
    snapped = mean_height_series(20000, 20.0, 0.0, 4.0, 0.125, 7,
                                 [FIG1_PULSE], times, snapshots=[70.0])
    for s in (1, -1):
        assert np.array_equal(plain[s][0], snapped[s][0])
        [shot] = snapped[s][1]
        ref = propagate(sample_initial(20000, 20.0, 0.0, 4.0, 0.125, 7,
                                       spin=s), 70.0, [FIG1_PULSE])
        assert shot.time == 70.0 and shot.spin == s
        assert_same_states(shot.z, shot.v, ref.z, ref.v, 1e-10)


@pytest.mark.parametrize("snapshots", [[5.0, 2.0], [math.nan], [-1.0],
                                       [1.0, math.inf]])
def test_series_rejects_bad_snapshot_times(snapshots):
    with pytest.raises(ValueError, match="snapshot times"):
        mean_height_series(100, 20.0, 0.0, 4.0, 0.125, 1, [FIG1_PULSE],
                           np.arange(0.0, 10.0, 0.5), snapshots=snapshots)


def test_series_flags_escaping_particles():
    times = np.arange(0.0, 10.0, 0.5)
    with pytest.warns(UserWarning, match="z_cap"):
        mean_height_series(200, 1.0, 10.0, 0.1, 0.1, 4, [], times)


def test_flight_before_the_first_window_warns_once():
    """Both spins fly the same sample until the first window: it is summed,
    and its escapes flagged, once."""
    times = np.arange(0.0, 10.0, 0.5)
    with pytest.warns(UserWarning, match="z_cap") as record:
        series = mean_height_series(200, 1.0, 10.0, 0.1, 0.1, 4,
                                    [FIG1_PULSE], times)
    assert len(record) == 1
    assert np.array_equal(series[1][0], series[-1][0])


def test_a_strong_kick_warns_once_per_escaping_branch():
    """The kick lifts spin +1's particles past z_cap = 50 at the window's
    end: one warning, not one more from the flight after it; spin -1's
    stay below."""
    with pytest.warns(UserWarning, match="z_cap") as record:
        mean_height_series(2000, 5.0, 0.0, 1.0, 0.1, 1,
                           [KickPulse(30.0, 0.5, 60.0)],
                           np.arange(0.0, 100.0, 0.5))
    assert [str(w.message) for w in record] == [
        "2000 particle(s) rise above z_cap=50.0"]


def test_series_without_escapes_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean_height_series(500, 20.0, 0.0, 4.0, 0.125, 4, [FIG1_PULSE],
                           np.arange(0.0, 100.0, 0.5))


def _spy_grids(monkeypatch):
    """Record the step sizes and accelerations (h, a0, a1) of every
    `_kick_flight` call."""
    grids = []
    ranges = classical._unimodal_ranges
    monkeypatch.setattr(classical, "_unimodal_ranges", lambda a0, a1, h:
                        grids.append((h, a0, a1)) or ranges(a0, a1, h))
    return grids


@pytest.mark.parametrize("spin", [1, -1])
def test_two_pulse_window_takes_its_force_from_the_kick_model(monkeypatch,
                                                              spin):
    """A merged window of two magnetic pulses is accelerated by -2 - 2 f,
    f the kick model's forcing at each node of the shared grid, so that
    past the first pulse's window only the second acts."""
    pulses = [KickPulse(0.8, 0.3, 4.0), KickPulse(-0.5, 0.2, 5.0)]
    [(lo, hi, active)] = merged_windows(pulses, 0.0, 10.0)
    grids = _spy_grids(monkeypatch)
    classical._kick_flight(np.array([3.0]), np.zeros(1), [lo, hi], active,
                           spin, 50)
    [(h, a0, a1)] = grids
    [n], [step] = run_steps([lo, hi], 0.2, 50)
    assert np.array_equal(h, np.full(n, step))
    t = np.r_[np.cumsum(np.r_[lo, h[:-1]]), hi]  # t += h, ending on hi
    acc = -2.0 - 2.0 * forcing(pulses, spin, t)
    assert np.array_equal(a0, acc[:-1]) and np.array_equal(a1, acc[1:])
    past = t > pulses[0].window[1]
    assert past.any() and np.array_equal(
        acc[past], -2.0 - 2.0 * forcing(pulses[1:], spin, t[past]))


def test_merged_window_steps_every_run_at_its_narrowest_width(monkeypatch):
    """Samples inside a merged window of widths 0.3 and 0.1: every run of
    the series' stepper takes the (n, h) that `quantum.step_grid` gives
    for the same edges at the narrow width, also the runs before the
    narrow pulse's window."""
    pulses = [KickPulse(0.8, 0.3, 4.0), KickPulse(-0.5, 0.1, 5.0)]
    [(lo, hi, _)] = merged_windows(pulses, 0.0, 10.0)
    times = np.arange(0.0, 10.0, 0.25)
    grids = _spy_grids(monkeypatch)
    mean_height_series(50, 20.0, 0.0, 4.0, 0.125, 1, pulses, times,
                       spins=(1,), steps_per_sigma=20)
    [(h, _, _)] = grids
    _, hs, n = step_grid(np.r_[lo, times[(times > lo) & (times < hi)], hi],
                         0.1, 20)
    assert len(n) > 10 and np.array_equal(h, np.repeat(hs, n))


def test_sample_next_to_a_window_end_is_taken_at_the_end(monkeypatch):
    """A sample 4e-14 before the end of the window [0, 6] is taken at the
    end: no run of a few ulp follows it, and the series is the one with
    that sample at 6 itself."""
    pulses = [KickPulse(0.8, 0.5, 3.0)]
    near = np.r_[0.5 * np.arange(1, 12), 6.0 - 4e-14, 7.0, 8.0]
    grids = _spy_grids(monkeypatch)
    series = [mean_height_series(50, 20.0, 0.0, 4.0, 0.125, 1, pulses, times,
                                 spins=(1,))[1][0]
              for times in (near, np.r_[near[:11], 6.0, near[12:]])]
    assert min(h.min() for h, _, _ in grids) > 1e-3
    assert np.array_equal(*series)
