"""Wave-packet propagation: free flight, pulses, impulsive kicks."""

import functools
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qbounce import quantum
from qbounce.basis import EigenBasis, build_basis
from qbounce.pulses import (KickPulse, forcing, merged_windows,
                            window_edges)
from qbounce.quantum import mean_height_trace, step_grid

from helpers import (NormDriftError, direct_free_phases, evolve_pulsed,
                     expectation_z, free_evolve, ground_coeffs,
                     impulsive_kick, impulsive_kick_matrix,
                     oscillation_envelope, per_run_rows, per_run_trace,
                     pulse_propagator, reference_sub_steps, rk4_window,
                     shake_potential_coefficient, spin_row, strang_steps,
                     walk_mean_height_trace)


def _two_state(basis):
    c = np.zeros(basis.m, dtype=np.complex128)
    c[0] = c[1] = 1.0 / math.sqrt(2.0)
    return c


# ------------------------------------------------------------ free flight

def test_free_evolve_zero_time_is_identity(basis20):
    s = _two_state(basis20)
    out = free_evolve(s, basis20, 0.0)
    assert np.array_equal(out, s)


def test_stationary_state_mean_height(basis20):
    s = ground_coeffs(basis20)
    for dt in (0.0, 7.3, 100.0):
        out = free_evolve(s, basis20, dt)
        assert abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert expectation_z(out, basis20) == \
            pytest.approx(2.0 * basis20.zeros[0] / 3.0, rel=1e-6)


def test_two_state_oscillation_frequency_and_amplitude(basis20):
    """<z>(t) of (psi1+psi2)/sqrt(2) oscillates at z_2 - z_1 = 1.750."""
    w21 = basis20.zeros[1] - basis20.zeros[0]
    t = np.linspace(0.0, 50.0, 4001)
    s = _two_state(basis20)
    z = np.array([expectation_z(free_evolve(s, basis20, dt), basis20)
                  for dt in t])
    mean = 0.5 * (basis20.z_matrix[0, 0] + basis20.z_matrix[1, 1])
    amp = basis20.z_matrix[0, 1]  # signed matrix element
    # closed form: z(t) = mean + Z12 cos(w t)
    assert np.max(np.abs(z - (mean + amp * np.cos(w21 * t)))) < 1e-8
    assert w21 == pytest.approx(1.750, abs=5e-4)
    assert np.max(z) == pytest.approx(mean + abs(amp), abs=1e-6)


# ---------------------------------------------------------- pulse stepper

def test_zero_amplitude_pulse_equals_free_evolution(basis20):
    s = _two_state(basis20)
    pulsed = evolve_pulsed(basis20, s, 0.0, [KickPulse(0.0, 0.5, 10.0)], 1,
                           20.0)
    free = free_evolve(s, basis20, 20.0)
    # thousands of unitary substeps accumulate rounding at the 1e-12 level
    assert np.max(np.abs(pulsed - free)) < 1e-11


def test_strang_and_rk4_steppers_agree(basis20):
    pulse = KickPulse(0.5, 0.5, 10.0)
    lo, hi = pulse.window
    a = evolve_pulsed(basis20, ground_coeffs(basis20), lo, [pulse], 1, hi,
                      steps_per_sigma=40)
    b = rk4_window(ground_coeffs(basis20), basis20, [pulse], 1, lo, hi)
    # RK4 at 500 steps per sigma is good to ~1e-11: the agreement is the
    # composed steps' error at 40 steps per sigma (measured 1.2e-9; 1.9e-8
    # at 20, 16x more, as fourth order predicts)
    assert np.max(np.abs(a - b)) < 1e-8


def test_window_error_is_fourth_order(basis20):
    """Halving the step cuts the window error 16x."""
    pulse = KickPulse(2.0, 0.2, 0.0)
    ref = pulse_propagator(basis20, pulse, steps_per_sigma=320)
    err = [np.max(np.abs(pulse_propagator(basis20, pulse, steps_per_sigma=n)
                         - ref)) for n in (10, 20)]
    assert 12.0 < err[0] / err[1] < 20.0


def test_unitarity_through_strong_pulse(basis50):
    coeffs, _ = basis50.project_gaussian(20.0, 8.0)
    out = evolve_pulsed(basis50, coeffs, 0.0, [KickPulse(2.0, 0.5, 10.0)], 1,
                        25.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_rk4_norm_drift_raises(basis20):
    pulse = KickPulse(40.0, 0.5, 10.0)
    with pytest.raises(NormDriftError):
        rk4_window(ground_coeffs(basis20), basis20, [pulse], 1,
                   *pulse.window, steps_per_sigma=2)


_random_pulses = dict(m=st.integers(5, 30), amplitude=st.floats(-3.0, 3.0),
                      sigma=st.floats(0.05, 1.0),
                      kind=st.sampled_from(["magnetic", "shake"]),
                      spin=st.sampled_from([1, -1]))


@settings(max_examples=25, deadline=None)
@given(**_random_pulses)
@example(m=20, amplitude=0.7, sigma=0.4, kind="magnetic", spin=-1)
def test_spin_flip_equals_field_flip(m, amplitude, sigma, kind, spin):
    """The -s propagator is the s one with beta -> -beta (magnetic); a
    shake does not couple to the spin."""
    basis = build_basis(m)
    pulse = KickPulse(amplitude, sigma, 0.0, kind)
    flipped = KickPulse(-amplitude, sigma, 0.0, kind) \
        if kind == "magnetic" else pulse
    w = pulse_propagator(basis, pulse, spin=spin)
    w_flip = pulse_propagator(basis, flipped, spin=-spin)
    assert np.max(np.abs(w - w_flip)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(**_random_pulses)
@example(m=20, amplitude=1.0, sigma=0.3, kind="magnetic", spin=1)
def test_pulse_propagator_is_unitary(m, amplitude, sigma, kind, spin):
    basis = build_basis(m)
    w = pulse_propagator(basis, KickPulse(amplitude, sigma, 0.0, kind), spin)
    assert np.max(np.abs(w.conj().T @ w - np.eye(m))) < 1e-11


def test_pulse_propagator_matches_evolve_pulsed(basis20):
    pulse = KickPulse(0.8, 0.3, 12.0)
    w = pulse_propagator(basis20, pulse)
    s = _two_state(basis20)
    lo, hi = pulse.window
    direct = evolve_pulsed(basis20, s, lo, [pulse], 1, hi)
    assert np.max(np.abs(w @ s - direct)) < 1e-11


@pytest.mark.parametrize("kind", ["magnetic", "shake"])
def test_reversed_steps_give_first_row_of_propagator(basis20, kind):
    """e_1^T W from stepping e_1 with the forcing samples reversed."""
    pulse = KickPulse(0.8, 0.3, 0.0, kind)
    t_mid, (h,), _ = step_grid(pulse.window, pulse.width, quantum.DEFAULT_STEPS_PER_SIGMA)
    row = strang_steps(basis20, ground_coeffs(basis20),
                       forcing([pulse], -1, t_mid)[::-1], h)
    w = pulse_propagator(basis20, pulse, spin=-1)
    assert np.max(np.abs(row - w[0, :])) < 1e-12


def test_reversed_steps_transpose_asymmetric_forcing(basis20):
    """Each Strang sub-step is complex symmetric and the sub-step sizes are
    palindromic, so reversing the forcing transposes the product even when
    the forcing has no time symmetry."""
    pulses = [KickPulse(1.0, 0.2, -0.5), KickPulse(-0.6, 0.3, 0.4)]
    t_mid, (h,), _ = step_grid([-1.7, 2.2], 0.2, 100)
    f = forcing(pulses, 1, t_mid)
    w = strang_steps(basis20, np.eye(basis20.m, dtype=complex), f, h)
    assert np.max(np.abs(w - w.T)) > 1e-3
    row = strang_steps(basis20, ground_coeffs(basis20), f[::-1], h)
    assert np.max(np.abs(row - w[0, :])) < 1e-12


def test_steps_need_three_forcing_samples_each(basis20):
    with pytest.raises(ValueError, match="three samples"):
        strang_steps(basis20, ground_coeffs(basis20), np.zeros(4), 0.1)


@settings(max_examples=25, deadline=None)
@given(amplitude=st.floats(-3.0, 3.0), sigma=st.floats(0.05, 0.5),
       kind=st.sampled_from(["magnetic", "shake"]),
       spin=st.sampled_from([1, -1]))
def test_block_steps_equal_column_steps(basis20, amplitude, sigma, kind,
                                        spin):
    """A block of columns, each with its own forcing, steps like each
    column on its own."""
    t_mid, (h,), _ = step_grid([-6.0 * sigma, 8.0 * sigma], sigma, 50)
    f = np.stack([forcing([KickPulse(amplitude * w, sigma, t0, kind)], spin,
                          t_mid)
                  for w, t0 in ((1.0, 0.0), (-0.5, sigma), (0.25, 2 * sigma))],
                 axis=1)
    c = np.zeros((basis20.m, 3), dtype=complex)
    c[0, 0] = c[1, 1] = 1.0
    c[:, 2] = _two_state(basis20)
    block = strang_steps(basis20, c, f, h)
    for j in range(3):
        alone = strang_steps(basis20, c[:, j], f[:, j], h)
        assert np.max(np.abs(block[:, j] - alone)) < 1e-13


# -------------------------------------------------------- impulsive kicks

def test_impulsive_kick_zero_area_is_identity(basis20):
    s = _two_state(basis20)
    out = impulsive_kick(s, basis20, 0.0)
    assert np.max(np.abs(out - s)) < 1e-15


def test_impulsive_kick_matrix_unitary(basis20):
    p = impulsive_kick_matrix(basis20, 0.4431)
    assert np.max(np.abs(p.conj().T @ p - np.eye(basis20.m))) < 1e-10


def test_impulsive_limit_of_integrated_pulse(basis50):
    """A very short pulse with fixed area acts like exp[+i alpha s Z]."""
    alpha = 0.5 * 0.5 * math.sqrt(math.pi)  # area of the echo kick
    sigma = 1e-3
    pulse = KickPulse(alpha / (sigma * math.sqrt(math.pi)), sigma, 0.0)
    s = ground_coeffs(basis50)
    integrated = evolve_pulsed(basis50, s, pulse.window[0], [pulse], 1,
                               pulse.window[1])
    # the kick happens mid-window: compare with symmetric phase splitting
    half = np.exp(-1j * basis50.zeros * 0.5 *
                  (pulse.window[1] - pulse.window[0]))
    expected = half * impulsive_kick(half * s, basis50, alpha)
    assert np.linalg.norm(integrated - expected) < 1e-4
    survival = abs(expected[0]) ** 2
    assert survival < 1.0


def test_shake_kick_uses_generic_sign(basis20):
    p_mag = impulsive_kick_matrix(basis20, 0.3, spin=1, kind="magnetic")
    p_jolt = impulsive_kick_matrix(basis20, -0.3, kind="shake")
    assert np.max(np.abs(p_mag - p_jolt)) < 1e-13


# -------------------------------------------------------------- shakes

def test_flat_surface_coefficient_is_one():
    assert shake_potential_coefficient([], 0.0) == 1.0


def test_shake_effective_gravity_profile():
    p = KickPulse(1.5, 1.0, 0.0, "shake")
    t = np.linspace(-6.0, 6.0, 1001)
    g = shake_potential_coefficient([p], t)
    # g_eff = 1 + h''/2; at the pulse center h'' = -2a/sigma^2
    assert g[500] == pytest.approx(1.0 - 1.5, abs=1e-12)
    assert g[0] == pytest.approx(1.0, abs=1e-12)


def test_shake_pulse_preserves_norm(basis20):
    out = evolve_pulsed(basis20, ground_coeffs(basis20), -6.0,
                        [KickPulse(1.5, 1.0, 0.0, "shake")], 1, 6.0)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9
    assert abs(out[0]) ** 2 < 0.999  # the jolt actually excites


# ----------------------------------------------------------- echo physics

def test_wave_packet_collapse_without_kick(basis50):
    """Free anharmonic dephasing: envelope at t=60 under 30% of early value."""
    coeffs, _ = basis50.project_gaussian(20.0, 8.0)
    times = np.arange(0.0, 80.0, 0.1)
    (trace,), _ = mean_height_trace(basis50, coeffs, 0.0, [], times)
    env = oscillation_envelope(times, trace, window=9.0)
    early = env[times < 10].max()
    assert env[np.searchsorted(times, 60.0)] < 0.3 * early


def test_mean_height_trace_matches_pointwise_evolution(basis20):
    s = _two_state(basis20)
    pulse = KickPulse(0.5, 0.5, 5.0)
    times = np.arange(0.0, 15.0, 0.5)
    heights, finals = mean_height_trace(basis20, s, 0.0, [pulse], times)
    for k in (0, 10, 20, len(times) - 1):
        direct = evolve_pulsed(basis20, s, 0.0, [pulse], 1, float(times[k]))
        assert heights[0, k] == pytest.approx(expectation_z(direct, basis20),
                                              abs=1e-9)
    assert np.max(np.abs(finals[0] - direct)) < 1e-9  # the state at times[-1]


_WALK_CASES = {
    "one kick": ([KickPulse(0.5, 0.5, 5.0)], 1, np.arange(0.0, 15.0, 0.25)),
    # windows [2.2, 5.8] and [3.7, 7.3] merge
    "merged equal widths": ([KickPulse(0.8, 0.3, 4.0),
                             KickPulse(-0.6, 0.3, 5.5)], -1,
                            np.arange(0.0, 12.0, 0.2)),
    # the window is [2, 8]; the trace also ends on its upper edge
    "samples on window edges": ([KickPulse(0.5, 0.5, 5.0)], 1,
                                np.array([0.0, 2.0, 3.5, 5.0, 8.0])),
    "single-spin shake": ([KickPulse(1.0, 0.4, 3.0, "shake")], 1,
                          np.arange(0.0, 8.0, 0.3)),
}


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_one_walk_matches_per_sample_restarts(basis20, case):
    pulses, spin, times = _WALK_CASES[case]
    s = _two_state(basis20)
    heights, finals = mean_height_trace(basis20, s, 0.0, pulses, times)
    ref, ref_final = walk_mean_height_trace(basis20, s, 0.0, pulses, spin,
                                            times)
    assert np.max(np.abs(heights[spin_row(spin)] - ref)) < 1e-12
    assert np.max(np.abs(finals[spin_row(spin)] - ref_final)) < 1e-12


def test_walk_through_mixed_widths_matches_rk4(basis20):
    """In a merged window of a narrow and a wide pulse the walk steps at the
    narrow width throughout."""
    pulses = [KickPulse(0.8, 0.2, 5.0), KickPulse(-0.5, 0.4, 6.0)]
    times = np.array([3.0, 4.1, 5.0, 5.9, 7.2, 8.4])  # window [3.6, 8.4]
    s = _two_state(basis20)
    heights, _ = mean_height_trace(basis20, s, 0.0, pulses, times)
    c, t = free_evolve(s, basis20, 3.6), 3.6
    for k in range(1, len(times)):
        c, t = rk4_window(c, basis20, pulses, 1, t, times[k]), times[k]
        assert heights[0, k] == pytest.approx(expectation_z(c, basis20),
                                              abs=1e-8)


# fig2-like: samples every 0.1 through a width-0.5 window; fig5-like: a
# shake window clipped at t = 0, then a narrow second one
_REUSE_CASES = {
    "fig2-like": (50, [KickPulse(0.5, 0.5, 20.0)], 1, np.arange(0.0, 30.0, 0.1)),
    "two-window shake": (20, [KickPulse(1.5, 1.0, 0.0, "shake"),
                              KickPulse(0.1, 0.16, 15.0, "shake")], 1,
                         np.arange(0.0, 20.0, 0.1)),
}


def _reuse_case(basis20, basis50, case):
    m, pulses, spin, times = _REUSE_CASES[case]
    basis = basis50 if m == 50 else basis20
    return basis, _two_state(basis), pulses, spin, times


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_trace_equals_fresh_operators_per_run(basis20, basis50, case):
    """Reusing a window's operators changes no bit of the trace."""
    basis, s, pulses, spin, times = _reuse_case(basis20, basis50, case)
    heights, finals = mean_height_trace(basis, s, 0.0, pulses, times)
    ref, ref_final = per_run_trace(basis, s, 0.0, pulses, spin, times)
    assert np.array_equal(heights[spin_row(spin)], ref)
    assert np.array_equal(finals[spin_row(spin)], ref_final)


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_operators_built_once_per_step_size_and_window(basis20, basis50,
                                                       monkeypatch, case):
    """Each step size's operators once per window, for both spins of a
    magnetic trace at once: any walk builds each window's distinct step
    sizes at least once, so a two-spin trace that builds no more than
    those builds no more than one spin does."""
    basis, s, pulses, _, times = _reuse_case(basis20, basis50, case)
    built = []
    build = quantum._operators

    def spy(basis, h):
        built.append(h)
        return build(basis, h)

    monkeypatch.setattr(quantum, "_operators", spy)
    mean_height_trace(basis, s, 0.0, pulses, times)
    distinct = runs = 0
    for lo, hi, active in merged_windows(pulses, 0.0, float(times[-1])):
        inside = times[(times > lo) & (times < hi)]
        edges = np.r_[lo, inside, hi]
        width = min(p.width for p in active)
        sizes = step_grid(edges, width, quantum.DEFAULT_STEPS_PER_SIGMA)[1].tolist()
        distinct += len(set(sizes))
        runs += len(sizes)
    assert len(built) <= distinct
    assert runs >= 5 * distinct  # many runs share each step size


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_kernel_entered_once_per_window(basis20, basis50, monkeypatch, case):
    """One `_sub_steps` call per merged window carries all of its
    sample-to-sample runs for every spin branch at once: both spins of a
    magnetic trace, spin +1 of a shake trace."""
    basis, s, pulses, spin, times = _reuse_case(basis20, basis50, case)
    branches = {"fig2-like": 2, "two-window shake": 1}[case]
    calls = []
    sub_steps = quantum._sub_steps

    def spy(basis, c, f_mid, runs, nodes, signs=(1,)):
        calls.append((len(c), len(runs)))
        return sub_steps(basis, c, f_mid, runs, nodes, signs)

    monkeypatch.setattr(quantum, "_sub_steps", spy)
    windows = merged_windows(pulses, 0.0, float(times[-1]))
    runs = [len(times[(times > lo) & (times < hi)]) + 1
            for lo, hi, _ in windows]
    mean_height_trace(basis, s, 0.0, pulses, times)
    assert calls == [(branches, n) for n in runs]
    assert sum(runs) >= 5 * len(windows)


def test_kernel_keeps_at_most_its_operator_sets_alive(basis20, monkeypatch):
    """60 irregular samples give one window a step size per run.  Each
    operator set is built when its run is reached, and whenever one is
    built at most ``_OPERATOR_SETS`` others are alive."""
    pulse = KickPulse(0.5, 0.5, 5.0)
    inside = np.sort(np.random.default_rng(11).uniform(*pulse.window, 60))
    times = np.r_[0.0, inside, 10.0]
    live, alive_at_build = set(), []
    build = quantum._operators

    def spy(basis, h):
        alive_at_build.append(len(live))
        ops = build(basis, h)
        live.add(h)
        weakref.finalize(ops[1], live.discard, h)  # G_sub freed: set gone
        return ops

    monkeypatch.setattr(quantum, "_operators", spy)
    mean_height_trace(basis20, _two_state(basis20), 0.0, [pulse], times)
    edges = np.r_[pulse.window[0], inside, pulse.window[1]]
    h = step_grid(edges, pulse.width, quantum.DEFAULT_STEPS_PER_SIGMA)[1]
    assert len(set(h.tolist())) >= 12
    assert len(alive_at_build) == 61
    assert max(alive_at_build) <= quantum._OPERATOR_SETS


@st.composite
def pair_walks(draw):
    """Magnetic pulses, overlapping or not, a random unit state and an
    ascending grid whose start lies before, inside or after the windows."""
    pulses = [KickPulse(draw(st.floats(-2.5, 2.5)), draw(st.floats(0.1, 0.5)),
                        draw(st.floats(0.0, 8.0)))
              for _ in range(draw(st.integers(1, 3)))]
    t0 = draw(st.floats(-4.0, 12.0))
    gaps = draw(st.lists(st.floats(0.02, 1.5), max_size=40))
    start = t0 + draw(st.sampled_from([0.0, 0.3]))
    times = start + np.cumsum(np.r_[0.0, gaps])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    return pulses, c / np.linalg.norm(c), t0, times


def _assert_pair_equals_single_walks(basis, c, t0, pulses, times):
    heights, finals = mean_height_trace(basis, c, t0, pulses, times)
    assert heights.shape == (2, len(times)) and finals.shape == (2, basis.m)
    for trace, final, spin in zip(heights, finals, (1, -1)):
        ref, ref_final = per_run_trace(basis, c, t0, pulses, spin, times)
        assert np.array_equal(trace, ref)
        assert np.array_equal(final, ref_final)


@settings(max_examples=40, deadline=None)
@given(case=pair_walks())
def test_pair_walk_equals_two_single_walks(basis20, case):
    """Both spins walked together, spin -1 on the conjugate phases of spin
    +1, give bitwise the traces and final states of two one-spin walks,
    each on its own forcing."""
    pulses, c, t0, times = case
    _assert_pair_equals_single_walks(basis20, c, t0, pulses, times)


def test_pair_walk_through_a_magnetic_and_shake_window(basis20):
    """A merged window of a magnetic pulse and a shake: the forcing of
    spin -1 is not the negated forcing of spin +1, so each branch takes
    its own phases, and the walk still matches the one-spin walks bitwise."""
    pulses = [KickPulse(0.8, 0.3, 4.0), KickPulse(0.6, 0.4, 5.0, "shake"),
              KickPulse(-0.5, 0.2, 9.0)]  # [2.2, 7.4] merged, then [7.8, 10.2]
    times = np.arange(0.0, 12.0, 0.15)
    _assert_pair_equals_single_walks(basis20, _two_state(basis20), 0.0,
                                     pulses, times)
    (plus, minus), _ = mean_height_trace(basis20, _two_state(basis20), 0.0,
                                         pulses, times)
    assert np.max(np.abs(plus - minus)) > 1e-3


def test_merged_window_takes_its_forcing_from_the_kick_model(basis20,
                                                            monkeypatch):
    """A merged window of two pulses evaluates the kick model's forcing of
    both, once per forcing column: one for two magnetic pulses, whose
    spin -1 phases are conjugates, and one per spin with a shake."""
    calls = []

    def spy(pulses, spin, t):
        calls.append((list(pulses), spin))
        return forcing(pulses, spin, t)

    monkeypatch.setattr(quantum, "forcing", spy)
    times = np.arange(0.0, 8.0, 0.1)
    first = KickPulse(0.8, 0.3, 4.0)
    for second, spins in ((KickPulse(-0.5, 0.2, 5.0), (1,)),
                          (KickPulse(0.6, 0.4, 5.0, "shake"), (1, -1))):
        calls.clear()
        mean_height_trace(basis20, _two_state(basis20), 0.0, [first, second],
                          times)
        assert calls == [([first, second], s) for s in spins]


@pytest.mark.parametrize("kinds,rows", [
    ((), 1), (("shake",), 1), (("shake", "shake"), 1), (("magnetic",), 2),
    (("magnetic", "magnetic"), 2), (("magnetic", "shake"), 2),
    (("shake", "magnetic"), 2)])
def test_trace_steps_both_spins_where_a_pulse_is_magnetic(basis20, kinds,
                                                          rows):
    """A trace without a magnetic pulse steps spin +1 alone: one row of
    heights and final states.  One with a magnetic pulse, also beside a
    shake, steps spin +1 and spin -1: two rows."""
    pulses = [KickPulse(0.6, 0.3, 2.0 + 3.0 * k, kind)
              for k, kind in enumerate(kinds)]
    times = np.arange(0.0, 10.0, 0.25)
    heights, finals = mean_height_trace(basis20, _two_state(basis20), 0.0,
                                        pulses, times)
    assert heights.shape == (rows, len(times))
    assert finals.shape == (rows, basis20.m)


def test_magnetic_kick_past_the_samples_gives_two_equal_rows(basis20):
    """A magnetic kick whose window starts after the last sample still
    makes a two-spin trace; both spins fly freely, so their rows agree
    bitwise."""
    times = np.arange(0.0, 10.0, 0.25)
    heights, finals = mean_height_trace(basis20, _two_state(basis20), 0.0,
                                        [KickPulse(0.6, 0.3, 50.0)], times)
    assert heights.shape == (2, len(times))
    assert np.array_equal(heights[0], heights[1])
    assert np.array_equal(finals[0], finals[1])


def test_free_trace_checks_every_rayleigh_bound(basis20):
    """A Z that its eigenvalues do not describe puts <z> outside the
    Rayleigh bounds, also in free flight."""
    z = basis20.z_matrix.copy()
    z[0, 1] += 100.0  # eigh reads the lower triangle only
    skewed = EigenBasis(basis20.m, basis20.zeros, basis20.norms, z)
    with pytest.raises(ArithmeticError, match="outside Z's Rayleigh bounds"):
        mean_height_trace(skewed, _two_state(skewed), 0.0, [],
                          np.arange(0.0, 5.0, 0.5))


def test_mean_z_rejects_a_non_finite_row(basis20):
    c = np.tile(_two_state(basis20), (3, 1))
    c[2, 4] = np.nan
    with pytest.raises(ArithmeticError, match="at sample 2 lies outside"):
        quantum._mean_z(basis20, c, quantum._z_scratch(20))


def test_mean_z_matches_complex_oracle_on_fig2_trace():
    """Real products against the complex c^dag Z c on every sample of the
    fig2 echo at M = 150."""
    basis = build_basis(150)
    c0, _ = basis.project_gaussian(20.0, 8.0)
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    rows = per_run_rows(basis, c0, 0.0, [KickPulse(0.5, 0.5, 60.0)], 1,
                        times)
    fast = quantum._mean_z(basis, rows, quantum._z_scratch(basis.m))
    oracle = np.array([expectation_z(c, basis) for c in rows])
    assert np.max(np.abs(fast - oracle) / oracle) <= 1e-13


def test_shared_stretch_is_reduced_once(basis20, monkeypatch):
    """A magnetic trace through one window takes the free phases of its
    stretches (each under ``_ROWS`` samples) three times: once for the
    stretch before the window, which both spins share, and once per spin
    after it."""
    calls = []

    def spy(out, c, zeros, tau):
        calls.append(len(tau))
        return free_phases(out, c, zeros, tau)

    free_phases = quantum._free_phases
    monkeypatch.setattr(quantum, "_free_phases", spy)
    pulse = KickPulse(0.8, 0.3, 6.0)
    times = np.arange(0.0, 12.0, 0.1)
    mean_height_trace(basis20, _two_state(basis20), 0.0, [pulse], times)
    before, stop = np.searchsorted(times, pulse.window, side="right")
    assert calls == [before, len(times) - stop, len(times) - stop]


@pytest.mark.parametrize("end", ["free", "window"])
def test_final_states_hold_only_themselves(basis20, end):
    """A trace that ends in free flight or on a window's last sample
    returns final states that are a copy: their memory holds the spins'
    (B, M) final states only, not the window's stepped states."""
    pulse = KickPulse(0.8, 0.3, 6.0)
    times = np.arange(0.0, 12.0 if end == "free" else 7.75, 0.1)
    if end == "window":
        times = np.r_[times, pulse.window[1]]
    _, finals = mean_height_trace(basis20, _two_state(basis20), 0.0, [pulse],
                                  times)
    owner = finals if finals.base is None else finals.base
    assert finals.shape == (2, basis20.m)
    assert owner.nbytes == finals.nbytes == 2 * basis20.m * 16
    ref, ref_final = per_run_trace(basis20, _two_state(basis20), 0.0,
                                   [pulse], -1, times)
    assert np.array_equal(finals[1], ref_final)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.complex128, st.tuples(st.integers(1, 8), st.just(20)),
                  elements=st.complex_numbers(min_magnitude=1e-3,
                                              max_magnitude=1e3)))
def test_mean_z_matches_complex_oracle_on_random_rows(basis20, c):
    """Unit-norm rows: within 1e-13 of lambda_max, and inside the Rayleigh
    bounds [lambda_min, lambda_max]."""
    c = c / np.linalg.norm(c, axis=1)[:, None]
    fast = quantum._mean_z(basis20, c, quantum._z_scratch(20))
    oracle = np.array([expectation_z(r, basis20) for r in c])
    lam = basis20.z_eigvals
    assert np.all(np.abs(fast - oracle) <= 1e-13 * lam[-1])
    assert np.all((fast >= lam[0] * (1 - 1e-12)) & (fast <= lam[-1] * (1 + 1e-12)))


@st.composite
def row_slices(draw):
    """A row count t in [1, 700] and a slice [i, j) of the rows."""
    t = draw(st.integers(1, 700))
    i = draw(st.integers(0, t - 1))
    return t, i, draw(st.integers(i + 1, t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([20, 50, 100]), row_slices(), st.integers(0, 2**32 - 1))
@example(20, (64, 10, 11), 0)
@example(50, (300, 299, 300), 1)
@example(100, (700, 3, 40), 2)
def test_mean_z_of_a_row_depends_on_that_row_alone(m, cut, seed):
    """A slice of rows, one row included, gets bitwise the values those
    rows get among all of them: BLAS picks its kernel by the operands'
    shape, so `_mean_z` gives every product one shape."""
    t, i, j = cut
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(t, m)) + 1j * rng.normal(size=(t, m))
    c /= np.linalg.norm(c, axis=1)[:, None]
    basis = _kernel_basis(m)
    scratch = quantum._z_scratch(m)
    assert np.array_equal(quantum._mean_z(basis, c, scratch)[i:j],
                          quantum._mean_z(basis, c[i:j], scratch))


def test_trace_memory_does_not_grow_with_its_length():
    """One kick at M = 100: ten times the samples, 2001 to 20001, raise the
    traced peak by under 1 MB, the (2, T) arrays of both spins' heights.
    The free stretches pass ``_ROWS`` samples at a time; the (T, M)
    coefficients of every sample would take 29 MB more per spin."""
    basis = _kernel_basis(100)
    c0 = basis.project_gaussian(20.0, 8.0)[0]
    peaks = []
    for t_max in (200.0, 2000.0):
        times = np.arange(0.0, t_max + 1e-9, 0.1)
        tracemalloc.start()
        try:
            mean_height_trace(basis, c0, 0.0, [KickPulse(0.5, 0.5, 60.0)],
                              times)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6


def test_basis_size_convergence_on_echo_trace():
    """Doubling M leaves <z>(t) unchanged below 1e-6 for the echo run.

    The floor-truncated Gaussian converges slowly in the eigenbasis, so the
    1e-6 level needs M ~ 150 (figure presets use M = 50, converged to ~4e-4,
    far below plot resolution).
    """
    times = np.arange(0.0, 200.0 + 1e-9, 1.0)
    pulse = KickPulse(0.5, 0.5, 60.0)
    traces = {}
    for m in (150, 300):
        b = build_basis(m)
        c0, _ = b.project_gaussian(20.0, 8.0)
        traces[m] = mean_height_trace(b, c0, 0.0, [pulse], times)[0][0]
    assert np.max(np.abs(traces[150] - traces[300])) < 1e-6


def test_expectation_z_two_level_maximum(basis20):
    # at maximal constructive phase: Z11/2 + Z22/2 + |Z12|
    c = np.zeros(basis20.m, dtype=complex)
    c[0] = c[1] = 1.0 / math.sqrt(2.0)
    val = expectation_z(c, basis20)
    expected = (0.5 * basis20.z_matrix[0, 0] + 0.5 * basis20.z_matrix[1, 1]
                + abs(basis20.z_matrix[0, 1]))
    assert val == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------ free phases

@st.composite
def free_grids(draw):
    """Ascending sample times less t0: `np.arange` grids with odd starts,
    or the same grids jittered, of the lengths around an anchor block."""
    n = draw(st.sampled_from([1, 31, 32, 33, 65]) | st.integers(1, 200))
    start = draw(st.floats(0.0, 40.0))
    step = draw(st.sampled_from([0.1, 0.05, 1.0 / 3.0]) |
                st.floats(0.01, 0.25))
    times = np.arange(start, start + (n - 0.5) * step, step)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        times = times + rng.uniform(-0.4, 0.4, len(times)) * step
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return times - draw(st.floats(0.0, 1.0)) * start, seed


@settings(max_examples=80, deadline=None)
@given(case=free_grids())
def test_free_phases_match_one_exp_per_sample(basis20, case):
    """Anchors and per-gap products against one `exp` per sample and state:
    1e-12 per coefficient (each `exp` of a phase z tau < 4096 errs by up
    to half an ulp of it, 2.3e-13) and 1e-14 in each row's norm."""
    tau, seed = case
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis20.m) + 1j * rng.standard_normal(basis20.m)
    c /= np.linalg.norm(c)
    out = np.empty((len(tau), basis20.m), dtype=np.complex128)
    assert quantum._free_phases(out, c, basis20.zeros, tau) is out
    direct = direct_free_phases(c, basis20.zeros, tau)
    assert np.max(np.abs(out - direct)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-14


def test_free_phases_on_a_long_grid_against_mpmath():
    """The last 64 rows of a 4761-row grid (fig5's samples) at M = 150:
    the products err no more than one `exp` per sample (measured 2.92e-13
    against 2.97e-13), and no row's norm drifts past 1e-14."""
    zeros = build_basis(150).zeros
    tau = np.arange(-6.0, 470.0 + 1e-9, 0.1) + 6.0
    assert len(tau) == 4761
    c = np.full(150, 1.0 / math.sqrt(150.0), dtype=np.complex128)
    out = quantum._free_phases(np.empty((len(tau), 150), dtype=np.complex128),
                               c, zeros, tau)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-14
    rows = slice(len(tau) - 64, len(tau))
    with mpmath.workdps(30):
        exact = np.array([[complex(mpmath.mpf(c[0].real) *
                                   mpmath.expj(-mpmath.mpf(z) * mpmath.mpf(t)))
                           for z in zeros] for t in tau[rows]])
    ours = np.max(np.abs(out[rows] - exact))
    direct = np.max(np.abs(direct_free_phases(c, zeros, tau[rows]) - exact))
    assert ours <= 1.1 * direct


_kernel_basis = functools.cache(build_basis)


@st.composite
def kernel_cases(draw):
    """A basis of M in [5, 30]; runs whose step sizes, up to
    ``_OPERATOR_SETS`` + 3 distinct ones, each once or twice, interleave,
    so that the kernel evicts operator sets and builds them again; a kind,
    spins, vector branches or one block, and nodes or only the run ends."""
    m = draw(st.integers(5, 30))
    distinct = draw(st.lists(st.floats(0.005, 0.05), min_size=1,
                             max_size=quantum._OPERATOR_SETS + 3, unique=True))
    sizes = draw(st.permutations(distinct * draw(st.integers(1, 2))))
    counts = [draw(st.integers(1, 40)) for _ in sizes]
    kind = draw(st.sampled_from(["magnetic", "shake"]))
    spins = draw(st.sampled_from([(1,), (1, -1)]))
    block = draw(st.sampled_from([None, 1, 3]))  # vectors or B columns
    ends = np.cumsum(counts)
    nodes = set(ends.tolist())
    if draw(st.booleans()):
        nodes |= set(draw(st.lists(st.integers(0, int(ends[-1])), max_size=6)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return (_kernel_basis(m), sizes, counts, kind, spins, block, sorted(nodes),
            np.random.default_rng(seed))


def _reference_runs(basis, cs, f, runs, nodes, signs):
    """`reference_sub_steps` run after run, each branch's states at
    ``nodes`` stacked."""
    kept, done = [[] for _ in cs], 0
    for n, h in runs:
        local = [k - done for k in nodes if done < k <= done + n
                 or k == done == 0]
        out = reference_sub_steps(basis, cs, f[3 * done:3 * (done + n)],
                                  (*quantum._operators(basis, h),
                                   -1j * h * basis.z_eigvals), signs, local)
        for k, o in zip(kept, out):
            k.extend(o)
        cs, done = [o[-1] for o in out], done + n
    return [np.stack(k) for k in kept]


# ten step sizes in turn, twice: every run misses the kernel's operator sets
_EVICTING = [0.005 + 0.004 * k for k in range(10)] * 2


@settings(max_examples=60, deadline=None)
@given(case=kernel_cases())
@example(case=(_kernel_basis(8), _EVICTING, [3] * 20, "magnetic", (1, -1),
               None, np.cumsum([3] * 20).tolist(), np.random.default_rng(5)))
# many short runs, a phase batch spanning several: 20 runs of 2 steps, a
# tap at every run end, and those at steps 16 and 32 on batch boundaries
@example(case=(_kernel_basis(8), [0.01, 0.02] * 10, [2] * 20, "shake", (1,),
               None, np.cumsum([2] * 20).tolist(), np.random.default_rng(6)))
# a tap on a batch boundary inside a run: step 16 of runs of 5 steps
@example(case=(_kernel_basis(6), [0.01, 0.03] * 4, [5] * 8, "magnetic",
               (1, -1), 3, sorted({16, *np.cumsum([5] * 8).tolist()}),
               np.random.default_rng(7)))
def test_kernel_loop_matches_reference_sub_steps(case):
    """The kernel loop gives bitwise the states of the sub-step loop it
    replaced, run after run, at every node, with operators built afresh
    for every run: vector branches, each with its own product, and one
    block of columns; one forcing for every sign (magnetic) or one per
    branch or column (shake); step sizes interleaved past the kernel's
    ``_OPERATOR_SETS``."""
    basis, sizes, counts, kind, spins, block, nodes, rng = case
    m, n3 = basis.m, 3 * sum(counts)
    runs = list(zip(counts, sizes))

    def states(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if block is None:
        c = states(len(spins), m)
        if kind == "magnetic":
            f = 2.0 * rng.standard_normal(n3)
            out = quantum._sub_steps(basis, c, f, runs, nodes, spins)
            ref = _reference_runs(basis, list(c), f, runs, nodes, spins)
        else:
            f = 2.0 * rng.standard_normal((n3, len(spins)))
            out = quantum._sub_steps(basis, c, f, runs, nodes)
            ref = [_reference_runs(basis, [c[b]], f[:, b], runs, nodes, (1,))[0]
                   for b in range(len(spins))]
        for b, r in enumerate(ref):
            assert np.array_equal(out[:, b], r)
        return
    if kind == "magnetic":  # columns (k, s): spin s driven by s f[:, k]
        f = 2.0 * rng.standard_normal((n3, block))
        full = (f[:, :, None] * np.array(spins)).reshape(n3, -1)
        signs = spins
    else:  # one forcing for every column, or one per column
        cols = block * len(spins)
        f = 2.0 * rng.standard_normal(n3 if block == 1 else (n3, cols))
        full, signs = f, (1,)
    c = states(1, m, block * len(spins))
    out = quantum._sub_steps(basis, c, f, runs, nodes, signs)
    [ref] = _reference_runs(basis, [c[0]], full, runs, nodes, (1,))
    assert np.array_equal(out[:, 0], ref)


def test_a_sampled_window_takes_one_exp_per_phase_batch(basis20,
                                                        monkeypatch):
    """fig2's window at its 0.1 samples: 60 runs of 4 steps, 720 sub-steps.
    Their phases come ``_PHASE_ROWS`` rows per `exp`, across the runs:
    ceil(720 / 48) = 15 batches, not one per run."""
    pulse = KickPulse(0.5, 0.5, 60.0)
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    edges, _, _ = window_edges(times, *pulse.window)
    t_mid, h, n = step_grid(edges, pulse.width,
                            quantum.DEFAULT_STEPS_PER_SIGMA)
    assert len(n) == 60 and set(n.tolist()) == {4} and len(t_mid) == 720
    batches = []
    exp = np.exp

    def spy(x, *args, **kwargs):  # batches are the only 3-d `exp` calls
        batches.append(np.ndim(x) == 3)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    c = np.broadcast_to(_two_state(basis20), (2, basis20.m))
    quantum._sub_steps(basis20, c, forcing([pulse], 1, t_mid),
                       list(zip(n, h)), np.cumsum(n), (1, -1))
    assert sum(batches) == math.ceil(len(t_mid) / quantum._PHASE_ROWS) == 15


def test_trace_makes_its_z_scratch_once_whatever_its_length(basis20,
                                                            monkeypatch):
    """One scratch per trace, for one window or two and 2001 or 20001
    samples; and `per_run_trace` reduces its rows in one scratch to
    bitwise the values each row gets alone in a fresh one."""
    made = []
    z_scratch = quantum._z_scratch
    monkeypatch.setattr(quantum, "_z_scratch",
                        lambda m: made.append(m) or z_scratch(m))
    kicks = [KickPulse(0.5, 0.5, 60.0), KickPulse(0.3, 0.5, 120.0)]
    for t_max in (200.0, 2000.0):
        times = np.arange(0.0, t_max + 1e-9, 0.1)
        for pulses in (kicks[:1], kicks):
            made.clear()
            mean_height_trace(basis20, _two_state(basis20), 0.0, pulses,
                              times)
            assert made == [basis20.m]
    times = np.arange(50.0, 70.0, 0.1)
    rows = per_run_rows(basis20, _two_state(basis20), 0.0, kicks[:1], 1,
                        times)
    heights, _ = per_run_trace(basis20, _two_state(basis20), 0.0, kicks[:1],
                               1, times)
    alone = [z_scratch(basis20.m) for _ in rows]
    assert np.array_equal(heights, [quantum._mean_z(basis20, r[None], s)[0]
                                    for r, s in zip(rows, alone)])


def test_mean_z_ignores_what_its_scratch_held(basis20):
    """A scratch that held nan, then more rows than the next call has,
    gives bitwise the values of a fresh one."""
    rng = np.random.default_rng(8)
    c = rng.standard_normal((600, 20)) + 1j * rng.standard_normal((600, 20))
    c /= np.linalg.norm(c, axis=1)[:, None]
    fresh = quantum._mean_z(basis20, c[:300], quantum._z_scratch(20))
    used = quantum._z_scratch(20)
    for buffer in used:
        buffer.fill(np.nan)
    assert np.array_equal(quantum._mean_z(basis20, c[:300], used), fresh)
    quantum._mean_z(basis20, c[::-1], used)
    assert np.array_equal(quantum._mean_z(basis20, c[:300], used), fresh)


def test_sample_next_to_a_window_end_is_taken_at_the_end(basis20, monkeypatch):
    """fig5's grid puts a sample 4.3e-14 before the end of the window
    [-6, 6].  The walk takes it at the end, so no run a few ulp long and
    no operator set of that step size follows it."""
    pulses = [KickPulse(1.5, 1.0, 0.0, "shake")]
    times = np.arange(-6.0, 10.0, 0.1)
    assert 0.0 < 6.0 - times[120] < 1e-13
    built = []
    build = quantum._operators
    monkeypatch.setattr(quantum, "_operators",
                        lambda basis, h: built.append(h) or build(basis, h))
    s = _two_state(basis20)
    (trace,), (final,) = mean_height_trace(basis20, s, -6.0, pulses, times)
    assert min(built) > 1e-3
    ref, ref_final = walk_mean_height_trace(basis20, s, -6.0, pulses, 1, times)
    assert np.max(np.abs(trace - ref)) < 1e-12
    assert np.max(np.abs(final - ref_final)) < 1e-12


# ---------------------------------------------------------- input checks

def test_step_grid_takes_whole_steps_despite_rounding():
    """Gaps an ulp over a whole number of steps take that number: a
    sigma = 0.2 window, and every 0.1 sample run in the fig2 window."""
    t_mid, _, (n,) = step_grid(KickPulse(1.0, 0.2).window, 0.2, 40)
    assert len(t_mid) == 3 * n == 3 * 480
    lo, hi = KickPulse(0.5, 0.5, 60.0).window
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    edges = np.r_[lo, times[(times > lo) & (times < hi)], hi]
    t_mid, _, counts = step_grid(edges, 0.5, 40)
    assert len(counts) == 60 and set(counts) == {8}
    assert len(t_mid) == 3 * 480
    assert len(step_grid([0.0, 1.0 + 1e-9], 0.5, 4)[0]) == 3 * 9


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_step_grid_needs_a_whole_positive_step_count(steps):
    with pytest.raises(ValueError, match="steps_per_sigma"):
        step_grid([0.0, 1.0], 0.5, steps)


def test_pulse_propagator_rejects_negative_step_count(basis20):
    with pytest.raises(ValueError, match="steps_per_sigma"):
        pulse_propagator(basis20, KickPulse(1.0, 0.5), 1, -1)


def test_trace_and_evolve_accept_a_single_pulse(basis20):
    pulse = KickPulse(0.5, 0.5, 5.0)
    s, times = _two_state(basis20), np.arange(0.0, 10.0, 0.5)
    one, one_final = mean_height_trace(basis20, s, 0.0, pulse, times)
    listed, listed_final = mean_height_trace(basis20, s, 0.0, [pulse], times)
    assert np.array_equal(one, listed)
    assert np.array_equal(one_final, listed_final)
    assert np.array_equal(evolve_pulsed(basis20, s, 0.0, pulse, 1, 9.5),
                          evolve_pulsed(basis20, s, 0.0, [pulse], 1, 9.5))


@pytest.mark.parametrize("times", [[], [0.0, np.nan, 2.0], [1.0, np.inf]])
def test_trace_rejects_empty_or_non_finite_times(basis20, times):
    with pytest.raises(ValueError, match="sample times"):
        mean_height_trace(basis20, ground_coeffs(basis20), 0.0,
                          KickPulse(0.5, 0.5, 5.0), np.array(times))


def test_trace_rejects_times_out_of_order_or_before_the_state(basis20):
    for times in ([1.0, 2.0, 1.5], [0.5, 2.0]):
        with pytest.raises(ValueError, match="ascending"):
            mean_height_trace(basis20, ground_coeffs(basis20), 1.0,
                              KickPulse(0.5, 0.5, 5.0), np.array(times))


def test_evolve_rejects_end_time_before_the_state(basis20):
    with pytest.raises(ValueError, match="precede"):
        evolve_pulsed(basis20, ground_coeffs(basis20), 5.0,
                      KickPulse(0.5, 0.5, 5.0), 1, 4.0)


@pytest.mark.parametrize("t_to", [np.inf, np.nan])
def test_evolve_rejects_non_finite_end_time(basis20, t_to):
    with pytest.raises(ValueError, match="finite"):
        evolve_pulsed(basis20, ground_coeffs(basis20), 0.0,
                      KickPulse(0.5, 0.5, 5.0), 1, t_to)
