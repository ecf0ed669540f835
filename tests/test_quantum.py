"""Wave-packet propagation: free flight, pulses, impulsive kicks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qbounce import quantum
from qbounce.basis import EigenBasis, build_basis
from qbounce.pulses import KickPulse, merged_windows
from qbounce.quantum import (StateVector, evolve_pulsed, forcing,
                             ground_state, impulsive_kick_matrix,
                             mean_height_trace, pulse_propagator, step_grid,
                             strang_steps)

from helpers import (NormDriftError, direct_free_phases, expectation_z,
                     free_evolve, impulsive_kick, oscillation_envelope,
                     per_run_trace, rk4_window, shake_potential_coefficient,
                     walk_mean_height_trace)


def _two_state(basis):
    c = np.zeros(basis.m, dtype=np.complex128)
    c[0] = c[1] = 1.0 / math.sqrt(2.0)
    return StateVector(c)


# ------------------------------------------------------------ free flight

def test_free_evolve_zero_time_is_identity(basis20):
    s = _two_state(basis20)
    out = free_evolve(s, basis20, 0.0)
    assert np.array_equal(out.coeffs, s.coeffs)


def test_stationary_state_mean_height(basis20):
    s = ground_state(basis20)
    for dt in (0.0, 7.3, 100.0):
        out = free_evolve(s, basis20, dt)
        assert abs(out.coeffs[0]) ** 2 == pytest.approx(1.0, abs=1e-15)
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
    pulsed = evolve_pulsed(s, basis20, [KickPulse(0.0, 0.5, 10.0)], 1, 20.0)
    free = free_evolve(s, basis20, 20.0)
    # thousands of unitary substeps accumulate rounding at the 1e-12 level
    assert np.max(np.abs(pulsed.coeffs - free.coeffs)) < 1e-11


def test_strang_and_rk4_steppers_agree(basis20):
    pulse = KickPulse(0.5, 0.5, 10.0)
    lo, hi = pulse.window
    a = evolve_pulsed(ground_state(basis20, lo), basis20, [pulse], 1, hi)
    b = rk4_window(ground_state(basis20).coeffs, basis20, [pulse], 1, lo, hi)
    # RK4 at 500 steps per sigma is good to ~1e-11: the agreement is the
    # composed steps' error at the default step (measured 1.2e-9)
    assert np.max(np.abs(a.coeffs - b)) < 1e-8


def test_window_error_is_fourth_order(basis20):
    """Halving the step cuts the window error 16x."""
    pulse = KickPulse(2.0, 0.2, 0.0)
    ref = pulse_propagator(basis20, pulse, steps_per_sigma=320)
    err = [np.max(np.abs(pulse_propagator(basis20, pulse, steps_per_sigma=n)
                         - ref)) for n in (10, 20)]
    assert 12.0 < err[0] / err[1] < 20.0


def test_unitarity_through_strong_pulse(basis50):
    coeffs, _ = basis50.project_gaussian(20.0, 8.0)
    s = StateVector(coeffs.astype(complex))
    out = evolve_pulsed(s, basis50, [KickPulse(2.0, 0.5, 10.0)], 1, 25.0)
    assert abs(out.norm - 1.0) < 1e-9


def test_rk4_norm_drift_raises(basis20):
    pulse = KickPulse(40.0, 0.5, 10.0)
    with pytest.raises(NormDriftError):
        rk4_window(ground_state(basis20).coeffs, basis20, [pulse], 1,
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
    direct = evolve_pulsed(StateVector(s.coeffs, lo), basis20, [pulse], 1, hi)
    assert np.max(np.abs(w @ s.coeffs - direct.coeffs)) < 1e-11


@pytest.mark.parametrize("kind", ["magnetic", "shake"])
def test_reversed_steps_give_first_row_of_propagator(basis20, kind):
    """e_1^T W from stepping e_1 with the forcing samples reversed."""
    pulse = KickPulse(0.8, 0.3, 0.0, kind)
    t_mid, h = step_grid(*pulse.window, pulse.width)
    row = strang_steps(basis20, ground_state(basis20).coeffs,
                       forcing([pulse], -1, t_mid)[::-1], h)
    w = pulse_propagator(basis20, pulse, spin=-1)
    assert np.max(np.abs(row - w[0, :])) < 1e-12


def test_reversed_steps_transpose_asymmetric_forcing(basis20):
    """Each Strang sub-step is complex symmetric and the sub-step sizes are
    palindromic, so reversing the forcing transposes the product even when
    the forcing has no time symmetry."""
    pulses = [KickPulse(1.0, 0.2, -0.5), KickPulse(-0.6, 0.3, 0.4)]
    t_mid, h = step_grid(-1.7, 2.2, 0.2, 100)
    f = forcing(pulses, 1, t_mid)
    w = strang_steps(basis20, np.eye(basis20.m, dtype=complex), f, h)
    assert np.max(np.abs(w - w.T)) > 1e-3
    row = strang_steps(basis20, ground_state(basis20).coeffs, f[::-1], h)
    assert np.max(np.abs(row - w[0, :])) < 1e-12


def test_steps_need_three_forcing_samples_each(basis20):
    with pytest.raises(ValueError, match="three samples"):
        strang_steps(basis20, ground_state(basis20).coeffs, np.zeros(4), 0.1)


@settings(max_examples=25, deadline=None)
@given(amplitude=st.floats(-3.0, 3.0), sigma=st.floats(0.05, 0.5),
       kind=st.sampled_from(["magnetic", "shake"]),
       spin=st.sampled_from([1, -1]))
def test_block_steps_equal_column_steps(basis20, amplitude, sigma, kind,
                                        spin):
    """A block of columns, each with its own forcing, steps like each
    column on its own."""
    t_mid, h = step_grid(-6.0 * sigma, 8.0 * sigma, sigma, 50)
    f = np.stack([forcing([KickPulse(amplitude * w, sigma, t0, kind)], spin,
                          t_mid)
                  for w, t0 in ((1.0, 0.0), (-0.5, sigma), (0.25, 2 * sigma))],
                 axis=1)
    c = np.zeros((basis20.m, 3), dtype=complex)
    c[0, 0] = c[1, 1] = 1.0
    c[:, 2] = _two_state(basis20).coeffs
    block = strang_steps(basis20, c, f, h)
    for j in range(3):
        alone = strang_steps(basis20, c[:, j], f[:, j], h)
        assert np.max(np.abs(block[:, j] - alone)) < 1e-13


# -------------------------------------------------------- impulsive kicks

def test_impulsive_kick_zero_area_is_identity(basis20):
    s = _two_state(basis20)
    out = impulsive_kick(s, basis20, 0.0)
    assert np.max(np.abs(out.coeffs - s.coeffs)) < 1e-15


def test_impulsive_kick_matrix_unitary(basis20):
    p = impulsive_kick_matrix(basis20, 0.4431)
    assert np.max(np.abs(p.conj().T @ p - np.eye(basis20.m))) < 1e-10


def test_impulsive_limit_of_integrated_pulse(basis50):
    """A very short pulse with fixed area acts like exp[+i alpha s Z]."""
    alpha = 0.5 * 0.5 * math.sqrt(math.pi)  # area of the echo kick
    sigma = 1e-3
    pulse = KickPulse(alpha / (sigma * math.sqrt(math.pi)), sigma, 0.0)
    s = ground_state(basis50, time=pulse.window[0])
    integrated = evolve_pulsed(s, basis50, [pulse], 1, pulse.window[1])
    # undo the free phases accumulated across the short window
    kicked = impulsive_kick(ground_state(basis50), basis50, alpha)
    kicked = free_evolve(StateVector(kicked.coeffs, pulse.window[0]),
                         basis50, pulse.window[1] - pulse.window[0])
    # the kick happens mid-window: compare with symmetric phase splitting
    half = np.exp(-1j * basis50.zeros * 0.5 *
                  (pulse.window[1] - pulse.window[0]))
    p_int = impulsive_kick_matrix(basis50, alpha)
    expected = half * (p_int @ (half * ground_state(basis50).coeffs))
    assert np.linalg.norm(integrated.coeffs - expected) < 1e-4
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
    s = ground_state(basis20, time=-6.0)
    out = evolve_pulsed(s, basis20, [KickPulse(1.5, 1.0, 0.0, "shake")], 1, 6.0)
    assert abs(out.norm - 1.0) < 1e-9
    assert abs(out.coeffs[0]) ** 2 < 0.999  # the jolt actually excites


# ----------------------------------------------------------- echo physics

def test_wave_packet_collapse_without_kick(basis50):
    """Free anharmonic dephasing: envelope at t=60 under 30% of early value."""
    coeffs, _ = basis50.project_gaussian(20.0, 8.0)
    times = np.arange(0.0, 80.0, 0.1)
    trace, _ = mean_height_trace(basis50, StateVector(coeffs.astype(complex)),
                                 [], 1, times)
    env = oscillation_envelope(times, trace, window=9.0)
    early = env[times < 10].max()
    assert env[np.searchsorted(times, 60.0)] < 0.3 * early


def test_mean_height_trace_matches_pointwise_evolution(basis20):
    s = _two_state(basis20)
    pulse = KickPulse(0.5, 0.5, 5.0)
    times = np.arange(0.0, 15.0, 0.5)
    trace, final = mean_height_trace(basis20, s, [pulse], 1, times)
    for k in (0, 10, 20, len(times) - 1):
        direct = evolve_pulsed(s, basis20, [pulse], 1, float(times[k]))
        assert trace[k] == pytest.approx(expectation_z(direct, basis20),
                                         abs=1e-9)
    assert final.time == times[-1]


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
    trace, final = mean_height_trace(basis20, s, pulses, spin, times)
    ref, ref_final = walk_mean_height_trace(basis20, s, pulses, spin, times)
    assert np.max(np.abs(trace - ref)) < 1e-12
    assert np.max(np.abs(final.coeffs - ref_final.coeffs)) < 1e-12
    assert final.time == times[-1]


def test_walk_through_mixed_widths_matches_rk4(basis20):
    """In a merged window of a narrow and a wide pulse the walk steps at the
    narrow width throughout."""
    pulses = [KickPulse(0.8, 0.2, 5.0), KickPulse(-0.5, 0.4, 6.0)]
    times = np.array([3.0, 4.1, 5.0, 5.9, 7.2, 8.4])  # window [3.6, 8.4]
    s = _two_state(basis20)
    trace, _ = mean_height_trace(basis20, s, pulses, 1, times)
    c, t = free_evolve(s, basis20, 3.6).coeffs, 3.6
    for k in range(1, len(times)):
        c, t = rk4_window(c, basis20, pulses, 1, t, times[k]), times[k]
        assert trace[k] == pytest.approx(
            expectation_z(StateVector(c), basis20), abs=1e-8)


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
    trace, final = mean_height_trace(basis, s, pulses, spin, times)
    ref, ref_final = per_run_trace(basis, s, pulses, spin, times)
    assert np.array_equal(trace, ref)
    assert np.array_equal(final.coeffs, ref_final.coeffs)


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_operators_built_once_per_step_size_and_window(basis20, basis50,
                                                       monkeypatch, case):
    basis, s, pulses, spin, times = _reuse_case(basis20, basis50, case)
    built = []
    build = quantum._operators

    def spy(basis, h):
        built.append(h)
        return build(basis, h)

    monkeypatch.setattr(quantum, "_operators", spy)
    mean_height_trace(basis, s, pulses, spin, times)
    distinct = runs = 0
    for lo, hi, active in merged_windows(pulses, s.time, float(times[-1])):
        inside = times[(times > lo) & (times < hi)]
        edges = np.r_[lo, inside, hi]
        width = min(p.width for p in active)
        sizes = [step_grid(a, b, width)[1] for a, b in zip(edges[:-1], edges[1:])]
        distinct += len(set(sizes))
        runs += len(sizes)
    assert len(built) <= distinct
    assert runs >= 5 * distinct  # many runs share each step size


def test_free_trace_checks_every_rayleigh_bound(basis20):
    """A Z that its eigenvalues do not describe puts <z> outside the
    Rayleigh bounds, also in free flight."""
    z = basis20.z_matrix.copy()
    z[0, 1] += 100.0  # eigh reads the lower triangle only
    skewed = EigenBasis(basis20.m, basis20.zeros, basis20.norms, z)
    with pytest.raises(ArithmeticError, match="outside Z's Rayleigh bounds"):
        mean_height_trace(skewed, _two_state(skewed), [], 1,
                          np.arange(0.0, 5.0, 0.5))


def test_mean_z_rejects_a_non_finite_row(basis20):
    c = np.tile(_two_state(basis20).coeffs, (3, 1))
    c[2, 4] = np.nan
    with pytest.raises(ArithmeticError, match="at sample 2 lies outside"):
        quantum._mean_z(basis20, c)


def test_mean_z_matches_complex_oracle_on_fig2_trace():
    """Real products against the complex c^dag Z c on every sample of the
    fig2 echo at M = 150."""
    basis = build_basis(150)
    c0, _ = basis.project_gaussian(20.0, 8.0)
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    rows = quantum._walk(basis, c0.astype(complex), 0.0,
                         [KickPulse(0.5, 0.5, 60.0)], 1, times,
                         quantum.DEFAULT_STEPS_PER_SIGMA)
    fast = quantum._mean_z(basis, rows)
    oracle = np.array([expectation_z(StateVector(c), basis) for c in rows])
    assert np.max(np.abs(fast - oracle) / oracle) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.complex128, st.tuples(st.integers(1, 8), st.just(20)),
                  elements=st.complex_numbers(min_magnitude=1e-3,
                                              max_magnitude=1e3)))
def test_mean_z_matches_complex_oracle_on_random_rows(basis20, c):
    """Unit-norm rows: within 1e-13 of lambda_max, and inside the Rayleigh
    bounds [lambda_min, lambda_max]."""
    c = c / np.linalg.norm(c, axis=1)[:, None]
    fast = quantum._mean_z(basis20, c)
    oracle = np.array([expectation_z(StateVector(r), basis20) for r in c])
    lam = basis20.z_eigvals
    assert np.all(np.abs(fast - oracle) <= 1e-13 * lam[-1])
    assert np.all((fast >= lam[0] * (1 - 1e-12)) & (fast <= lam[-1] * (1 + 1e-12)))


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
        traces[m], _ = mean_height_trace(b, StateVector(c0.astype(complex)),
                                         [pulse], 1, times)
    assert np.max(np.abs(traces[150] - traces[300])) < 1e-6


def test_expectation_z_two_level_maximum(basis20):
    # at maximal constructive phase: Z11/2 + Z22/2 + |Z12|
    c = np.zeros(basis20.m, dtype=complex)
    c[0] = c[1] = 1.0 / math.sqrt(2.0)
    val = expectation_z(StateVector(c), basis20)
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
    s = StateVector(_two_state(basis20).coeffs, -6.0)
    trace, final = mean_height_trace(basis20, s, pulses, 1, times)
    assert min(built) > 1e-3
    ref, ref_final = walk_mean_height_trace(basis20, s, pulses, 1, times)
    assert np.max(np.abs(trace - ref)) < 1e-12
    assert np.max(np.abs(final.coeffs - ref_final.coeffs)) < 1e-12


# ---------------------------------------------------------- input checks

def test_step_grid_takes_whole_steps_despite_rounding():
    """Gaps an ulp over a whole number of steps take that number: a
    sigma = 0.2 window, and every 0.1 sample run in the fig2 window."""
    t_mid, _ = step_grid(*KickPulse(1.0, 0.2).window, 0.2)
    assert len(t_mid) == 3 * 480
    lo, hi = KickPulse(0.5, 0.5, 60.0).window
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    edges = np.r_[lo, times[(times > lo) & (times < hi)], hi]
    counts = [len(step_grid(a, b, 0.5)[0]) // 3
              for a, b in zip(edges[:-1], edges[1:])]
    assert len(counts) == 60 and set(counts) == {8}
    assert len(step_grid(0.0, 1.0 + 1e-9, 0.5, 4)[0]) == 3 * 9


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_step_grid_needs_a_whole_positive_step_count(steps):
    with pytest.raises(ValueError, match="steps_per_sigma"):
        step_grid(0.0, 1.0, 0.5, steps)


def test_pulse_propagator_rejects_negative_step_count(basis20):
    with pytest.raises(ValueError, match="steps_per_sigma"):
        pulse_propagator(basis20, KickPulse(1.0, 0.5), 1, -1)


def test_trace_and_evolve_accept_a_single_pulse(basis20):
    pulse = KickPulse(0.5, 0.5, 5.0)
    s, times = _two_state(basis20), np.arange(0.0, 10.0, 0.5)
    one, one_final = mean_height_trace(basis20, s, pulse, 1, times)
    listed, listed_final = mean_height_trace(basis20, s, [pulse], 1, times)
    assert np.array_equal(one, listed)
    assert np.array_equal(one_final.coeffs, listed_final.coeffs)
    assert np.array_equal(evolve_pulsed(s, basis20, pulse, 1, 9.5).coeffs,
                          evolve_pulsed(s, basis20, [pulse], 1, 9.5).coeffs)


@pytest.mark.parametrize("times", [[], [0.0, np.nan, 2.0], [1.0, np.inf]])
def test_trace_rejects_empty_or_non_finite_times(basis20, times):
    with pytest.raises(ValueError, match="sample times"):
        mean_height_trace(basis20, ground_state(basis20),
                          KickPulse(0.5, 0.5, 5.0), 1, np.array(times))


def test_trace_rejects_times_out_of_order_or_before_the_state(basis20):
    state = ground_state(basis20, 1.0)
    for times in ([1.0, 2.0, 1.5], [0.5, 2.0]):
        with pytest.raises(ValueError, match="ascending"):
            mean_height_trace(basis20, state, KickPulse(0.5, 0.5, 5.0), 1,
                              np.array(times))


def test_evolve_rejects_end_time_before_the_state(basis20):
    with pytest.raises(ValueError, match="precede"):
        evolve_pulsed(ground_state(basis20, 5.0), basis20,
                      KickPulse(0.5, 0.5, 5.0), 1, 4.0)


@pytest.mark.parametrize("t_to", [np.inf, np.nan])
def test_evolve_rejects_non_finite_end_time(basis20, t_to):
    with pytest.raises(ValueError, match="finite"):
        evolve_pulsed(ground_state(basis20), basis20,
                      KickPulse(0.5, 0.5, 5.0), 1, t_to)
