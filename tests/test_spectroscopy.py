"""Delay scans, spectra, peak extraction, and amplitude retrieval."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounce import quantum, spectroscopy
from qbounce.pulses import InputError, KickPulse
from qbounce.quantum import DEFAULT_STEPS_PER_SIGMA
from qbounce.spectroscopy import (_ZERO_PAD, DelayScan, SpectrumResult,
                                  find_peaks_and_match, retrieve_amplitudes,
                                  scan_delay, spectrum)

from helpers import (evolve_pulsed, ground_coeffs, impulsive_kick_matrix,
                     impulsive_scan_analytic, perturbative_scan,
                     stacked_overlap_scan)

DELAYS = 2.0 + 0.05 * np.arange(961)  # tau in [2, 50]


# ------------------------------------------------------------- scan basics

def test_zero_kicks_leave_ground_state(basis20):
    scan = scan_delay(basis20, KickPulse(0.0, 0.2), KickPulse(0.0, 0.2),
                      DELAYS[:300])
    assert np.allclose(scan.populations, 1.0, rtol=0, atol=1e-11)


def test_zero_kicks_at_unequal_widths_stay_in_bound(basis20):
    """sigma 0.05 and 1.0 share one grid of 4800 steps across [-6, 6], the
    longest zero-kick run here: within the 1e-10 bound `DelayScan`
    allows, on overlapping delays, separated ones with a negative gap
    (tau in [6.3, 12)) and later ones."""
    delays = 0.5 + 2.0 * np.arange(8)
    scan = scan_delay(basis20, KickPulse(0.0, 0.05), KickPulse(0.0, 1.0),
                      delays)
    assert np.allclose(scan.populations, 1.0, rtol=0, atol=1e-10)


def test_single_kick_population_independent_of_delay(basis20):
    scan = scan_delay(basis20, KickPulse(1.0, 0.2), KickPulse(0.0, 0.2),
                      DELAYS[:300])
    assert np.ptp(scan.populations) < 1e-10
    assert scan.populations[0] < 1.0


def test_populations_bounded(basis20):
    scan = scan_delay(basis20, KickPulse(2.0, 0.2), KickPulse(1.0, 0.2),
                      DELAYS)
    assert np.all(scan.populations >= 0.0)
    assert np.all(scan.populations <= 1.0)


def test_mismatched_kick_kinds_rejected(basis20):
    with pytest.raises(ValueError):
        scan_delay(basis20, KickPulse(0.5, 0.2, kind="magnetic"),
                   KickPulse(0.5, 0.2, kind="shake"), DELAYS[:300])


@pytest.mark.parametrize("center1,center2", [(5.0, 0.0), (0.0, -0.3)])
def test_kicks_off_center_rejected(basis20, center1, center2):
    """The scan centers kick 1 at 0 and kick 2 at each delay, so a pulse
    given at another center is refused, not scanned as if at 0."""
    with pytest.raises(InputError, match="centers must be 0"):
        scan_delay(basis20, KickPulse(2.0, 0.2, center1),
                   KickPulse(1.0, 0.2, center2), DELAYS[:300])


def test_nonuniform_grid_rejected():
    """The FFT needs ascending, uniform delays; the scan itself does not."""
    pops = 0.5 + 0.1 * np.cos(1.75 * DELAYS)
    bent = DELAYS.copy()
    bent[100] += 0.01
    for delays, p in ((DELAYS[::-1], pops[::-1]), (bent, pops)):
        scan = DelayScan(delays, p)
        with pytest.raises(ValueError, match="ascending and uniform"):
            spectrum(scan)


def test_scan_on_a_nonuniform_grid_matches_the_uniform_scan(basis20):
    """A draw of a uniform grid's delays, close (tau < 2.4) and separated,
    ascending and shuffled, scans to the uniform scan's populations within
    1e-12."""
    delays = 0.3 + 0.05 * np.arange(400)
    rng = np.random.default_rng(5)
    pick = np.sort(rng.choice(len(delays), 90, replace=False))
    p1, p2 = KickPulse(2.0, 0.2), KickPulse(1.0, 0.2)
    uniform = scan_delay(basis20, p1, p2, delays)
    assert np.any(delays[pick] < 2.4) and np.any(delays[pick] > 2.4)
    for order in (pick, rng.permutation(pick)):
        drawn = scan_delay(basis20, p1, p2, delays[order])
        assert np.max(np.abs(drawn.populations -
                             uniform.populations[order])) < 1e-12


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9, math.nan])
def test_population_outside_unit_interval_rejected(bad):
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        DelayScan(np.array([1.0, 2.0, 3.0]), np.array([0.5, bad, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_delay_rejected(bad):
    with pytest.raises(InputError, match="delays must be finite"):
        DelayScan(np.array([1.0, bad, 3.0]), np.array([0.5, 0.5, 0.5]))


# ------------------------------------------------------- stepping oracle

def _direct_population(basis, pulse1, pulse2, tau, spin,
                       steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """|c_1|^2 from one evolve_pulsed run that starts and ends far outside
    both pulse windows.

    Each window steps at min(sigma_1, sigma_2) / ``steps_per_sigma``, as
    the scan does: a zero-amplitude pulse of the narrower width rides at
    each kick's center.  With unequal widths and separated kicks the wider
    window's step error otherwise differs from the scan's by up to 7e-9
    (sigma 0.1 and 0.5, 40 steps per sigma)."""
    width = min(pulse1.width, pulse2.width)
    kicks = [KickPulse(pulse1.amplitude, pulse1.width, 0.0, pulse1.kind),
             KickPulse(pulse2.amplitude, pulse2.width, tau, pulse2.kind),
             KickPulse(0.0, width, 0.0, pulse1.kind),
             KickPulse(0.0, width, tau, pulse2.kind)]
    c = evolve_pulsed(basis, ground_coeffs(basis), -10.0, kicks, spin,
                      tau + 10.0, steps_per_sigma)
    return float(abs(c[0]) ** 2)


# magnetic spin -1 is scanned as spin +1 with both amplitudes negated, the
# forcing being -s a exp(-(t/sigma)^2)
PER_DELAY_KICKS = [("magnetic", 1, 2.0, 1.0), ("magnetic", -1, 2.0, 1.0),
                   ("shake", 1, 0.6, 0.1)]


def _single_spin_scan(basis, p1, p2, delays, spin, **kw):
    """A spin_average=False scan of ``spin``'s branch."""
    return scan_delay(basis, KickPulse(spin * p1.amplitude, p1.width,
                                       kind=p1.kind),
                      KickPulse(spin * p2.amplitude, p2.width, kind=p2.kind),
                      delays, spin_average=False, **kw)


@pytest.mark.parametrize("kind,spin,a1,a2", PER_DELAY_KICKS)
def test_scan_matches_per_delay_evolution(basis20, kind, spin, a1, a2):
    """Overlapping delays (tau < 2.4) and one separated delay against one
    evolve_pulsed run per delay."""
    p1, p2 = KickPulse(a1, 0.2, kind=kind), KickPulse(a2, 0.2, kind=kind)
    delays = 0.3 + 0.5 * np.arange(6)  # the last one, 2.8, is separated
    scan = _single_spin_scan(basis20, p1, p2, delays, spin)
    direct = [_direct_population(basis20, p1, p2, tau, spin) for tau in delays]
    assert np.max(np.abs(scan.populations - direct)) < 1e-10


@pytest.mark.parametrize("sigma1,sigma2", [(0.1, 0.5), (0.5, 0.1)])
def test_overlapping_scan_covers_both_pulses(basis20, sigma1, sigma2):
    """Unequal widths on one step grid across [-3, 3]: overlapping delays,
    where the run starts before the head of the earlier window and ends
    after the tail of the later one, separated delays in [3.6, 6) (4.1 and
    5.3), whose gap tau - 6 is negative, and one beyond."""
    p1, p2 = KickPulse(2.0, sigma1), KickPulse(1.0, sigma2)
    delays = 0.5 + 1.2 * np.arange(6)
    scan = scan_delay(basis20, p1, p2, delays)
    direct = [np.mean([_direct_population(basis20, p1, p2, tau, s)
                       for s in (1, -1)]) for tau in delays]
    assert np.max(np.abs(scan.populations - direct)) < 1e-10


@pytest.mark.parametrize("sigma1,sigma2", [(0.2, 0.2), (0.1, 0.5)])
def test_spin_average_is_mean_of_single_spins(basis20, sigma1, sigma2):
    """The spin-averaged scan against the mean of the +a and -a
    single-spin scans."""
    p1, p2 = KickPulse(2.0, sigma1), KickPulse(1.0, sigma2)
    delays = 0.3 + 0.5 * np.arange(16)
    both = scan_delay(basis20, p1, p2, delays).populations
    mean = np.mean([_single_spin_scan(basis20, p1, p2, delays, s).populations
                    for s in (1, -1)], axis=0)
    assert np.max(np.abs(both - mean)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(PER_DELAY_KICKS), sigma1=st.floats(0.1, 0.5),
       sigma2=st.floats(0.1, 0.5),
       share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_any_overlapping_delay_matches_per_delay_evolution(
        basis20, case, sigma1, sigma2, share):
    """Any widths and any overlapping delay, on or off the step nodes.

    Both sides take 100 steps per sigma: at 40 the shake kicks' step error
    is ~1e-7, and two runs whose step grids are offset differ by up to
    ~1e-9 of it."""
    kind, spin, a1, a2 = case
    p1, p2 = KickPulse(a1, sigma1, kind=kind), KickPulse(a2, sigma2, kind=kind)
    tau = share * (p1.window[1] + p2.window[1])
    scan = _single_spin_scan(basis20, p1, p2, np.array([tau]), spin,
                             steps_per_sigma=100)
    direct = _direct_population(basis20, p1, p2, tau, spin, 100)
    assert abs(scan.populations[0] - direct) < 1e-10


STRONGEST_KICKS = [("magnetic", 2.5, 1.25), ("shake", 0.75, 0.125)]
CLOSE_GRIDS = [2.0 + 0.05 * np.arange(8), 2.0123 + 0.05 * np.arange(8),
               np.array([2.4 - 1e-9])]


@pytest.mark.parametrize("kind,a1,a2", STRONGEST_KICKS)
def test_overlap_runs_match_stacked_run(basis50, kind, a1, a2):
    """The strongest benchmark kicks on tau in [2, 2.4), on and off the step
    nodes: within 2e-9 of one stacked run over every delay, and no farther
    from a 200-steps-per-sigma scan than that run is.  Both runs take 40
    steps per sigma, where the bounds were measured: at 20 the off-node
    shake grid's two runs are 1.2e-8 apart, each 1.2e-6 from the fine scan."""
    p1, p2 = KickPulse(a1, 0.2, kind=kind), KickPulse(a2, 0.2, kind=kind)
    for delays in CLOSE_GRIDS:
        new = scan_delay(basis50, p1, p2, delays,
                         steps_per_sigma=40).populations
        old = stacked_overlap_scan(basis50, p1, p2, delays,
                                   steps_per_sigma=40)
        fine = scan_delay(basis50, p1, p2, delays,
                          steps_per_sigma=200).populations
        assert np.max(np.abs(new - old)) < 2e-9
        assert (np.max(np.abs(new - fine)) <=
                1.1 * np.max(np.abs(old - fine)))


def test_overlap_runs_step_an_eighth_of_the_stacked_run(basis20, monkeypatch):
    """Sub-steps x columns of the overlapping delays in a fig4-like scan,
    against one stacked run over the same delays."""
    seen = []
    sub_steps = quantum._sub_steps

    def spy(basis, c, f_mid, runs, nodes, signs=(1,)):
        # not the [v | row] block, one column per spin and run, which
        # every delay shares
        if c.shape[-1] != 2 * len(signs):
            seen.append(len(f_mid) * c.shape[-1])
        return sub_steps(basis, c, f_mid, runs, nodes, signs)

    monkeypatch.setattr(spectroscopy, "_sub_steps", spy)
    monkeypatch.setattr(quantum, "_sub_steps", spy)  # the stacked run
    p1, p2 = KickPulse(2.0, 0.2), KickPulse(1.0, 0.2)
    delays = DELAYS[DELAYS <= 3.0]
    close = delays[delays < p1.window[1] + p2.window[1]]
    assert len(close) == 9
    scan_delay(basis20, p1, p2, delays)
    steps = sum(seen)
    seen.clear()
    stacked_overlap_scan(basis20, p1, p2, close)
    assert 0 < steps <= sum(seen) / 8


def test_forward_sum_partial_block_holds_no_stale_rows(basis50):
    """fig4's grid: 9 close delays and 2952 separated ones, so the forward
    sum's last block holds the last 136 delays, after 11 full blocks.
    Scanned on their own they fill a fresh block's first rows, and give
    the full scan's populations bitwise: the rows the block held before
    reach no value."""
    delays = 2.0 + 0.05 * np.arange(2961)
    p1, p2 = KickPulse(2.0, 0.2), KickPulse(1.0, 0.2)
    close = delays < p1.window[1] + p2.window[1]
    assert close.sum() == 9
    assert (len(delays) - 9) % quantum._ROWS == 136
    full = scan_delay(basis50, p1, p2, delays).populations
    tail = scan_delay(basis50, p1, p2, delays[-136:]).populations
    assert np.array_equal(full[-136:], tail)


# fig4-like and fig6-like kicks, with and without the spin average
BLOCK_CASES = [("magnetic", 2.0, 1.0, True), ("magnetic", 2.0, 1.0, False),
               ("shake", 0.6, 0.1, False)]


@pytest.mark.parametrize("kind,a1,a2,spin_average", BLOCK_CASES)
def test_one_block_run_matches_two_runs(basis50, monkeypatch, kind, a1, a2,
                                        spin_average):
    """Equal and unequal widths: v and the row stepped as one block agree
    within 1e-13 with the two runs stepped apart, on close and separated
    delays, on and off the step nodes."""
    sub_steps = quantum._sub_steps
    blocks = []

    def two_runs(basis, c, f_mid, runs, nodes, signs=(1,)):
        if c.shape[2] != 2 * len(signs):  # a close delay's run
            return sub_steps(basis, c, f_mid, runs, nodes, signs)
        blocks.append(c.shape[2])
        s = c.shape[2] // 2
        return np.concatenate([sub_steps(basis, c[:, :, :s], f_mid[:, :1],
                                         runs, nodes, signs),
                               sub_steps(basis, c[:, :, s:], f_mid[:, 1:],
                                         runs, nodes, signs)], axis=3)

    grids = [(0.2, 0.2, 2.0 + 0.05 * np.arange(300)),
             (0.2, 0.2, 2.0123 + 0.05 * np.arange(300)),
             (0.2, 0.5, 2.0123 + 0.05 * np.arange(100))]
    for sigma1, sigma2, delays in grids:
        p1 = KickPulse(a1, sigma1, kind=kind)
        p2 = KickPulse(a2, sigma2, kind=kind)
        one = scan_delay(basis50, p1, p2, delays, spin_average=spin_average)
        with monkeypatch.context() as m:
            m.setattr(spectroscopy, "_sub_steps", two_runs)
            two = scan_delay(basis50, p1, p2, delays,
                             spin_average=spin_average)
        assert np.max(np.abs(one.populations - two.populations)) < 1e-13
    assert blocks == [2 * (1 + spin_average)] * len(grids)


@pytest.mark.parametrize("sigma1,sigma2", [(0.2, 0.2), (0.2, 0.5),
                                           (0.5, 0.2)])
def test_any_widths_keep_nodes_in_one_run(basis20, monkeypatch, sigma1,
                                          sigma2):
    """One node-keeping `_sub_steps` call, v and the row as one block, at
    equal and at unequal widths; each close delay then takes one call of
    its own, from its node of v, one column per spin."""
    sub_steps = quantum._sub_steps
    calls = []

    def spy(basis, c, f_mid, runs, nodes, signs=(1,)):
        calls.append((len(nodes) > 1, c.shape[-1]))
        return sub_steps(basis, c, f_mid, runs, nodes, signs)

    monkeypatch.setattr(spectroscopy, "_sub_steps", spy)
    p1, p2 = KickPulse(2.0, sigma1), KickPulse(1.0, sigma2)
    delays = 2.0 + 0.05 * np.arange(40)
    scan_delay(basis20, p1, p2, delays)
    close = np.sum(delays < p1.window[1] + p2.window[1])
    assert close > 0
    # [v | row] for both spins, then one run per close delay
    assert calls == [(True, 4)] + [(False, 2)] * close


# ------------------------------------------------------- impulsive oracle

def test_impulsive_scan_matches_paper_sum(basis20):
    """Equal kicks: |c_1|^2 from the closed sum over P^2_1i phases."""
    alpha = 0.3
    p = impulsive_kick_matrix(basis20, alpha, 1)
    expected = np.abs(np.exp(-1j * np.outer(DELAYS, basis20.zeros))
                      @ (p[0, :] * p[:, 0])) ** 2
    scan = impulsive_scan_analytic(basis20, alpha, alpha, DELAYS,
                                   spin_average=False)
    assert np.max(np.abs(scan.populations - expected)) < 1e-14


def test_impulsive_scan_zero_area(basis20):
    scan = impulsive_scan_analytic(basis20, 0.0, 0.0, DELAYS)
    assert np.allclose(scan.populations, 1.0, rtol=0, atol=1e-14)


def test_short_pulse_scan_reaches_impulsive_limit(basis50):
    """scan_delay with sigma = 1e-3 against the analytic impulsive scan."""
    sigma = 1e-3
    area1, area2 = 0.4, 0.25
    delays = DELAYS[:600]
    scan = scan_delay(basis50,
                      KickPulse(area1 / (sigma * math.sqrt(math.pi)), sigma),
                      KickPulse(area2 / (sigma * math.sqrt(math.pi)), sigma),
                      delays)
    analytic = impulsive_scan_analytic(basis50, area1, area2, delays)
    assert np.max(np.abs(scan.populations - analytic.populations)) < 1e-4


# ----------------------------------------------------- perturbative oracle

def test_perturbative_matches_full_scan_weak_magnetic(basis50):
    """alpha = 0.05 kicks: first-order result within 1e-3 of the full scan."""
    sigma = 0.2
    amp = 0.05 / (sigma * math.sqrt(math.pi))
    p1 = KickPulse(amp, sigma)
    p2 = KickPulse(amp, sigma)
    full = scan_delay(basis50, p1, p2, DELAYS)
    pert = perturbative_scan(basis50, p1, p2, DELAYS)
    assert np.max(np.abs(full.populations - pert.populations)) < 1e-3


def test_perturbative_matches_full_scan_weak_shake(basis50):
    sigma = 0.2
    p1 = KickPulse(0.02, sigma, kind="shake")
    p2 = KickPulse(0.02, sigma, kind="shake")
    full = scan_delay(basis50, p1, p2, DELAYS, spin_average=False)
    pert = perturbative_scan(basis50, p1, p2, DELAYS, spin_average=False)
    assert np.max(np.abs(full.populations - pert.populations)) < 1e-3


def test_perturbative_zero_kick_is_flat(basis20):
    scan = perturbative_scan(basis20, KickPulse(0.0, 0.2), KickPulse(0.0, 0.2),
                             DELAYS)
    assert np.allclose(scan.populations, 1.0, rtol=0, atol=1e-15)


def test_perturbative_contains_only_ground_transitions(basis20):
    """No excited-excited difference lines (the first-order truncation)."""
    delays = 2.0 + 0.05 * np.arange(4001)
    scan = perturbative_scan(basis20, KickPulse(1.0, 0.2), KickPulse(0.5, 0.2),
                             delays)
    spec = spectrum(scan)
    w21 = basis20.zeros[1] - basis20.zeros[0]
    w32 = basis20.zeros[2] - basis20.zeros[1]  # strongest absent line, 1.433
    main = spec.amplitudes[np.argmin(np.abs(spec.frequencies - w21))]
    near_w32 = np.abs(spec.frequencies - w32) < 0.05
    assert spec.amplitudes[near_w32].max() < 0.01 * main


# ---------------------------------------------------------------- spectra

def test_pure_tone_spectrum_peak(basis20):
    delays = 2.0 + 0.05 * np.arange(2961)
    w = 1.7498420336710598
    pops = 0.5 + 0.25 * np.cos(w * delays)
    scan = DelayScan(delays, pops)
    spec = spectrum(scan)
    out = find_peaks_and_match(spec, basis20.zeros, 1)
    assert len(out) == 1
    assert out[0].omega_measured == pytest.approx(w, abs=1e-3)
    assert out[0].state == 2


def test_a_two_state_basis_has_one_line(basis20):
    """M = 2 has one line and no line spacing: its peak still matches."""
    w = basis20.zeros[1] - basis20.zeros[0]
    scan = DelayScan(DELAYS, 0.5 + 0.25 * np.cos(w * DELAYS))
    [match] = find_peaks_and_match(spectrum(scan), basis20.zeros[:2], 1)
    assert match.state == 2
    assert match.omega_measured == pytest.approx(w, abs=1e-3)


def test_constant_input_has_no_peaks(basis20):
    """The mean-subtracted input is rounding noise: its maxima clear the
    relative floor of 1e-4 x the strongest one, not the absolute one."""
    scan = DelayScan(DELAYS, np.full(len(DELAYS), 0.7))
    assert find_peaks_and_match(spectrum(scan), basis20.zeros, 3) == []


def test_zero_kick_scan_has_no_peaks(basis20):
    delays = 2.0 + 0.05 * np.arange(300)
    scan = scan_delay(basis20, KickPulse(0.0, 0.2), KickPulse(0.0, 0.2),
                      delays)
    assert np.ptp(scan.populations) > 0  # rounding, not an exact constant
    assert find_peaks_and_match(spectrum(scan), basis20.zeros, 3) == []


def test_line_floor_is_the_height_of_a_rounding_sized_oscillation(basis20):
    """An oscillation of amplitude 1e-10 peaks at `line_floor` to within
    the Hann window's leakage; a slightly stronger one is a line."""
    w = basis20.zeros[1] - basis20.zeros[0]
    for amp, lines in ((0.9e-10, 0), (1.2e-10, 1)):
        scan = DelayScan(DELAYS, 0.5 + amp * np.cos(w * DELAYS))
        spec = spectrum(scan)
        assert spec.amplitudes.max() == pytest.approx(
            amp / 1e-10 * spec.line_floor, rel=0.02)
        assert len(find_peaks_and_match(spec, basis20.zeros, 1)) == lines


# the ids keep the case names from when the peak floor was an argument too
@pytest.mark.parametrize("count", [0, -2, 20],
                         ids=["0-0.0001", "-2-0.0001", "20-0.0001"])
def test_peak_search_rejects_out_of_range_arguments(basis20, count):
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS))
    with pytest.raises(ValueError, match="count"):
        find_peaks_and_match(spectrum(scan), basis20.zeros, count)


@pytest.mark.parametrize("n_states", [0, -45, 20])
def test_retrieval_rejects_out_of_range_state_counts(basis20, n_states):
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS))
    with pytest.raises(ValueError, match="n_states"):
        retrieve_amplitudes(scan, basis20.zeros, n_states)


def test_spectrum_requires_enough_samples():
    scan = DelayScan(np.arange(100.0), np.ones(100))
    with pytest.raises(ValueError):
        spectrum(scan)


def test_zero_padding_refines_frequency_grid(basis20):
    """The bins are 1/8 of the unpadded FFT's 2 pi / (n dtau) apart."""
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS))
    fine = spectrum(scan)
    coarse = 2.0 * math.pi / (len(DELAYS) * 0.05)
    ratio = coarse / (fine.frequencies[1] - fine.frequencies[0])
    assert _ZERO_PAD == 8
    assert ratio == pytest.approx(8.0, rel=1e-12)


def test_doubling_tau_max_halves_grid_spacing(basis20):
    short = DelayScan(DELAYS, 0.5 + 0.5 * np.cos(DELAYS))
    longer_delays = 2.0 + 0.05 * np.arange(2 * len(DELAYS) - 40)
    longer = DelayScan(longer_delays, 0.5 + 0.5 * np.cos(longer_delays))
    df_short = np.diff(spectrum(short).frequencies[:2])[0]
    df_long = np.diff(spectrum(longer).frequencies[:2])[0]
    assert df_long < 0.52 * df_short


# ---------------------------------------------------------- retrieval

def test_retrieval_round_trip(basis20):
    """Generate an impulsive weak scan, fit it, compare against P itself."""
    alpha = 0.1
    delays = 2.0 + 0.05 * np.arange(2961)
    scan = impulsive_scan_analytic(basis20, alpha, alpha, delays,
                                   spin_average=False)
    p = impulsive_kick_matrix(basis20, alpha, 1)
    # fix the global phase exactly as the retrieval does: P_11 real positive
    gauge = p[0, 0] / abs(p[0, 0])
    amps, residual = retrieve_amplitudes(scan, basis20.zeros, 4)
    # residual carries the genuine second-order (two-photon) content of
    # the scan that the first-order fit model leaves out
    assert residual < 1e-4
    for a in amps[:3]:  # i = 2..4
        truth = p[0, a.state - 1] / gauge
        assert a.magnitude == pytest.approx(abs(truth), rel=1e-3), a.state
        dphi = (a.phase - np.angle(truth)) % math.pi
        dphi = min(dphi, math.pi - dphi)
        assert dphi < 1e-2, a.state
        assert a.phase_ambiguity == math.pi


def test_retrieval_vanishes_with_kick_strength(basis20):
    delays = 2.0 + 0.05 * np.arange(2961)
    scan = impulsive_scan_analytic(basis20, 1e-5, 1e-5, delays,
                                   spin_average=False)
    amps, _ = retrieve_amplitudes(scan, basis20.zeros, 3)
    assert all(a.magnitude < 1e-4 for a in amps)


def test_retrieval_does_not_depend_on_the_delay_order(basis20):
    delays = 2.0 + 0.05 * np.arange(2961)
    scan = impulsive_scan_analytic(basis20, 0.1, 0.1, delays,
                                   spin_average=False)
    backwards = DelayScan(scan.delays[::-1], scan.populations[::-1])
    (amps, residual), (back, back_residual) = (
        retrieve_amplitudes(s, basis20.zeros, 4) for s in (scan, backwards))
    assert abs(residual - back_residual) < 1e-12
    for a, b in zip(amps, back):
        assert a.state == b.state
        assert abs(a.magnitude - b.magnitude) < 1e-12
        assert abs(a.phase - b.phase) < 1e-12


def test_retrieval_of_an_all_zero_scan_raises(basis20):
    """A fitted constant of 0 leaves |P_11|, and so every phase, without a
    reference."""
    scan = DelayScan(DELAYS, np.zeros(len(DELAYS)))
    with pytest.raises(ArithmeticError, match="not positive"):
        retrieve_amplitudes(scan, basis20.zeros, 3)


def test_retrieval_rejects_unresolvable_lines(basis20):
    # tau range far too short to separate adjacent transition frequencies
    delays = 2.0 + 0.001 * np.arange(300)
    scan = DelayScan(delays, np.full(len(delays), 0.9))
    with pytest.raises(np.linalg.LinAlgError):
        retrieve_amplitudes(scan, basis20.zeros, 6)
