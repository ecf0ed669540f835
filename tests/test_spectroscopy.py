"""Delay scans, spectra, peak extraction, and amplitude retrieval."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbounce import quantum, spectroscopy
from qbounce.pulses import KickPulse
from qbounce.quantum import (DEFAULT_STEPS_PER_SIGMA, evolve_pulsed,
                             ground_state, impulsive_kick_matrix)
from qbounce.spectroscopy import (DelayScan, SpectrumResult,
                                  find_peaks_and_match,
                                  impulsive_scan_analytic, perturbative_scan,
                                  retrieve_amplitudes, scan_delay, spectrum)

from helpers import stacked_overlap_scan

DELAYS = 2.0 + 0.05 * np.arange(961)  # tau in [2, 50]


# ------------------------------------------------------------- scan basics

def test_zero_kicks_leave_ground_state(basis20):
    scan = scan_delay(basis20, KickPulse(0.0, 0.2), KickPulse(0.0, 0.2),
                      DELAYS[:300])
    assert np.allclose(scan.populations, 1.0, rtol=0, atol=1e-11)


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


def test_overlap_flagging(basis20):
    scan = scan_delay(basis20, KickPulse(0.5, 0.3), KickPulse(0.5, 0.3),
                      np.arange(0.5, 10.0, 0.5))
    assert np.array_equal(scan.overlap, scan.delays < 3.0 * 0.6)


def test_mismatched_kick_kinds_rejected(basis20):
    with pytest.raises(ValueError):
        scan_delay(basis20, KickPulse(0.5, 0.2, kind="magnetic"),
                   KickPulse(0.5, 0.2, kind="shake"), DELAYS[:300])


def test_nonuniform_grid_rejected():
    with pytest.raises(ValueError):
        DelayScan(np.array([0.0, 1.0, 3.0]), np.ones(3), "magnetic")


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9])
def test_population_outside_unit_interval_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DelayScan(np.array([1.0, 2.0, 3.0]), np.array([0.5, bad, 0.5]),
                  "magnetic")


# ------------------------------------------------------- stepping oracle

def _direct_population(basis, pulse1, pulse2, tau, spin,
                       steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """|c_1|^2 from one evolve_pulsed run that starts and ends far outside
    both pulse windows."""
    kicks = [KickPulse(pulse1.amplitude, pulse1.width, 0.0, pulse1.kind),
             KickPulse(pulse2.amplitude, pulse2.width, tau, pulse2.kind)]
    state = evolve_pulsed(ground_state(basis, time=-10.0), basis, kicks, spin,
                          tau + 10.0, steps_per_sigma)
    return float(abs(state.coeffs[0]) ** 2)


PER_DELAY_KICKS = [("magnetic", 1, 2.0, 1.0), ("magnetic", -1, 2.0, 1.0),
                   ("shake", 1, 0.6, 0.1)]


@pytest.mark.parametrize("kind,spin,a1,a2", PER_DELAY_KICKS)
def test_scan_matches_per_delay_evolution(basis20, kind, spin, a1, a2):
    """Overlapping delays (tau < 2.4) and one separated delay against one
    evolve_pulsed run per delay."""
    p1, p2 = KickPulse(a1, 0.2, kind=kind), KickPulse(a2, 0.2, kind=kind)
    delays = 0.3 + 0.5 * np.arange(6)  # the last one, 2.8, is separated
    scan = scan_delay(basis20, p1, p2, delays, spin_average=False, spin=spin)
    direct = [_direct_population(basis20, p1, p2, tau, spin) for tau in delays]
    assert np.max(np.abs(scan.populations - direct)) < 1e-10


@pytest.mark.parametrize("sigma1,sigma2", [(0.1, 0.5), (0.5, 0.1)])
def test_overlapping_scan_covers_both_pulses(basis20, sigma1, sigma2):
    """Unequal widths: the run starts before the head of the earlier window
    and ends after the tail of the later one."""
    p1, p2 = KickPulse(2.0, sigma1), KickPulse(1.0, sigma2)
    scan = scan_delay(basis20, p1, p2, np.array([0.5]))
    direct = np.mean([_direct_population(basis20, p1, p2, 0.5, s)
                      for s in (1, -1)])
    assert abs(scan.populations[0] - direct) < 1e-10


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
    scan = scan_delay(basis20, p1, p2, np.array([tau]), spin_average=False,
                      spin=spin, steps_per_sigma=100)
    direct = _direct_population(basis20, p1, p2, tau, spin, 100)
    assert abs(scan.populations[0] - direct) < 1e-10


STRONGEST_KICKS = [("magnetic", 2.5, 1.25), ("shake", 0.75, 0.125)]
CLOSE_GRIDS = [2.0 + 0.05 * np.arange(8), 2.0123 + 0.05 * np.arange(8),
               np.array([2.4 - 1e-9])]


@pytest.mark.parametrize("kind,a1,a2", STRONGEST_KICKS)
def test_overlap_runs_match_stacked_run(basis50, kind, a1, a2):
    """The strongest benchmark kicks on tau in [2, 2.4), on and off the step
    nodes: within 2e-9 of one stacked run over every delay, and no farther
    from a 200-steps-per-sigma scan than that run is."""
    p1, p2 = KickPulse(a1, 0.2, kind=kind), KickPulse(a2, 0.2, kind=kind)
    for delays in CLOSE_GRIDS:
        new = scan_delay(basis50, p1, p2, delays).populations
        old = stacked_overlap_scan(basis50, p1, p2, delays)
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

    def spy(basis, c, f_mid, ops, nodes=None):
        if nodes is None:  # not the v or row run, which every delay shares
            seen.append(len(f_mid) * (c.shape[1] if c.ndim == 2 else 1))
        return sub_steps(basis, c, f_mid, ops, nodes)

    monkeypatch.setattr(quantum, "_sub_steps", spy)
    monkeypatch.setattr(spectroscopy, "_sub_steps", spy)
    p1, p2 = KickPulse(2.0, 0.2), KickPulse(1.0, 0.2)
    delays = DELAYS[DELAYS <= 3.0]
    close = delays[delays < p1.window[1] + p2.window[1]]
    assert len(close) == 9
    scan_delay(basis20, p1, p2, delays)
    steps = sum(seen)
    seen.clear()
    stacked_overlap_scan(basis20, p1, p2, close)
    assert 0 < steps <= sum(seen) / 8


# fig4-like and fig6-like kicks, with and without the spin average
BLOCK_CASES = [("magnetic", 2.0, 1.0, True), ("magnetic", 2.0, 1.0, False),
               ("shake", 0.6, 0.1, False)]


@pytest.mark.parametrize("kind,a1,a2,spin_average", BLOCK_CASES)
def test_one_block_run_matches_two_runs(basis50, monkeypatch, kind, a1, a2,
                                        spin_average):
    """Equal widths: v and the row stepped as one block agree within 1e-13
    with the two runs stepped apart, on close and separated delays, on and
    off the step nodes."""
    sub_steps = quantum._sub_steps
    blocks = []

    def two_runs(basis, c, f_mid, ops, nodes=None):
        if nodes is None:
            return sub_steps(basis, c, f_mid, ops)
        blocks.append(c.shape[1])
        s = c.shape[1] // 2
        return np.concatenate([sub_steps(basis, c[:, :s], f_mid[:, :s], ops,
                                         nodes),
                               sub_steps(basis, c[:, s:], f_mid[:, s:], ops,
                                         nodes)], axis=2)

    p1, p2 = KickPulse(a1, 0.2, kind=kind), KickPulse(a2, 0.2, kind=kind)
    for delays in (2.0 + 0.05 * np.arange(300), 2.0123 + 0.05 * np.arange(300)):
        one = scan_delay(basis50, p1, p2, delays, spin_average=spin_average)
        with monkeypatch.context() as m:
            m.setattr(spectroscopy, "_sub_steps", two_runs)
            two = scan_delay(basis50, p1, p2, delays,
                             spin_average=spin_average)
        assert np.max(np.abs(one.populations - two.populations)) < 1e-13
    assert blocks == [2 * (1 + spin_average)] * 2


@pytest.mark.parametrize("sigma2,runs", [(0.2, 1), (0.5, 2)])
def test_equal_widths_keep_nodes_in_one_run(basis20, monkeypatch, sigma2,
                                            runs):
    """One node-keeping `_sub_steps` call for equal widths, two (v and the
    row) for unequal widths."""
    sub_steps = quantum._sub_steps
    calls = []

    def spy(basis, c, f_mid, ops, nodes=None):
        calls.append(nodes is not None)
        return sub_steps(basis, c, f_mid, ops, nodes)

    monkeypatch.setattr(spectroscopy, "_sub_steps", spy)
    scan_delay(basis20, KickPulse(2.0, 0.2), KickPulse(1.0, sigma2),
               2.0 + 0.05 * np.arange(40))
    assert sum(calls) == runs


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
    spec = spectrum(scan, window="hann")
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
    scan = DelayScan(delays, pops, "magnetic")
    spec = spectrum(scan, window="hann")
    out = find_peaks_and_match(spec, basis20, 1)
    assert len(out.matches) == 1
    assert out.matches[0].omega_measured == pytest.approx(w, abs=1e-3)
    assert out.matches[0].state == 2


def test_constant_input_has_no_peaks(basis20):
    scan = DelayScan(DELAYS, np.full(len(DELAYS), 0.7), "magnetic")
    spec = spectrum(scan, window="hann")
    out = find_peaks_and_match(spec, basis20, 3)
    assert out.matches == []


def test_spectrum_without_window():
    pops = 0.5 + 0.1 * np.cos(1.75 * DELAYS)
    spec = spectrum(DelayScan(DELAYS, pops, "magnetic"), window="none",
                    zero_pad_factor=1)
    assert np.array_equal(spec.amplitudes,
                          np.abs(np.fft.rfft(pops - pops.mean())))


def test_spectrum_rejects_unknown_window():
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS), "magnetic")
    with pytest.raises(ValueError, match="unknown window"):
        spectrum(scan, window="blackman")


def test_spectrum_requires_enough_samples():
    scan = DelayScan(np.arange(100.0), np.ones(100), "magnetic")
    with pytest.raises(ValueError):
        spectrum(scan)


def test_zero_padding_refines_frequency_grid(basis20):
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS), "magnetic")
    coarse = spectrum(scan, zero_pad_factor=1)
    fine = spectrum(scan, zero_pad_factor=8)
    ratio = (coarse.frequencies[1] - coarse.frequencies[0]) / \
        (fine.frequencies[1] - fine.frequencies[0])
    assert ratio == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("factor", [0, -1, 2.5])
def test_zero_padding_must_be_a_positive_integer(factor):
    scan = DelayScan(DELAYS, 0.5 + 0.1 * np.cos(1.75 * DELAYS), "magnetic")
    with pytest.raises(ValueError, match="zero_pad_factor"):
        spectrum(scan, zero_pad_factor=factor)


def test_doubling_tau_max_halves_grid_spacing(basis20):
    short = DelayScan(DELAYS, 0.5 + 0.5 * np.cos(DELAYS), "magnetic")
    longer_delays = 2.0 + 0.05 * np.arange(2 * len(DELAYS) - 40)
    longer = DelayScan(longer_delays, 0.5 + 0.5 * np.cos(longer_delays),
                       "magnetic")
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
    amps, residual = retrieve_amplitudes(scan, basis20, 4)
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
    amps, _ = retrieve_amplitudes(scan, basis20, 3)
    assert all(a.magnitude < 1e-4 for a in amps)


def test_retrieval_rejects_unresolvable_lines(basis20):
    # tau range far too short to separate adjacent transition frequencies
    delays = 2.0 + 0.001 * np.arange(300)
    scan = DelayScan(delays, np.full(len(delays), 0.9), "magnetic")
    with pytest.raises(np.linalg.LinAlgError):
        retrieve_amplitudes(scan, basis20, 6)
