"""Acceptance gate: one test per criterion, each printing a PASS line.

Contrast conventions for the echo criteria (4 and 6): the envelope is the
rolling max of the detrended trace over a 9-time-unit window (about one
bounce period), and contrast compares the peak envelope in the echo window
against the mean envelope level in the dead zone.  The echo is physically
broad (its width is set by the dephasing time), so its leading shoulder
reaches the upper edge of the dead zone; the peak-to-baseline reading is
the standard one for that situation.
"""

import math
import time

import numpy as np
import pytest

from qbounce.classical import mean_height_series
from qbounce.cli import main
from qbounce.pulses import KickPulse
from qbounce.quantum import mean_height_trace
from qbounce.spectroscopy import (find_peaks_and_match, retrieve_amplitudes,
                                  scan_delay, spectrum)

from helpers import (ground_coeffs, impulsive_kick_matrix,
                     impulsive_scan_analytic, oscillation_envelope,
                     perturbative_scan)

ENVELOPE_WINDOW = 9.0  # about one bounce period 2 sqrt(20)


def _report(num, detail):
    print(f"acceptance criterion {num}: PASS — {detail}")


def _extract_errors(basis, scan, count=5):
    matches = find_peaks_and_match(spectrum(scan), basis.zeros, count)
    assert len(matches) == count, f"found {len(matches)} of {count} peaks"
    return {m.state: m.rel_error_percent for m in matches}


def _envelope_stats(times, trace, echo_win, dead_win):
    env = oscillation_envelope(times, trace, window=ENVELOPE_WINDOW)
    echo_mask = (times >= echo_win[0]) & (times <= echo_win[1])
    dead_mask = (times >= dead_win[0]) & (times <= dead_win[1])
    k = np.argmax(env[echo_mask])
    return float(times[echo_mask][k]), float(env[echo_mask][k]), \
        float(env[dead_mask].mean())


@pytest.fixture(scope="module")
def fig4_errors(basis50):
    delays = 2.0 + 0.05 * np.arange(2961)  # tau in [2, 150]
    scan = scan_delay(basis50, KickPulse(2.0, 0.2), KickPulse(1.0, 0.2),
                      delays)
    return _extract_errors(basis50, scan)


@pytest.fixture(scope="module")
def fig2_trace(basis50):
    coeffs, _ = basis50.project_gaussian(20.0, 8.0)
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    pulse = KickPulse(0.5, 0.5, 60.0)
    (z_plus, z_minus), finals = mean_height_trace(basis50, coeffs, 0.0,
                                                  [pulse], times)
    avg = 0.5 * (z_plus + z_minus)
    norm_drift = max(abs(np.linalg.norm(f) - 1.0) for f in finals)
    return times, avg, norm_drift


@pytest.fixture(scope="module")
def fig5_trace(basis50):
    pulses = [KickPulse(1.5, 1.0, 0.0, "shake"),
              KickPulse(0.10, 0.16, 150.0, "shake")]
    times = np.arange(-6.0, 470.0 + 1e-9, 0.1)
    (trace,), (final,) = mean_height_trace(basis50, ground_coeffs(basis50),
                                           -6.0, pulses, times)
    return times, trace, abs(np.linalg.norm(final) - 1.0)


def test_criterion_1_transition_frequencies(tmp_path):
    """basis --M 6 reproduces the five transition frequencies in < 1 s."""
    out = tmp_path / "basis.csv"
    start = time.perf_counter()
    assert main(["basis", "--M", "6", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "i,"))]
    omegas = [float(r[3]) for r in rows[1:]]
    # reference values quoted truncated to 3 decimals (z_61 = 6.68454...)
    assert omegas == pytest.approx([1.750, 3.182, 4.449, 5.606, 6.684],
                                   abs=1e-3)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(1, f"z_i1 = {[round(w, 4) for w in omegas]}, "
               f"runtime {elapsed * 1e3:.0f} ms")


def test_criterion_2_magnetic_spectroscopy(fig4_errors):
    """Five extracted magnetic-scan peaks within 2% of the z_i1 lines."""
    assert sorted(fig4_errors) == [2, 3, 4, 5, 6]
    worst = max(abs(e) for e in fig4_errors.values())
    assert worst <= 2.0, f"worst relative error {worst:.3f}%"
    _report(2, f"5 peaks matched, worst |rel error| {worst:.2e}% (gate 2%)")


def test_criterion_3_shake_spectroscopy(basis50):
    """Shake-scan peaks for i = 2..6 within 1.5%."""
    delays = 2.0 + 0.05 * np.arange(2961)
    scan = scan_delay(basis50, KickPulse(0.6, 0.2, kind="shake"),
                      KickPulse(0.1, 0.2, kind="shake"), delays,
                      spin_average=False)
    errors = _extract_errors(basis50, scan)
    assert sorted(errors) == [2, 3, 4, 5, 6]
    worst = max(abs(e) for e in errors.values())
    assert worst <= 1.5, f"worst relative error {worst:.3f}%"
    _report(3, f"5 peaks matched, worst |rel error| {worst:.2e}% (gate 1.5%)")


def test_criterion_4_quantum_echo_timing(fig2_trace):
    """Echo envelope peaks in t in [110, 130]; dead zone at least 2x lower."""
    times, avg, _ = fig2_trace
    t_peak, peak, dead = _envelope_stats(times, avg, (110.0, 130.0),
                                         (90.0, 108.0))
    assert 110.0 <= t_peak <= 130.0
    contrast = peak / dead
    assert contrast >= 2.0, f"contrast {contrast:.2f}"
    _report(4, f"echo peak at t = {t_peak:.1f}, contrast {contrast:.2f} "
               "(gate 2.0)")


def test_criterion_5_shake_echo_timing(fig5_trace):
    """Shake echoes land within +/-10 of t = 300 and t = 450."""
    times, trace, _ = fig5_trace
    t1, _, _ = _envelope_stats(times, trace, (280.0, 320.0), (90.0, 108.0))
    t2, _, _ = _envelope_stats(times, trace, (430.0, 470.0), (90.0, 108.0))
    assert abs(t1 - 300.0) <= 10.0, f"first echo at {t1:.1f}"
    assert abs(t2 - 450.0) <= 10.0, f"second echo at {t2:.1f}"
    _report(5, f"echo peaks at t = {t1:.1f} and {t2:.1f} "
               "(gates 300 +/- 10, 450 +/- 10)")


def test_criterion_6_classical_echo():
    """Classical echo at 2 t_k with 3x contrast, recurrence near 3 t_k."""
    pulse = KickPulse(0.5, 0.5, 60.0)
    times = np.arange(0.0, 200.0 + 1e-9, 0.1)
    series = mean_height_series(20000, 20.0, 0.0, 4.0, 0.125, 7,
                                [pulse], times)
    avg = 0.5 * (series[1][0] + series[-1][0])
    t_peak, peak, dead = _envelope_stats(times, avg, (110.0, 130.0),
                                         (90.0, 108.0))
    contrast = peak / dead
    assert 110.0 <= t_peak <= 130.0
    assert contrast >= 3.0, f"contrast {contrast:.2f}"
    # detectable recurrence near 3 t_k = 180: clears twice the dead-zone level
    _, rec_peak, _ = _envelope_stats(times, avg, (168.0, 192.0), (90.0, 108.0))
    recurrence = rec_peak / dead
    assert recurrence >= 2.0, f"3 t_k peak only {recurrence:.2f}x dead zone"
    _report(6, f"echo at t = {t_peak:.1f}, contrast {contrast:.2f} (gate 3), "
               f"3 t_k recurrence {recurrence:.2f}x dead zone")


def test_criterion_7_oracle_equivalences(basis50, z_quadrature50, fig2_trace,
                                        fig5_trace):
    """Five cross-oracle identities at their stated tolerances."""
    delays = 2.0 + 0.05 * np.arange(961)

    # (a) short-pulse scan against the closed-form impulsive scan, 1e-4
    sigma = 1e-3
    area1, area2 = 0.4, 0.25
    full = scan_delay(basis50,
                      KickPulse(area1 / (sigma * math.sqrt(math.pi)), sigma),
                      KickPulse(area2 / (sigma * math.sqrt(math.pi)), sigma),
                      delays)
    analytic = impulsive_scan_analytic(basis50, area1, area2, delays)
    dev_a = float(np.max(np.abs(full.populations - analytic.populations)))
    assert dev_a < 1e-4

    # (b) perturbative scan against the full scan at alpha = 0.05, 1e-3
    amp = 0.05 / (0.2 * math.sqrt(math.pi))
    p = KickPulse(amp, 0.2)
    dev_b = float(np.max(np.abs(
        scan_delay(basis50, p, p, delays).populations -
        perturbative_scan(basis50, p, p, delays).populations)))
    assert dev_b < 1e-3

    # (c) closed-form position matrix against quadrature, 1e-6, same signs
    closed, quad = basis50.z_matrix[:20, :20], z_quadrature50[:20, :20]
    dev_c = float(np.max(np.abs(closed / quad - 1.0)))
    assert dev_c < 1e-6
    assert np.array_equal(np.sign(closed), np.sign(quad))

    # (d) unitarity drift below 1e-9 over the full echo runs
    dev_d = max(fig2_trace[2], fig5_trace[2])
    assert dev_d < 1e-9

    # (e) retrieval round trip: |P_1i| to 1e-3 relative, phases to 1e-2 mod pi
    alpha = 0.1
    long_delays = 2.0 + 0.05 * np.arange(2961)
    scan = impulsive_scan_analytic(basis50, alpha, alpha, long_delays,
                                   spin_average=False)
    pmat = impulsive_kick_matrix(basis50, alpha, 1)
    gauge = pmat[0, 0] / abs(pmat[0, 0])
    amps, _ = retrieve_amplitudes(scan, basis50.zeros, 4)
    dev_mag, dev_phase = 0.0, 0.0
    for a in amps[:3]:
        truth = pmat[0, a.state - 1] / gauge
        dev_mag = max(dev_mag, abs(a.magnitude / abs(truth) - 1.0))
        dphi = (a.phase - np.angle(truth)) % math.pi
        dev_phase = max(dev_phase, min(dphi, math.pi - dphi))
    assert dev_mag < 1e-3 and dev_phase < 1e-2

    _report(7, f"impulsive {dev_a:.1e} (1e-4), perturbative {dev_b:.1e} "
               f"(1e-3), quadrature {dev_c:.1e} (1e-6), unitarity {dev_d:.1e} "
               f"(1e-9), retrieval {dev_mag:.1e}/{dev_phase:.1e} rad")


def test_criterion_8_resolution_scaling(basis50, fig4_errors):
    """Doubling tau_max strictly reduces every extracted-frequency error."""
    delays = 2.0 + 0.05 * np.arange(5961)  # tau in [2, 300]
    scan = scan_delay(basis50, KickPulse(2.0, 0.2), KickPulse(1.0, 0.2),
                      delays)
    doubled = _extract_errors(basis50, scan)
    for i in sorted(fig4_errors):
        assert abs(doubled[i]) < abs(fig4_errors[i]), \
            f"line {i}: {abs(fig4_errors[i]):.2e}% -> {abs(doubled[i]):.2e}%"
    improvement = [f"{abs(fig4_errors[i]):.1e}->{abs(doubled[i]):.1e}"
                   for i in sorted(fig4_errors)]
    _report(8, "all 5 |rel errors|% strictly reduced: " + ", ".join(improvement))


def test_envelope_matches_rolling_max_loop(fig2_trace):
    """The vectorised envelope equals a per-sample rolling max, bit for bit."""
    times, avg, _ = fig2_trace
    env = oscillation_envelope(times, avg, window=ENVELOPE_WINDOW)
    n = int(round(ENVELOPE_WINDOW / (times[1] - times[0])))
    kernel = np.ones(n) / n
    padded = np.concatenate([avg[n - 1:0:-1], avg, avg[-2:-n - 1:-1]])
    baseline = np.convolve(padded, kernel, mode="same")[n - 1:n - 1 + len(avg)]
    resid = np.abs(avg - baseline)
    half = n // 2
    loop = np.array([resid[max(0, k - half):k + half + 1].max()
                     for k in range(len(resid))])
    assert np.array_equal(env, loop)
