"""Gaussian pulse bookkeeping shared by both propagators."""

import math

import numpy as np
import pytest

from qbounce import classical, quantum
from qbounce.basis import build_basis
from qbounce.classical import mean_height_series
from qbounce.pulses import (ON_GRID, KickPulse, forcing, merged_windows,
                            run_steps, window_edges)
from qbounce.quantum import mean_height_trace

from helpers import area, ground_coeffs


def test_area_matches_gaussian_integral():
    p = KickPulse(0.5, 0.5, 60.0)
    # numerically integrate the envelope over the full window
    t = np.linspace(*p.window, 200001)
    numeric = np.trapezoid(p.envelope(t), t)
    assert area(p) == pytest.approx(numeric, abs=1e-12)
    assert area(p) == pytest.approx(0.5 * 0.5 * math.sqrt(math.pi), abs=1e-15)


def test_second_derivative_matches_finite_differences():
    p = KickPulse(1.5, 1.0, 0.0, "shake")
    t = np.linspace(-3.0, 3.0, 61)
    h = 1e-5
    fd = (p.envelope(t + h) - 2 * p.envelope(t) + p.envelope(t - h)) / h ** 2
    assert np.max(np.abs(p.envelope_second_derivative(t) - fd)) < 1e-5


def test_second_derivative_integrates_to_zero():
    p = KickPulse(1.5, 1.0, 0.0, "shake")
    t = np.linspace(*p.window, 400001)
    assert np.trapezoid(p.envelope_second_derivative(t), t) == \
        pytest.approx(0.0, abs=1e-12)


def test_invalid_pulses_rejected():
    with pytest.raises(ValueError):
        KickPulse(1.0, 0.0)
    with pytest.raises(ValueError):
        KickPulse(1.0, 0.5, kind="electric")


@pytest.mark.parametrize("fields", [(1.0, math.nan), (1.0, math.inf),
                                    (math.nan, 0.5), (1.0, 0.5, -math.inf)])
def test_non_finite_pulse_fields_rejected(fields):
    with pytest.raises(ValueError, match="finite"):
        KickPulse(*fields)


def test_merged_windows_disjoint():
    p1 = KickPulse(1.0, 0.5, 10.0)
    p2 = KickPulse(1.0, 0.5, 30.0)
    wins = merged_windows([p1, p2], 0.0, 50.0)
    assert [(lo, hi) for lo, hi, _ in wins] == [(7.0, 13.0), (27.0, 33.0)]
    assert wins[0][2] == [p1] and wins[1][2] == [p2]


def test_merged_windows_overlapping_pulses_merge():
    p1 = KickPulse(1.0, 1.0, 10.0)
    p2 = KickPulse(1.0, 1.0, 15.0)
    wins = merged_windows([p1, p2], 0.0, 50.0)
    assert len(wins) == 1
    lo, hi, active = wins[0]
    assert (lo, hi) == (4.0, 21.0)
    assert set(id(p) for p in active) == {id(p1), id(p2)}


def test_merged_windows_clip_to_range():
    p = KickPulse(1.0, 0.5, 1.0)   # window [-2, 4]
    wins = merged_windows([p], 0.0, 2.0)
    assert wins == [(0.0, 2.0, [p])]
    assert merged_windows([p], 10.0, 20.0) == []


@pytest.mark.parametrize("kind", ["magnetic", "shake"])
@pytest.mark.parametrize("spin", [1, -1])
def test_forcing_acts_on_the_closed_window_only(kind, spin):
    """-s beta(t) (magnetic) or h''(t)/2 (shake) on the closed window,
    both end points included, and zero an ulp outside it."""
    p = KickPulse(0.7, 0.3, 2.0, kind)
    lo, hi = p.window
    t = np.r_[lo - 1.0, np.nextafter(lo, -np.inf), np.linspace(lo, hi, 101),
              np.nextafter(hi, np.inf), hi + 1.0]
    f = forcing([p], spin, t)
    inside = f[2:-2]
    kick = (-spin * p.envelope(t[2:-2]) if kind == "magnetic"
            else 0.5 * p.envelope_second_derivative(t[2:-2]))
    assert np.array_equal(inside, kick)
    assert inside[0] != 0.0 and inside[-1] != 0.0  # both end points act
    assert np.all(f[[0, 1, -2, -1]] == 0.0)


def test_forcing_of_two_pulses_is_the_sum_of_their_windows():
    """Overlapping windows: each pulse adds its own forcing on its own
    window, so past the end of the first only the second acts."""
    first, second = KickPulse(0.8, 0.3, 4.0), KickPulse(0.6, 0.4, 5.0, "shake")
    t = np.linspace(1.0, 8.0, 701)
    both = forcing([first, second], -1, t)
    assert np.array_equal(both, forcing([first], -1, t) +
                          forcing([second], -1, t))
    past = t > first.window[1]
    assert past.any() and np.array_equal(both[past],
                                         forcing([second], -1, t[past]))


@pytest.mark.parametrize("times,edges,stop", [
    ([7.0], [2.0, 6.0], 0),
    ([3.0, 6.0, 7.0], [2.0, 3.0, 6.0], 2),
    ([3.0, 6.0 - 1e-12, 7.0], [2.0, 3.0, 6.0], 2),
    ([3.0, 6.0 - 1e-11, 7.0], [2.0, 3.0, 6.0 - 1e-11, 6.0], 2),
])
def test_window_edges_land_on_the_samples_inside(times, edges, stop):
    """Runs end at the samples in (lo, hi] and at hi: none inside, one on
    hi, one within a relative 1e-12 of hi (of its run's 3.0), taken at hi,
    and one just outside that."""
    got, start, end = window_edges(np.array([1.0, 2.0] + times), 2.0, 6.0)
    assert got.tolist() == edges and (start, end) == (2, 2 + stop)


def test_sample_on_a_window_end_after_a_short_gap_takes_no_empty_run(
        monkeypatch):
    """hi = 2.7 and a sample on hi 1e-4 after the one before: the gap is
    under ulp(hi) / ON_GRID, so hi - ON_GRID * gap rounds to hi itself.
    The sample is still taken at hi, and neither stepper, quantum or
    classical, takes a step of length 0."""
    pulse = KickPulse(0.5, 0.45, 0.0)
    hi = pulse.window[1]
    assert hi - ON_GRID * 1e-4 == hi
    times = np.array([0.5, hi - 1e-4, hi, 3.0])
    edges, start, stop = window_edges(times, 0.0, hi)
    assert edges.tolist() == [0.0, 0.5, hi - 1e-4, hi]
    assert (start, stop) == (0, 3)
    steps = []
    for module in (quantum, classical):
        monkeypatch.setattr(module, "run_steps", lambda *a: steps.append(
            run_steps(*a)[1]) or run_steps(*a))
    basis = build_basis(10)
    mean_height_trace(basis, ground_coeffs(basis), 0.0, [pulse], times)
    mean_height_series(50, 20.0, 0.0, 4.0, 0.125, 1, [pulse], times)
    assert len(steps) == 3  # the trace's one run, the series' one per spin
    assert all(len(h) == 3 and h.min() > 1e-5 for h in steps)
