"""Gaussian kick pulses and the one kick model both propagators share.

`forcing` gives the f(t) of the quantum Hamiltonian diag(z_i) + f Z and of
the classical acceleration -2 - 2 f: -s beta(t) for magnetic kicks, h''/2
for shakes (comoving frame, see README), each on its closed window only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

__all__ = ["InputError", "KickPulse", "ON_GRID", "WINDOW_SIGMAS",
           "check_step_count", "forcing", "merged_windows", "run_steps",
           "sample_grid", "spin_branches", "whole_steps", "window_edges"]

# a pulse acts on |t - t_k| <= 6 sigma; the Gaussian tail beyond is < 1e-15
WINDOW_SIGMAS = 6.0
# a step count within this relative distance of a whole number is that number
ON_GRID = 1e-12


class InputError(ValueError):
    """A value the caller gave fails its check; the CLI exits 1."""


@dataclass(frozen=True)
class KickPulse:
    """One Gaussian pulse: amplitude * exp[-(t - center)^2 / width^2].

    ``kind`` selects the coupling: "magnetic" is the gradient potential
    -s * beta(t) * z; "shake" is a surface displacement h(t) of this shape.
    """

    amplitude: float
    width: float
    center: float = 0.0
    kind: str = "magnetic"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.width, self.center))):
            raise InputError("pulse amplitude, width and center must be finite")
        if self.width <= 0:
            raise InputError("pulse width must be positive")
        if self.kind not in ("magnetic", "shake"):
            raise InputError(f"unknown pulse kind: {self.kind!r}")

    @property
    def window(self) -> tuple[float, float]:
        half = WINDOW_SIGMAS * self.width
        return (self.center - half, self.center + half)

    def envelope(self, t):
        """beta(t) for magnetic pulses, h(t) for shakes."""
        t = np.asarray(t, dtype=np.float64)
        return self.amplitude * np.exp(-((t - self.center) / self.width) ** 2)

    def envelope_second_derivative(self, t):
        """d^2/dt^2 of the envelope (drives the comoving-frame shake force)."""
        t = np.asarray(t, dtype=np.float64)
        u = (t - self.center) / self.width
        return self.amplitude / self.width ** 2 * (4.0 * u ** 2 - 2.0) * np.exp(-u ** 2)


def forcing(pulses, spin: int, t):
    """f(t) of ``pulses`` for ``spin``, each pulse zero outside its closed
    window |t - t_k| <= 6 sigma_k."""
    t = np.asarray(t, dtype=np.float64)
    f = np.zeros_like(t)
    for p in pulses:
        lo, hi = p.window
        kick = (-spin * p.envelope(t) if p.kind == "magnetic"
                else 0.5 * p.envelope_second_derivative(t))
        f = f + np.where((t >= lo) & (t <= hi), kick, 0.0)
    return f


def check_step_count(steps_per_sigma):
    """Raise InputError unless ``steps_per_sigma`` is an integer >= 1."""
    if (isinstance(steps_per_sigma, bool)
            or not isinstance(steps_per_sigma, numbers.Integral)
            or steps_per_sigma < 1):
        raise InputError("steps_per_sigma must be an integer >= 1, got "
                         f"{steps_per_sigma!r}")


def _check_sample_times(times, t_from):
    """``times`` as a float64 array; raise InputError unless it is a
    non-empty 1-d array of finite values, ascending from ``t_from`` on."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or not len(times) or not np.all(np.isfinite(times)):
        raise InputError("sample times must be a non-empty 1-d array of "
                         "finite values")
    if np.any(np.diff(times) <= 0) or times[0] < t_from:
        raise InputError("sample times must be ascending and start at or "
                         f"after {t_from}")
    return times


def whole_steps(length: float, dt: float) -> int:
    """Equal steps of at most ``dt`` across ``length``: ceil(length / dt),
    but a length within a relative ``ON_GRID`` of whole steps takes that
    many, so rounding in the ends of the span does not add one."""
    return max(1, math.ceil(length / dt * (1.0 - ON_GRID)))


def sample_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start + step k up to ``stop``: a ``stop`` within a relative
    ``ON_GRID`` of whole steps from ``start`` is on the grid, as in
    `whole_steps`, and no point lies past it by more than rounding."""
    n = math.floor((stop - start) / step * (1.0 + ON_GRID)) + 1
    return start + step * np.arange(n)


def run_steps(edges, width: float, steps_per_sigma: int):
    """Steps (n, h) of the runs between consecutive ``edges``: run r takes
    n_r steps of h_r, the largest step that is at most width /
    steps_per_sigma and divides its length into whole steps."""
    check_step_count(steps_per_sigma)
    n = np.array([whole_steps(b - a, width / steps_per_sigma)
                  for a, b in pairwise(edges)])
    return n, np.diff(edges) / n


def window_edges(times, lo: float, hi: float):
    """Run edges of the pulse window [lo, hi] on the ascending ``times``,
    and the range (start, stop) of the samples that land on edges[1:]: lo,
    the samples in (lo, hi], then hi.  A last sample within a relative
    ``ON_GRID`` of hi (of its run's length) is taken at hi, as in
    `whole_steps`: no run of a few ulp follows it."""
    start, stop = np.searchsorted(times, (lo, hi), side="right").tolist()
    edges = np.r_[lo, times[start:stop], hi]
    if len(edges) > 2 and edges[-2] > hi - ON_GRID * (hi - edges[-3]):
        edges = np.delete(edges, -2)
    return edges, start, stop


def spin_branches(kind: str, spin_average: bool):
    """Both spins for spin-averaged magnetic kicks, else spin +1 alone."""
    return (1, -1) if spin_average and kind == "magnetic" else (1,)


def merged_windows(pulses, t_from, t_to):
    """Pulse windows clipped to [t_from, t_to]; overlapping windows merged.

    Returns a list of (lo, hi, [pulses active in the window]).
    """
    spans = []
    for p in pulses:
        lo, hi = p.window
        lo, hi = max(lo, t_from), min(hi, t_to)
        if hi > lo:
            spans.append((lo, hi, p))
    spans.sort(key=lambda s: s[0])
    merged = []
    for lo, hi, p in spans:
        if merged and lo <= merged[-1][1]:
            mlo, mhi, ps = merged[-1]
            merged[-1] = (mlo, max(mhi, hi), ps + [p])
        else:
            merged.append((lo, hi, [p]))
    return merged
