"""Two-kick delay scans of the ground-state population and their spectra.

A scan starts in the ground state, applies kick 1 (centered t = 0), waits a
delay tau, applies kick 2, and records |c_1|^2.  Populations are constant
after the last pulse, so detection is immediate.  The signal oscillates at
the transition frequencies z_i - z_1, which an FFT with quadratic peak
interpolation extracts; in the weak-kick limit the oscillation amplitudes
and phases encode the kick operator's first column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis
from .pulses import InputError, KickPulse, forcing, spin_branches
from .quantum import (DEFAULT_STEPS_PER_SIGMA, _free_phases, _sub_steps,
                      step_grid)

__all__ = ["DelayScan", "SpectrumResult", "PeakMatch", "scan_delay",
           "spectrum", "find_peaks_and_match", "retrieve_amplitudes"]

# a retrieval fit with a larger design-matrix condition number is refused
_CONDITION_LIMIT = 1e8

_ZERO_PAD = 8  # the FFT's length over the scan's
DEFAULT_NOISE_FLOOR = 1e-4  # peak threshold, a share of the strongest line
_ROUNDING = 1e-10  # population tolerance; smaller oscillations are no lines


@dataclass(frozen=True)
class DelayScan:
    """|c_1|^2 sampled at the kick delays."""

    delays: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.float64)
        p = np.asarray(self.populations, dtype=np.float64)
        if len(d) != len(p):
            raise InputError("delay and population grids differ in length")
        if not np.all(np.isfinite(d)):
            raise InputError("delays must be finite")
        # zero-kick scans read 1 +/- 3.6e-12 (M = 20, 50; widths 0.2/0.2,
        # 0.1/0.5, 0.5/0.1) and 1 +/- 7.4e-12 (M = 20; 0.05/1.0), tau in
        # [0.05, 20]: each Strang sub-step is unitary only to rounding, and
        # 12 max(sigma) in steps of min(sigma) / 20 takes 14400 at 0.05/1.0
        if not np.all((p >= -_ROUNDING) & (p <= 1 + _ROUNDING)):  # no nan
            raise InputError("populations must be finite and lie in [0, 1]")
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "populations", p)


@dataclass(frozen=True)
class PeakMatch:
    state: int                 # matched excited-state index i (frequency z_i - z_1)
    omega_measured: float
    omega_theory: float
    amplitude: float

    @property
    def rel_error_percent(self) -> float:
        return 100.0 * (self.omega_measured - self.omega_theory) / self.omega_theory


@dataclass(frozen=True)
class SpectrumResult:
    frequencies: np.ndarray
    amplitudes: np.ndarray
    line_floor: float  # a population cosine of amplitude _ROUNDING peaks here


def scan_delay(basis: EigenBasis, pulse1: KickPulse, pulse2: KickPulse,
               delays: np.ndarray, spin_average: bool = True,
               steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA) -> DelayScan:
    """Ground-state population after two kicks, versus their delay.

    Kick 1 is centered at t = 0, kick 2 at t = tau.  Two vector runs serve
    every delay: v = W1 e_1 and row = e_1^T W2, W_k the propagator across
    [t_k - H, t_k + H], H = 6 max(sigma_1, sigma_2).  Both runs take one
    step grid, and each run's forcing is zero outside its own kick's window
    |t - t_k| <= 6 sigma_k, so the rest of the span is free flight.  Each
    Strang sub-step is complex symmetric and their sizes are palindromic,
    so W2^T is W2's sub-steps in reverse order: the row is a vector run
    too, and v and the row step as one block of columns.  For separated
    pulses c_1 = row . exp(-i z gap) v with gap = tau - 2H, negative for
    tau < 2H, which is exact because nothing acts between the windows.
    Where the windows overlap, the block also keeps its states at the step
    nodes each delay needs, and c_1 = row(b) . U v(a): a is the last node
    of v at or before the start of kick 2's window, b the first node of
    the row at or after the end of kick 1's, and U steps across [a, b] with
    each kick's forcing inside its own window.  Every run steps at
    min(sigma_1, sigma_2) / ``steps_per_sigma``.  The delays may lie on
    any grid.  Magnetic scans average |c_1|^2 over s = +/-1 unless
    ``spin_average`` is off; a single-spin scan is spin +1's, and spin -1's
    is the scan with both amplitudes negated.
    """
    if pulse1.kind != pulse2.kind:
        raise InputError("both kicks must share the same kind")
    kind = pulse1.kind
    delays = np.asarray(delays, dtype=np.float64)
    if not np.all((delays > 0) & (delays < np.inf)):
        raise InputError("delays must be positive and finite")

    spins = spin_branches(kind, spin_average)
    p1 = KickPulse(pulse1.amplitude, pulse1.width, 0.0, kind)
    p2 = KickPulse(pulse2.amplitude, pulse2.width, 0.0, kind)
    half1, half2 = p1.window[1], p2.window[1]
    half = max(half1, half2)
    separated = delays >= (half1 + half2)
    tau = delays[~separated]

    width = min(p1.width, p2.width)
    t, (h,), (n,) = step_grid([-half, half], width, steps_per_sigma)
    # nodes within a relative 1e-12 of kick 2's start or kick 1's end
    # count as on it, as in `step_grid`
    k1 = np.floor((tau - half2 + half) / h * (1.0 + 1e-12)).astype(int)
    k2 = np.ceil((half1 + half - tau) / h * (1.0 - 1e-12)).astype(int)
    ground = np.zeros((1, basis.m, 2 * len(spins)), dtype=np.complex128)
    ground[0, 0] = 1.0

    # one run of the block [v | row] (spin -1 on spin +1's phases), keeping
    # v's states at one node per close delay and the end, then the row's
    unique, at = np.unique(np.r_[k1, n, n - k2, n], return_inverse=True)
    f = np.stack([forcing([p1], 1, t), forcing([p2], 1, t)[::-1]], axis=1)
    both = _sub_steps(basis, ground, f, [(n, h)], unique, spins)[at, 0]
    k, ns = len(tau) + 1, len(spins)
    v, row = both[:k, :, :ns], both[k:, :, ns:]

    pops = np.empty(len(delays))
    pops[separated] = _spin_mean_forward(
        basis, delays[separated] - 2.0 * half, v[-1] * row[-1])
    start, stop = -half + k1 * h, tau - half + k2 * h
    c1 = np.empty((len(tau), len(spins)), dtype=np.complex128)
    for i, d in enumerate(tau):  # each close delay from its node of v
        t, (h,), (n,) = step_grid([start[i], stop[i]], width, steps_per_sigma)
        f = forcing([p1], 1, t) + forcing([p2], 1, t - d)
        c = _sub_steps(basis, v[i][None], f, [(n, h)], [n], spins)[0, 0]
        c1[i] = np.sum(row[i] * c, axis=0)
    pops[~separated] = np.mean(np.abs(c1) ** 2, axis=1)
    try:
        return DelayScan(delays, pops)
    except InputError as exc:  # the delays passed above: the scan failed
        raise ArithmeticError(f"scan {exc}") from None


def _spin_mean_forward(basis: EigenBasis, tau: np.ndarray,
                       amps: np.ndarray) -> np.ndarray:
    """Spin mean of |sum_i A_i e^{-i z_i tau}|^2, one column of ``amps``
    (M, S) per spin branch.

    The phases e^{-i z_i tau} fill one (T, M) matrix, the largest array a
    scan makes, by `quantum._free_phases`: one `exp` per anchor row and
    per distinct delay gap, products in between.
    """
    phases = np.empty((len(tau), basis.m), dtype=np.complex128)
    c1 = _free_phases(phases, 1.0, basis.zeros, tau) @ amps
    return np.mean(np.abs(c1) ** 2, axis=1)


def spectrum(scan: DelayScan, window: str = "hann") -> SpectrumResult:
    """Magnitude spectrum of the mean-subtracted scan, whose delays must
    ascend on a uniform grid.

    Frequencies are dimensionless angular: 2 pi k / (n_padded * dtau).
    """
    x = scan.populations - scan.populations.mean()
    n = len(x)
    if n < 256:
        raise InputError(f"need at least 256 samples, got {n}")
    steps = np.diff(scan.delays)
    if not (steps[0] > 0 and
            np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
        raise InputError("delay grid must be ascending and uniform")
    if window not in ("hann", "none"):
        raise InputError(f"unknown window: {window!r}")
    w = np.hanning(n) if window == "hann" else np.ones(n)
    n_pad = n * _ZERO_PAD
    amps = np.abs(np.fft.rfft(x * w, n_pad))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, steps[0])
    return SpectrumResult(freqs, amps, _ROUNDING * w.sum() / 2.0)


def _refine_peak(freqs, amps, k):
    """3-point quadratic interpolation on log magnitude around the interior
    bin k."""
    la, lb, lc = np.log(amps[k - 1:k + 2])
    denom = la - 2.0 * lb + lc
    delta = 0.0 if denom == 0 else 0.5 * (la - lc) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    df = freqs[1] - freqs[0]
    return freqs[k] + delta * df, math.exp(lb - 0.25 * (la - lc) * delta)


def find_peaks_and_match(spec: SpectrumResult, zeros: np.ndarray, count: int,
                         noise_floor: float = DEFAULT_NOISE_FLOOR):
    """Extract up to ``count`` peaks and match them to the lines
    z_i - z_1, i = 2..M, of the energies ``zeros`` = z_1..z_M.

    Local maxima above ``noise_floor`` (in [0, 1]) x global max and above
    ``spec.line_floor``, where rounding noise ends, are refined by quadratic
    interpolation; each is matched to the nearest unmatched transition.
    Returns the PeakMatch list in line order; fewer than ``count`` (in
    [1, M - 1]) peaks yields a partial list (the caller may warn).
    """
    theory = zeros[1:] - zeros[0]
    if not 1 <= count <= len(theory):
        raise InputError(f"count not in [1, {len(theory)}]: {count}")
    if not 0.0 <= noise_floor <= 1.0:
        raise InputError(f"noise_floor not in [0, 1]: {noise_floor}")
    a = spec.amplitudes
    floor = max(noise_floor * a.max(), spec.line_floor)
    interior = np.nonzero((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]) &
                          (a[1:-1] >= floor))[0] + 1
    refined = [_refine_peak(spec.frequencies, a, k) for k in interior]
    refined.sort(key=lambda p: -p[1])

    # greedy assignment, strongest peak first; a peak may only claim a line
    # closer than half the minimum line spacing, which rejects window
    # sidelobes clustered around strong lines; a lone line takes any peak
    max_dist = 0.5 * float(np.min(np.diff(theory), initial=np.inf))
    matches = []
    used = set()
    for omega, amp in refined:
        if len(matches) >= count:
            break
        j = int(np.argmin(np.abs(theory - omega)))
        if j in used or abs(theory[j] - omega) > max_dist:
            continue
        used.add(j)
        matches.append(PeakMatch(state=j + 2, omega_measured=omega,
                                 omega_theory=float(theory[j]), amplitude=amp))
    matches.sort(key=lambda m: m.omega_theory)
    return matches


@dataclass(frozen=True)
class RetrievedAmplitude:
    state: int
    magnitude: float       # |P_1i|
    phase: float           # arg(P_1i) relative to P_11 > 0, in (-pi/2, pi/2]
    phase_ambiguity: float = math.pi  # the fit cannot distinguish phase vs phase+pi


def retrieve_amplitudes(scan: DelayScan, zeros: np.ndarray, n_states: int):
    """Recover kick-operator amplitudes P_1i from a weak equal-kick scan.

    Fits |c_1|^2(tau) = const + sum_i A_i cos(w_i tau) + B_i sin(w_i tau)
    at the transition frequencies w_i = z_i - z_1 of the energies
    ``zeros`` = z_1..z_M (linear least squares, on delays in any order).
    In the weak-kick limit the complex Fourier coefficient of line i equals
    (P_11^* P_1i)^2 and const = |P_11|^4, so with the global phase fixed by
    taking P_11 real positive, |P_1i| and arg(P_1i) follow up to a pi
    ambiguity.  A fitted const <= 0 leaves the phases without a reference
    and raises ArithmeticError.

    Returns (amplitudes, fit_residual_rms) for ``n_states`` in [1, M - 1].
    """
    if not 1 <= n_states <= len(zeros) - 1:
        raise InputError(f"n_states not in [1, {len(zeros) - 1}]: {n_states}")
    tau = scan.delays
    w = (zeros[1:] - zeros[0])[:n_states]
    cols = [np.ones_like(tau)]
    for wi in w:
        cols.append(np.cos(wi * tau))
        cols.append(np.sin(wi * tau))
    design = np.stack(cols, axis=1)
    cond = np.linalg.cond(design)
    if cond > _CONDITION_LIMIT:
        raise np.linalg.LinAlgError(
            f"retrieval fit ill-conditioned (cond {cond:.2e}); "
            "increase the maximal delay to resolve adjacent lines")
    coef, _, _, _ = np.linalg.lstsq(design, scan.populations, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - scan.populations) ** 2)))

    const = coef[0]
    if not const > 0.0:
        raise ArithmeticError(f"retrieval fit constant {const:.3e} is not "
                              "positive: the phases have no reference")
    p11 = const ** 0.25  # const ~ |P_11|^4 + O(alpha^4)
    out = []
    for j, wi in enumerate(w):
        a, b = coef[1 + 2 * j], coef[2 + 2 * j]
        # 2 Re[X e^{-i w tau}] = A cos + B sin  with  X = (A + iB)/2
        x = 0.5 * (a + 1j * b)          # = (P_11^* P_1i)^2
        p1i_sq = x / p11 ** 2
        mag = abs(p1i_sq) ** 0.5
        phase = 0.5 * np.angle(p1i_sq)  # defined modulo pi
        out.append(RetrievedAmplitude(state=j + 2, magnitude=float(mag),
                                      phase=float(phase)))
    return out, residual
