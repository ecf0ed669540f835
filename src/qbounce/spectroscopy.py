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
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis
from .pulses import KickPulse, spin_branches
from .quantum import (DEFAULT_STEPS_PER_SIGMA, _free_phases, _operators,
                      _sub_steps, forcing, impulsive_kick_matrix, step_grid,
                      strang_steps)

__all__ = ["DelayScan", "SpectrumResult", "PeakMatch", "scan_delay",
           "impulsive_scan_analytic", "perturbative_scan", "spectrum",
           "find_peaks_and_match", "retrieve_amplitudes"]


@dataclass(frozen=True)
class DelayScan:
    """|c_1|^2 sampled on a uniform delay grid."""

    delays: np.ndarray
    populations: np.ndarray
    kind: str
    overlap: np.ndarray = None  # samples where the two pulses overlap

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.float64)
        p = np.asarray(self.populations, dtype=np.float64)
        if len(d) != len(p):
            raise ValueError("delay and population grids differ in length")
        steps = np.diff(d)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("delay grid must be uniform")
        # zero-kick scans read 1 +/- 2.3e-12 (M = 20, 50; widths 0.2/0.2,
        # 0.1/0.5 and 0.5/0.1; tau in [0.05, 20]): each Strang sub-step is
        # unitary only to rounding, and a sigma = 0.2 window takes 1440 of
        # them (an overlapping delay adds one run across its overlap)
        if np.any(p < -1e-10) or np.any(p > 1 + 1e-10):
            raise ValueError("populations must lie in [0, 1]")
        ov = self.overlap if self.overlap is not None else np.zeros(len(d), bool)
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "populations", p)
        object.__setattr__(self, "overlap", np.asarray(ov, dtype=bool))

    @property
    def delay_step(self) -> float:
        return float(self.delays[1] - self.delays[0])


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
    peaks: list = field(default_factory=list)      # (omega, amplitude)
    matches: list = field(default_factory=list)    # PeakMatch


def scan_delay(basis: EigenBasis, pulse1: KickPulse, pulse2: KickPulse,
               delays: np.ndarray, spin_average: bool = True,
               spin: int = 1,
               steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA) -> DelayScan:
    """Ground-state population after two kicks, versus their delay.

    Kick 1 is centered at t = 0, kick 2 at t = tau.  Two vector runs serve
    every delay: v = W1 e_1 and row = e_1^T W2, the pulse-window
    propagators W_k.  Each Strang sub-step is complex symmetric and their
    sizes are palindromic, so W2^T is W2's sub-steps in reverse order and
    the row is a vector run too; when both windows share one step grid
    (equal widths), the two runs step as one block of columns.  For
    well-separated pulses c_1 = row . exp(-i z gap) v.  Where the windows
    overlap, the runs also keep their states at the step nodes each delay
    needs, and c_1 = row(b) . U v(a): a is the last kick-1 node at or
    before the start of kick 2's window, b the first kick-2 node at or
    after the end of kick 1's, and U steps across [a, b] with each kick's forcing inside its
    own window.  The state is the ground state before kick 1's window and
    the row is e_1^T after kick 2's, so a and b clamp to those ends.
    Every run steps at min(sigma_1, sigma_2) / ``steps_per_sigma``.
    Delays with tau < 3 (sigma_1 + sigma_2) are marked as overlapping.
    Magnetic scans average |c_1|^2 over s = +/-1 unless ``spin_average``
    is off.
    """
    if pulse1.kind != pulse2.kind:
        raise ValueError("both kicks must share the same kind")
    kind = pulse1.kind
    delays = np.asarray(delays, dtype=np.float64)
    if np.any(delays <= 0):
        raise ValueError("delays must be positive")
    overlap = delays < 3.0 * (pulse1.width + pulse2.width)

    spins = spin_branches(kind, spin_average, spin)
    p1 = KickPulse(pulse1.amplitude, pulse1.width, 0.0, kind)
    p2 = KickPulse(pulse2.amplitude, pulse2.width, 0.0, kind)
    half1 = p1.window[1]
    half2 = p2.window[1]
    separated = delays >= (half1 + half2)
    tau = delays[~separated]

    def spin_columns(pulse, t):
        return np.stack([forcing([pulse], s, t) for s in spins], axis=1)

    width = min(p1.width, p2.width)
    t1, h1 = step_grid(*p1.window, width, steps_per_sigma)
    t2, h2 = step_grid(*p2.window, width, steps_per_sigma)
    n1, n2 = len(t1) // 3, len(t2) // 3
    # nodes within a relative 1e-12 of kick 2's start or kick 1's end
    # count as on it, as in `step_grid`
    k1 = np.clip(np.floor((tau - half2 + half1) / h1 * (1.0 + 1e-12)),
                 0, n1).astype(int)
    k2 = np.clip(np.ceil((half1 + half2 - tau) / h2 * (1.0 - 1e-12)),
                 0, n2).astype(int)
    ground = np.zeros((basis.m, len(spins)), dtype=np.complex128)
    ground[0] = 1.0

    def kept(c, f, h, nodes):
        """The run's states after each of ``nodes`` composed steps."""
        unique, at = np.unique(nodes, return_inverse=True)
        return _sub_steps(basis, c, f, _operators(basis, h), unique)[at]

    # v's nodes and the row's, one per close delay and the run's end
    nodes1, nodes2 = np.r_[k1, n1], np.r_[n2 - k2, n2]
    f1, f2 = spin_columns(p1, t1), spin_columns(p2, t2)[::-1]
    if h1 == h2 and n1 == n2:
        # one step grid: v and the row step as one block [v | row]
        both = kept(np.hstack([ground, ground]), np.hstack([f1, f2]), h1,
                    np.r_[nodes1, nodes2])
        k, ns = len(nodes1), len(spins)
        v, row = both[:k, :, :ns], both[k:, :, ns:]
    else:
        v, row = kept(ground, f1, h1, nodes1), kept(ground, f2, h2, nodes2)

    pops = np.empty(len(delays))
    pops[separated] = _spin_mean_forward(
        basis, delays[separated] - (half1 + half2), v[-1] * row[-1])
    start = np.where(k1 > 0, -half1 + k1 * h1, np.minimum(-half1, tau - half2))
    stop = np.where(k2 < n2, tau - half2 + k2 * h2,
                    np.maximum(half1, tau + half2))
    c1 = np.empty((len(tau), len(spins)), dtype=np.complex128)
    for i, d in enumerate(tau):
        t, h = step_grid(start[i], stop[i], width, steps_per_sigma)
        f = (spin_columns(p1, t) * (np.abs(t) <= half1)[:, None] +
             spin_columns(p2, t - d) * (np.abs(t - d) <= half2)[:, None])
        c = strang_steps(basis, v[i], f, h)
        c1[i] = np.sum(row[i] * c, axis=0)
    pops[~separated] = np.mean(np.abs(c1) ** 2, axis=1)
    return DelayScan(delays, pops, kind, overlap)


def impulsive_scan_analytic(basis: EigenBasis, alpha1: float, alpha2: float,
                            delays: np.ndarray, kind: str = "magnetic",
                            spin_average: bool = True, spin: int = 1) -> DelayScan:
    """Closed-form impulsive-limit scan: c_1(tau) = sum_i P2_1i e^{-i z_i tau} P1_i1."""
    delays = np.asarray(delays, dtype=np.float64)
    amps = np.stack([impulsive_kick_matrix(basis, alpha2, s, kind)[0, :] *
                     impulsive_kick_matrix(basis, alpha1, s, kind)[:, 0]
                     for s in spin_branches(kind, spin_average, spin)], axis=1)
    return DelayScan(delays, _spin_mean_forward(basis, delays, amps), kind)


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


def _first_order_amplitudes(basis: EigenBasis, pulse: KickPulse, spin: int):
    """First-order transition amplitudes <i|U|1> - delta_i1 for one pulse.

    Gaussian pulses excite with their spectral envelope at the transition
    frequency: K_i = i s Z_i1 * area * exp(-w^2 sigma^2 / 4) for magnetic
    kicks and K_i = i Z_i1 * (w^2/2) * area * exp(-w^2 sigma^2 / 4) for
    shakes (the h''(t)/2 forcing integrates by parts to -w^2 h(w)/2).
    """
    w = basis.transition_frequencies()
    envelope = pulse.area * np.exp(-0.25 * (w * pulse.width) ** 2)
    z_col = basis.z_matrix[1:, 0]
    if pulse.kind == "magnetic":
        return 1j * spin * z_col * envelope
    return 1j * z_col * 0.5 * w ** 2 * envelope


def perturbative_scan(basis: EigenBasis, pulse1: KickPulse, pulse2: KickPulse,
                      delays: np.ndarray, spin_average: bool = True,
                      spin: int = 1) -> DelayScan:
    """Weak-kick scan from first-order perturbation theory.

    Keeps only ground <-> excited interference, so the signal contains the
    frequencies z_i - z_1 and nothing else:
    |c_1|^2 = 1 - sum_i |K1_i + K2_i e^{i (z_i - z_1) tau}|^2.
    """
    if pulse1.kind != pulse2.kind:
        raise ValueError("both kicks must share the same kind")
    delays = np.asarray(delays, dtype=np.float64)
    spins = spin_branches(pulse1.kind, spin_average, spin)
    w = basis.transition_frequencies()
    pops = np.zeros(len(delays))
    for s in spins:
        k1 = _first_order_amplitudes(basis, pulse1, s)
        k2 = _first_order_amplitudes(basis, pulse2, s)
        excited = np.abs(k1[None, :] + k2[None, :] *
                         np.exp(1j * np.outer(delays, w))) ** 2
        pops += 1.0 - excited.sum(axis=1)
    pops /= len(spins)
    return DelayScan(delays, pops, pulse1.kind)


def spectrum(scan: DelayScan, window: str = "hann",
             zero_pad_factor: int = 8) -> SpectrumResult:
    """Magnitude spectrum of the mean-subtracted scan.

    Frequencies are dimensionless angular: 2 pi k / (n_padded * dtau).
    """
    x = scan.populations - scan.populations.mean()
    n = len(x)
    if n < 256:
        raise ValueError(f"need at least 256 samples, got {n}")
    if window == "hann":
        x = x * np.hanning(n)
    elif window != "none":
        raise ValueError(f"unknown window: {window!r}")
    if not isinstance(zero_pad_factor, (int, np.integer)) or zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be an integer >= 1, got "
                         f"{zero_pad_factor!r}")
    n_pad = n * int(zero_pad_factor)
    amps = np.abs(np.fft.rfft(x, n_pad))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_pad, scan.delay_step)
    return SpectrumResult(freqs, amps)


def _refine_peak(freqs, amps, k):
    """3-point quadratic interpolation on log magnitude around bin k."""
    if k <= 0 or k >= len(amps) - 1:
        return freqs[k], amps[k]
    la, lb, lc = np.log(amps[k - 1:k + 2])
    denom = la - 2.0 * lb + lc
    delta = 0.0 if denom == 0 else 0.5 * (la - lc) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    df = freqs[1] - freqs[0]
    return freqs[k] + delta * df, math.exp(lb - 0.25 * (la - lc) * delta)


def find_peaks_and_match(spec: SpectrumResult, basis: EigenBasis, count: int,
                         noise_floor: float = 0.05):
    """Extract up to ``count`` peaks and match them to the z_i - z_1 lines.

    Local maxima above ``noise_floor`` x global max are refined by quadratic
    interpolation; each is matched to the nearest unmatched theoretical
    transition.  Returns a SpectrumResult carrying peaks and matches; fewer
    than ``count`` peaks yields a partial result (the caller may warn).
    """
    if count > basis.m - 1:
        raise ValueError("cannot match more peaks than excited states")
    a = spec.amplitudes
    floor = noise_floor * a.max()
    interior = np.nonzero((a[1:-1] > a[:-2]) & (a[1:-1] >= a[2:]) &
                          (a[1:-1] >= floor))[0] + 1
    refined = [_refine_peak(spec.frequencies, a, k) for k in interior]
    refined.sort(key=lambda p: -p[1])

    # greedy assignment, strongest peak first; a peak may only claim a line
    # closer than half the minimum line spacing, which rejects window
    # sidelobes clustered around strong lines
    theory = basis.transition_frequencies()
    max_dist = 0.5 * float(np.min(np.diff(theory)))
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
    peaks = sorted((m.omega_measured, m.amplitude) for m in matches)
    return SpectrumResult(spec.frequencies, spec.amplitudes, peaks, matches)


@dataclass(frozen=True)
class RetrievedAmplitude:
    state: int
    magnitude: float       # |P_1i|
    phase: float           # arg(P_1i) relative to P_11 > 0, in (-pi/2, pi/2]
    phase_ambiguity: float = math.pi  # the fit cannot distinguish phase vs phase+pi


def retrieve_amplitudes(scan: DelayScan, basis: EigenBasis, n_states: int,
                        condition_limit: float = 1e8):
    """Recover kick-operator amplitudes P_1i from a weak equal-kick scan.

    Fits |c_1|^2(tau) = const + sum_i A_i cos(w_i tau) + B_i sin(w_i tau)
    at the known transition frequencies w_i = z_i - z_1 (linear least
    squares).  In the weak-kick limit the complex Fourier coefficient of
    line i equals (P_11^* P_1i)^2, so with the global phase fixed by taking
    P_11 real positive, |P_1i| and arg(P_1i) follow up to a pi ambiguity.

    Returns (amplitudes, fit_residual_rms).
    """
    if n_states > basis.m - 1:
        raise ValueError("n_states exceeds the basis size")
    tau = scan.delays
    w = basis.transition_frequencies()[:n_states]
    cols = [np.ones_like(tau)]
    for wi in w:
        cols.append(np.cos(wi * tau))
        cols.append(np.sin(wi * tau))
    design = np.stack(cols, axis=1)
    cond = np.linalg.cond(design)
    if cond > condition_limit:
        raise np.linalg.LinAlgError(
            f"retrieval fit ill-conditioned (cond {cond:.2e}); "
            "increase the maximal delay to resolve adjacent lines")
    coef, _, _, _ = np.linalg.lstsq(design, scan.populations, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - scan.populations) ** 2)))

    const = coef[0]
    # const ~ |P_11|^4 + O(alpha^4)
    p11 = max(const, 0.0) ** 0.25
    out = []
    for j, wi in enumerate(w):
        a, b = coef[1 + 2 * j], coef[2 + 2 * j]
        # 2 Re[X e^{-i w tau}] = A cos + B sin  with  X = (A + iB)/2
        x = 0.5 * (a + 1j * b)          # = (P_11^* P_1i)^2
        p1i_sq = x / p11 ** 2 if p11 > 0 else x
        mag = abs(p1i_sq) ** 0.5
        phase = 0.5 * np.angle(p1i_sq)  # defined modulo pi
        out.append(RetrievedAmplitude(state=j + 2, magnitude=float(mag),
                                      phase=float(phase)))
    return out, residual
