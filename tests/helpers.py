"""Test-only helpers: reference oracles and trace diagnostics."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from qbounce.airy import airy_ai
from qbounce.basis import _overlap_integrals
from qbounce.classical import propagate, sample_initial
from qbounce.pulses import merged_windows
from qbounce.quantum import (DEFAULT_STEPS_PER_SIGMA, evolve_pulsed,
                             expectation_z, forcing, free_evolve)


class NormDriftError(RuntimeError):
    """An RK4 step lost more norm than the oracle's tolerance allows."""


def rk4_window(c, basis, pulses, spin, lo, hi, steps_per_sigma=500):
    """RK4 across [lo, hi] with post-step renormalization (oracle for
    `strang_steps`).

    Solves i dc/dt = (diag(z_i) + f(t) Z) c on its own grid of n equal steps
    of at most sigma / ``steps_per_sigma``, sigma the narrowest pulse width.
    Raises NormDriftError when one step moves the norm by more than 1e-6.
    """
    n = max(1, math.ceil((hi - lo) * steps_per_sigma /
                         min(p.width for p in pulses)))
    h = (hi - lo) / n

    def rhs(t, c):
        f = float(forcing(pulses, spin, t))
        return -1j * (basis.zeros * c + f * (basis.z_matrix @ c))

    for t in lo + h * np.arange(n):
        k1 = rhs(t, c)
        k2 = rhs(t + 0.5 * h, c + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, c + 0.5 * h * k2)
        k4 = rhs(t + h, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-6:
            raise NormDriftError(f"norm drifted to {nrm:.6e} in one RK4 "
                                 "step; reduce the step size")
        c = c / nrm
    return c


def quadrature_z_columns(basis, columns=None):
    """Columns of <i|z|j> by adaptive quadrature, independent of the closed form.

    Column j is the overlap of every eigenfunction with z psi_j(z), computed
    by the package's Gauss-Kronrod refinement loop on [0, z_max].
    """
    columns = range(basis.m) if columns is None else columns
    cols = []
    for j in columns:
        def z_psi_j(z, j=j):
            return z * basis.norms[j] * airy_ai(z - basis.zeros[j])
        cols.append(_overlap_integrals(basis.zeros, basis.norms, z_psi_j,
                                       0.0, basis.z_max))
    return np.column_stack(cols)


def shake_potential_coefficient(pulses, t):
    """Effective dimensionless gravity g_eff(t) = 1 + h''(t)/2 under a shake."""
    t = np.asarray(t, dtype=np.float64)
    g = np.ones_like(t)
    for p in pulses:
        if p.kind != "shake":
            raise ValueError("shake coefficient requested for non-shake pulse")
        g = g + 0.5 * p.envelope_second_derivative(t)
    return g if g.ndim else float(g)


def oscillation_envelope(times: np.ndarray, signal: np.ndarray,
                         window: float) -> np.ndarray:
    """Envelope of an oscillating trace: rolling max of |detrended signal|.

    ``window`` is the averaging/max span in time units; use roughly one
    oscillation period.
    """
    times = np.asarray(times)
    signal = np.asarray(signal)
    dt = times[1] - times[0]
    n = max(1, int(round(window / dt)))
    kernel = np.ones(n) / n
    # reflect-pad so the running mean has no edge bias
    padded = np.concatenate([signal[n - 1:0:-1], signal, signal[-2:-n - 1:-1]])
    baseline = np.convolve(padded, kernel, mode="same")[n - 1:n - 1 + len(signal)]
    resid = np.abs(signal - baseline)
    # the residual is >= 0, so zero padding leaves the truncated edge windows'
    # maxima unchanged
    half = n // 2
    return sliding_window_view(np.pad(resid, half), 2 * half + 1).max(axis=1)


def bounce_flight(z, v, dt):
    """Flight under z'' = -2 found bounce by bounce (oracle for ballistic_flight).

    Each pass takes every particle still in flight to its next floor contact,
    the positive root of z + v t - t^2 = 0, and reflects it there, until the
    interval is used up.  A particle on the floor with |v| <= 1e-12 rests.
    """
    z = np.array(z, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    rem = np.full_like(z, float(dt))
    active = rem > 0
    while active.any():
        idx = np.nonzero(active)[0]
        zi, vi, ri = z[idx], v[idx], rem[idx]
        t_hit = 0.5 * (vi + np.sqrt(np.maximum(vi * vi + 4.0 * zi, 0.0)))
        resting = (zi <= 0) & (np.abs(vi) <= 1e-12)
        bounce = (t_hit < ri) & ~resting
        fly = ~bounce & ~resting

        t_f = ri[fly]
        z[idx[fly]] = zi[fly] + vi[fly] * t_f - t_f * t_f
        v[idx[fly]] -= 2.0 * t_f
        rem[idx[fly]] = 0.0

        t_b = t_hit[bounce]
        z[idx[bounce]] = 0.0
        v[idx[bounce]] = 2.0 * t_b - vi[bounce]  # reflect the impact velocity
        rem[idx[bounce]] = ri[bounce] - t_b

        rem[idx[resting]] = 0.0
        v[idx[resting]] = 0.0
        active = rem > 0
    np.clip(z, 0.0, None, out=z)
    return z, v


def walk_mean_height_series(n, mu_z, mu_v, sigma_z, sigma_v, seed, pulses,
                            times, spins=(1, -1), steps_per_sigma=200):
    """<z>(t) by one ``propagate`` per sample (oracle for mean_height_series)."""
    series = {}
    for s in spins:
        ens = sample_initial(n, mu_z, mu_v, sigma_z, sigma_v, seed, spin=s)
        out = np.empty(len(times))
        for k, t in enumerate(times):
            ens = propagate(ens, float(t), pulses,
                            steps_per_sigma=steps_per_sigma, z_cap=10.0 * mu_z)
            out[k] = ens.mean_height
        series[s] = out
    return series


def walk_mean_height_trace(basis, state, pulses, spin, times,
                           steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """<z>(t) by one ``evolve_pulsed`` per in-window sample (oracle for
    mean_height_trace).

    Free samples are free flights from the last state; each in-window
    sample restarts ``evolve_pulsed`` from the one before.  Returns
    (heights, final_state).
    """
    out = np.empty(len(times))
    cur, idx = state, 0

    def free_to(stop):
        nonlocal idx
        while idx < len(times) and times[idx] <= stop:
            out[idx] = expectation_z(
                free_evolve(cur, basis, float(times[idx]) - cur.time), basis)
            idx += 1

    for lo, hi, _ in merged_windows(pulses, state.time, float(times[-1])):
        free_to(lo)
        while idx < len(times) and times[idx] <= hi:
            cur = evolve_pulsed(cur, basis, pulses, spin, float(times[idx]),
                                steps_per_sigma)
            out[idx] = expectation_z(cur, basis)
            idx += 1
        if cur.time < hi:
            cur = evolve_pulsed(cur, basis, pulses, spin, hi, steps_per_sigma)
    free_to(np.inf)
    return out, free_evolve(cur, basis, float(times[-1]) - cur.time)
