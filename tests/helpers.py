"""Test-only helpers: reference oracles and trace diagnostics."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from qbounce.airy import airy_ai
from qbounce.basis import _overlap_integrals


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
