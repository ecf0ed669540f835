"""Test-only helpers: reference oracles and trace diagnostics."""

import math
import warnings
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from qbounce import __version__, classical, quantum
from qbounce.airy import _C1, _C2, airy_ai
from qbounce.basis import _MAX_PANELS, _OVERLAP_TOL, QuadratureError
from qbounce.basis import _CHUNK_ELEMENTS as _PSI_CHUNK_ELEMENTS
from qbounce.basis import _overlap_integrals
from qbounce.classical import ClassicalEnsemble, _orbit, sample_initial
from qbounce.pulses import (KickPulse, forcing, merged_windows, spin_branches,
                            whole_steps)
from qbounce.quantum import (_PHASE_ROWS, _WEIGHTS, DEFAULT_STEPS_PER_SIGMA,
                             _free_phases, _mean_z, _z_scratch,
                             mean_height_trace, step_grid)
from qbounce.spectroscopy import DelayScan, _spin_mean_forward


def series_ai(x, derivative=True):
    """Maclaurin series for Ai and Ai' on |x| < 8, in longdouble: (Ai, Ai'),
    or (Ai,) without ``derivative`` (oracle for the Taylor table)."""
    x = np.asarray(x, dtype=np.longdouble)
    x3 = x * x * x

    f = np.ones_like(x)          # sum of f series
    g = x.copy()                 # sum of g series
    fp = np.zeros_like(x)        # f'
    gp = np.ones_like(x)         # g'

    tf = np.ones_like(x)
    tg = x.copy()
    tfp = np.zeros_like(x)
    tgp = np.ones_like(x)

    for k in range(1, 121):
        tf = tf * x3 / ((3 * k) * (3 * k - 1))
        tg = tg * x3 / ((3 * k + 1) * (3 * k))
        if k == 1:
            tfp = x * x / 2
        else:
            tfp = tfp * x3 / ((3 * k - 1) * (3 * k - 3))
        tgp = tgp * x3 / ((3 * k - 2) * (3 * k))
        f += tf
        g += tg
        fp += tfp
        gp += tgp
        # results are O(0.1..1); terms below 1e-22 cannot move the float64 output
        if max(np.max(np.abs(tf)), np.max(np.abs(tg))) < 1e-22:
            break

    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    return (np.asarray(ai, dtype=np.float64),
            np.asarray(aip, dtype=np.float64))[:1 + derivative]


def _check_target_time(t_to, t_from):
    """Raise ValueError unless ``t_to`` is finite and not before ``t_from``."""
    if not math.isfinite(t_to):
        raise ValueError(f"t_to must be finite, got {t_to}")
    if t_to < t_from:
        raise ValueError(f"t_to = {t_to} must not precede the start time "
                         f"{t_from}")


def ground_coeffs(basis):
    """e_1, the coefficients of the ground state."""
    return np.eye(1, basis.m, dtype=np.complex128)[0]


def spin_row(spin):
    """The row of ``spin`` in a trace's (B, ...) output: spin +1 first, and
    spin -1 last (a one-row trace is spin independent)."""
    return 0 if spin == 1 else -1


def evolve_pulsed(basis, c, t0, pulses, spin, t_to,
                  steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """The state ``c`` at ``t0`` evolved to ``t_to`` through any pulse
    windows: spin ``spin``'s final state of `mean_height_trace` sampled at
    the single time ``t_to``."""
    _check_target_time(t_to, t0)
    _, finals = mean_height_trace(basis, c, t0, pulses, [t_to],
                                  steps_per_sigma)
    return finals[spin_row(spin)]


def strang_steps(basis, c, f_mid, h):
    """Composed steps of size h of a vector (M,) or block (M, B) ``c``, one
    sub-step per row of ``f_mid``: one run of `quantum._sub_steps`."""
    n = len(f_mid) // 3
    return quantum._sub_steps(basis, c[None], f_mid, [(n, h)], [n])[0, 0]


def pulse_propagator(basis, pulse, spin=1,
                     steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """Full propagator matrix across one pulse window.

    The Hamiltonian depends on time only through t - t_k, so the matrix is
    independent of the pulse center.  It is the window's steps applied to
    the identity.
    """
    centered = KickPulse(pulse.amplitude, pulse.width, 0.0, pulse.kind)
    t_mid, (h,), _ = step_grid(centered.window, pulse.width, steps_per_sigma)
    return strang_steps(basis, np.eye(basis.m, dtype=np.complex128),
                        forcing([centered], spin, t_mid), h)


def free_evolve(c, basis, dt):
    """c_i <- c_i exp(-i z_i dt); exactly norm preserving."""
    return c * np.exp(-1j * basis.zeros * dt)


def impulsive_kick_matrix(basis, alpha, spin=1, kind="magnetic"):
    """P = exp[-i alpha V(z)] in the eigenbasis (the impulsive oracle).

    V(z) = -s z for magnetic-gradient kicks (P = exp(+i alpha s Z)) and
    V(z) = +z for a generic linear jolt (P = exp(-i alpha Z)).  Unitary by
    construction via the eigendecomposition of Z.
    """
    factor = 1j * alpha * spin if kind == "magnetic" else -1j * alpha
    v = basis.z_eigvecs
    return (v * np.exp(factor * basis.z_eigvals)) @ v.T


def impulsive_kick(c, basis, alpha, spin=1, kind="magnetic"):
    """Apply the impulsive kick operator to the state ``c`` (zero
    duration)."""
    return impulsive_kick_matrix(basis, alpha, spin, kind) @ c


def transition_frequencies(basis):
    """z_i - z_1 for i = 2..m (dimensionless angular frequencies)."""
    return basis.zeros[1:] - basis.zeros[0]


def eval_eigenstate(basis, i, z):
    """psi_i(z) = N_i Ai(z - z_i); 1-based state index, z >= 0."""
    if not 1 <= i <= basis.m:
        raise IndexError(f"state index {i} outside 1..{basis.m}")
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0):
        raise ValueError("height must be non-negative")
    out = basis.norms[i - 1] * airy_ai(np.atleast_1d(z) - basis.zeros[i - 1])
    return float(out[0]) if z.ndim == 0 else out


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
    by the package's Gauss-Legendre refinement loop on [0, z_max].
    """
    columns = range(basis.m) if columns is None else columns
    cols = []
    for j in columns:
        def z_psi_j(z, j=j):
            return z * basis.norms[j] * airy_ai(z - basis.zeros[j])
        cols.append(_overlap_integrals(basis.zeros, basis.norms, z_psi_j,
                                       0.0, basis.z_max))
    return np.column_stack(cols)


# Kronrod-15 abscissae and weights and the embedded Gauss-7 weights, listed
# from the left end to the centre as in QUADPACK's qk15 and mirrored
_XGK = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769,
                 0.741531185599394, 0.586087235467691, 0.405845151377397,
                 0.207784955007898, 0.0])
_WGK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250,
                 0.140653259715525, 0.169004726639267, 0.190350578064785,
                 0.204432940075298, 0.209482141084728])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119,
                0.417959183673469])
_KRONROD_X = np.r_[-_XGK[:-1], _XGK[::-1]]
_KRONROD_W = np.r_[_WGK, _WGK[-2::-1]]
_GAUSS_W = np.r_[_WG, _WG[-2::-1]]
_GAUSS_SLOTS = np.arange(1, 15, 2)  # Gauss-7 points sit at the odd Kronrod slots


def gauss_kronrod_overlaps(zeros, norms, func, a, b):
    """<psi_i | func> for all i at once, shared adaptive panel set (oracle
    for `basis._overlap_integrals`).

    Gauss-Kronrod (G7, K15) panels, two per unit length at the start, are
    bisected until every integral's summed Kronrod/Gauss discrepancy is
    below ``_OVERLAP_TOL``.
    """
    edges = np.linspace(a, b, max(16, 2 * int(b - a)) + 1)
    lo, hi = edges[:-1], edges[1:]

    rows = max(1, _PSI_CHUNK_ELEMENTS // (len(_KRONROD_X) * len(zeros)))

    def panel_integrals(lo, hi):
        k = np.empty((len(lo), len(zeros)))
        g = np.empty_like(k)
        for c in range(0, len(lo), rows):  # bounds the psi working set
            p = slice(c, c + rows)
            half = 0.5 * (hi[p] - lo[p])
            x = 0.5 * (lo[p] + hi[p])[:, None] + half[:, None] * _KRONROD_X
            psi = airy_ai(x[:, :, None] - zeros) * norms
            fx = func(x)
            k[p] = np.einsum('pk,pki->pi', _KRONROD_W * fx * half[:, None], psi)
            g[p] = np.einsum('pk,pki->pi', _GAUSS_W * fx[:, _GAUSS_SLOTS] * half[:, None],
                             psi[:, _GAUSS_SLOTS])
        return k, np.abs(k - g)

    vals, errs = panel_integrals(lo, hi)
    while True:
        worst = float(errs.sum(axis=0).max())
        if worst <= _OVERLAP_TOL:
            return vals.sum(axis=0)
        if len(lo) >= _MAX_PANELS:
            i = int(np.argmax(errs.sum(axis=0)))
            raise QuadratureError(
                f"overlap with state {i + 1} did not converge: "
                f"error {worst:.3e} > tol {_OVERLAP_TOL:.3e}")
        panel_err = errs.max(axis=1)
        split = panel_err >= max(_OVERLAP_TOL / (4.0 * len(lo)),
                                 0.25 * panel_err.max())
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_vals, new_errs = panel_integrals(
            np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])


def expectation_z(c, basis):
    """<z> = c^dag Z c in complex arithmetic (oracle for the real products
    of `quantum._mean_z`); the imaginary residual must be at rounding level.
    """
    val = np.vdot(c, basis.z_matrix @ c)
    if abs(val.imag) > 1e-12:
        raise ArithmeticError(f"<z> has imaginary residual {abs(val.imag):.3e}; "
                              "Hermitian invariant broken")
    return float(val.real)


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


_CHUNK_ELEMENTS = 1 << 17  # sample rows x particles per free-flight chunk


def particle_energy(z, v):
    """Conserved flight energy e = v^2/2 + 2z (constant while beta = 0)."""
    return 0.5 * np.asarray(v) ** 2 + 2.0 * np.asarray(z)


def _free_mean_height(ens: ClassicalEnsemble, times):
    """<z> at ``times`` (>= ens.time) in free flight, a few rows at a time
    (oracle for `classical._flight_means`).

    With y = phase - 1/2 wrapped into [-1/2, 1/2], z = u^2 (1/4 - y^2).
    """
    u, inv_u, phase = _orbit(ens.z, ens.v)
    u2, phase = u * u, phase - 0.5
    out = np.empty(len(times))
    rows = max(1, _CHUNK_ELEMENTS // ens.n)
    for k in range(0, len(times), rows):
        y = np.multiply.outer(times[k:k + rows] - ens.time, inv_u)
        y += phase
        y -= np.rint(y)
        out[k:k + rows] = 0.25 * u2.mean() - (y * y) @ u2 / ens.n
    return out


def propagate(ens, t_to, pulses=(),
              steps_per_sigma=classical.DEFAULT_STEPS_PER_SIGMA, z_cap=None):
    """Advance the ensemble to ``t_to`` through any pulse windows (the
    per-snapshot oracle for `mean_height_series`).

    Exact ballistic flight outside the windows (|t - t_k| > 6 sigma_k), one
    stepper run across each window clipped to [ens.time, t_to], whatever
    the sample grid.  Particles ending above ``z_cap`` warn.
    """
    pulses = classical._magnetic(pulses)
    _check_target_time(t_to, ens.time)
    for lo, hi, active in merged_windows(pulses, ens.time, t_to):
        ens = classical._fly(ens, lo)
        z, v, _ = classical._kick_flight(ens.z, ens.v, [lo, hi], active,
                                         ens.spin, steps_per_sigma)
        ens = replace(ens, z=z, v=v, time=hi)
    ens = classical._fly(ens, t_to)
    if z_cap is not None and (high := int((ens.z > z_cap).sum())):
        warnings.warn(f"{high} particle(s) above z_cap={z_cap}", stacklevel=2)
    return ens


def walk_mean_height_series(n, mu_z, mu_v, sigma_z, sigma_v, seed, pulses,
                            times):
    """<z>(t) of spin +1 and -1 by one ``propagate`` per sample (oracle for
    mean_height_series)."""
    series = {}
    for s in (1, -1):
        ens = replace(sample_initial(n, mu_z, mu_v, sigma_z, sigma_v, seed),
                      spin=s)
        out = np.empty(len(times))
        for k, t in enumerate(times):
            ens = propagate(ens, float(t), pulses, z_cap=10.0 * mu_z)
            out[k] = ens.z.mean()
        series[s] = out
    return series


def walk_mean_height_trace(basis, c, t0, pulses, spin, times,
                           steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """<z>(t) of spin ``spin`` by one ``evolve_pulsed`` per in-window sample
    (oracle for mean_height_trace).

    Free samples are free flights from the last state; each in-window
    sample restarts ``evolve_pulsed`` from the one before.  Returns
    (heights, state at times[-1]).
    """
    out = np.empty(len(times))
    idx = 0

    def free_to(stop):
        nonlocal idx
        while idx < len(times) and times[idx] <= stop:
            out[idx] = expectation_z(
                free_evolve(c, basis, float(times[idx]) - t0), basis)
            idx += 1

    for lo, hi, _ in merged_windows(pulses, t0, float(times[-1])):
        free_to(lo)
        while idx < len(times) and times[idx] <= hi:
            t = float(times[idx])
            c, t0 = evolve_pulsed(basis, c, t0, pulses, spin, t,
                                  steps_per_sigma), t
            out[idx] = expectation_z(c, basis)
            idx += 1
        if t0 < hi:
            c, t0 = evolve_pulsed(basis, c, t0, pulses, spin, hi,
                                  steps_per_sigma), hi
    free_to(np.inf)
    return out, free_evolve(c, basis, float(times[-1]) - t0)


def direct_free_phases(c, zeros, tau):
    """c e^{-i z tau} with one `exp` per sample and state (oracle for
    `quantum._free_phases`)."""
    return c * np.exp(-1j * np.outer(tau, zeros))


def per_run_rows(basis, c, t0, pulses, spin, times,
                 steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """The state at every sample (T, M) from ``c`` at ``t0``, by one
    `strang_steps` call per sample-to-sample run, each building its own
    operators.  The free stretches take the package's `_free_phases`."""
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((len(times), basis.m), dtype=np.complex128)
    k = 0
    for lo, hi, active in merged_windows(pulses, t0, float(times[-1])):
        n = int(np.searchsorted(times, lo, side="right"))
        _free_phases(out[k:n], c, basis.zeros, times[k:n] - t0)
        c, t0, k = c * np.exp(-1j * basis.zeros * (lo - t0)), lo, n
        width = min(p.width for p in active)
        while t0 < hi:
            t = float(times[k])
            end = hi if t > hi - 1e-12 * (hi - t0) else t
            t_mid, (h,), _ = step_grid([t0, end], width, steps_per_sigma)
            c = strang_steps(basis, c, forcing(active, spin, t_mid), h)
            t0 = end
            if t <= end:
                out[k] = c
                k += 1
    _free_phases(out[k:], c, basis.zeros, times[k:] - t0)
    return out


def per_run_trace(basis, c, t0, pulses, spin, times,
                  steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """<z>(t) of `per_run_rows` (oracle for the operator reuse in
    `mean_height_trace`); only the windows are checked.  Returns (heights,
    state at times[-1])."""
    out = per_run_rows(basis, c, t0, pulses, spin, times, steps_per_sigma)
    return _mean_z(basis, out, _z_scratch(basis.m)), out[-1]


def reference_sub_steps(basis, cs, f_mid, ops, signs=(1,), nodes=None):
    """The sub-step loop of `strang_steps` as a list of branch states, one
    composed-step run with the operators given (oracle for the kernel loop
    `quantum._sub_steps`), for states ``cs``, branch b driven by
    ``signs[b]`` (+1 or -1) times ``f_mid``.  The phases exp(-i h' f lambda)
    of -f are the conjugates of those of f, so one `exp` serves both signs;
    each branch takes its own product with G.  Returns the final states, or
    with ``nodes`` (distinct ascending step counts in [0, n]) each branch's
    states after that many composed steps, stacked on a new first axis.
    """
    if len(f_mid) % 3:
        raise ValueError("the forcing needs three samples per step")
    v, vt = basis.v_complex, basis.vt_complex
    half, g_sub, g_step, lam = ops
    if cs[0].ndim == 2:  # one forcing column drives every column
        half, lam = half[:, None], lam[:, None]
        f_mid = f_mid.reshape(len(f_mid), -1)
    w = np.resize(_WEIGHTS, len(f_mid))
    f_w = f_mid * (w[:, None] if f_mid.ndim == 2 else w)
    keep = set() if nodes is None else set(map(int, nodes))
    kept = [[c] if 0 in keep else [] for c in cs]
    ys = [half * c for c in cs]
    for j in range(len(f_w)):
        if j and j % 3 == 0 and j // 3 in keep:  # ys: after j/3 steps
            for k, y in zip(kept, ys):
                k.append(half * (v @ y))
        if j % _PHASE_ROWS == 0:  # the phases of the next rows, per sign
            e = np.exp(lam * f_w[j:j + _PHASE_ROWS, None])
            phases = {s: e if s > 0 else e.conj() for s in set(signs)}
        g = (g_sub if j % 3 else g_step) if j else vt
        ys = [phases[s][j % _PHASE_ROWS] * (g @ y) for s, y in zip(signs, ys)]
    cs = [half * (v @ y) for y in ys]
    if nodes is None:
        return cs
    return [np.stack(k + [c] if len(f_w) // 3 in keep else k)
            for k, c in zip(kept, cs)]


def _verlet(z, v, t0, t1, pulses, spin, dt, nodes=None):
    """Velocity-Verlet with z'' = -2 + 2 s beta(t); bounces off the floor
    (oracle for `classical._kick_flight`).

    A step that would end below the floor is split at the crossing time
    (exact for the step's constant acceleration): fly to the floor, reflect
    the impact velocity, finish the remainder of the step.  With beta = 0
    this reproduces the exact ballistic flight to rounding accuracy.  The
    list ``nodes``, if given, gets (z, v, a, h) at the start of each step.
    """
    n = whole_steps(t1 - t0, dt)
    h = (t1 - t0) / n
    t = np.cumsum(np.r_[t0, np.full(n, h)])  # step times, accumulated as t += h
    acc = -2.0 + sum(2.0 * spin * p.envelope(t) for p in pulses)
    for a, a_next in zip(acc[:-1].tolist(), acc[1:].tolist()):
        if nodes is not None:
            nodes.append((z, v, a, h))
        z_new = z + v * h + 0.5 * a * h * h
        v_new = v + 0.5 * (a + a_next) * h
        below = z_new < 0
        if below.any():
            zb, vb = z[below], v[below]
            # smallest positive root of z + v tau + a tau^2 / 2 = 0
            disc = np.sqrt(np.maximum(vb * vb - 2.0 * a * zb, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (vb + np.where(vb >= 0, disc, -disc))
                r1 = np.where(a != 0.0, q / (0.5 * a), np.inf)
                r2 = np.where(q != 0.0, zb / q, np.inf)
            tau = np.where((r1 > 0) & ((r1 <= r2) | (r2 <= 0)), r1, r2)
            tau = np.clip(tau, 0.0, h)
            rem = h - tau
            v_hit = vb + a * tau
            z_ref = -v_hit * rem + 0.5 * a * rem * rem
            v_ref = -v_hit + 0.5 * (a + a_next) * rem
            settle = z_ref < 0  # no energy left to leave the floor this step
            z_ref[settle] = 0.0
            v_ref[settle] = 0.0
            z_new[below] = z_ref
            v_new[below] = v_ref
        z, v = z_new, v_new
    return z, v


def verlet_flight(z, v, edges, pulses, spin, steps_per_sigma):
    """`_kick_flight` by one step-by-step `_verlet` run per stretch (oracle).

    Each stretch between two edges is one run on its own grid, at the
    narrowest width of the window's ``pulses``, forced by all of them.
    Returns z and v at edges[-1] and <z> at every edge after the first.
    """
    z, v = np.asarray(z, dtype=np.float64), np.asarray(v, dtype=np.float64)
    dt = min(p.width for p in pulses) / steps_per_sigma
    means = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        z, v = _verlet(z, v, t0, t1, pulses, spin, dt)
        means.append(z.mean())
    return z, v, np.array(means)


def verlet_floor_speeds(z, v, edges, pulses, spin, steps_per_sigma):
    """The floor speed sqrt(v^2 - 2 a z) of each particle of `verlet_flight`
    at each node whose step starts under a downward force a < 0, and the
    floor speed |a| h at or below which `classical._kick_flight` rests a
    particle at such a node: (speeds, rests), one row per node.
    """
    z, v = np.asarray(z, dtype=np.float64), np.asarray(v, dtype=np.float64)
    dt = min(p.width for p in pulses) / steps_per_sigma
    nodes = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        z, v = _verlet(z, v, t0, t1, pulses, spin, dt, nodes)
    down = [(z, v, a, h) for z, v, a, h in nodes if a < 0]
    return (np.array([np.sqrt(v * v - 2.0 * a * z) for z, v, a, _ in down]),
            np.array([np.full_like(z, -a * h) for z, _, a, h in down]))


def stacked_overlap_scan(basis, pulse1, pulse2, delays, spin_average=True,
                         steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """|c_1|^2 of overlapping delays from one run over stacked columns
    (oracle for the overlap runs of `scan_delay`).

    Kick 1 is centered at t = 0, kick 2 at t = tau.  One `strang_steps` run
    spans every delay's merged window; each column is driven by its own two
    pulses inside that window and is free outside it.  Returns the spin
    mean of |c_1|^2 for each delay.
    """
    spins = spin_branches(pulse1.kind, spin_average)
    p1 = KickPulse(pulse1.amplitude, pulse1.width, 0.0, pulse1.kind)
    p2 = KickPulse(pulse2.amplitude, pulse2.width, 0.0, pulse2.kind)
    half1, half2 = p1.window[1], p2.window[1]
    tau = np.asarray(delays, dtype=np.float64)
    lo = np.minimum(-half1, tau - half2)
    hi = np.maximum(half1, tau + half2)
    t, (h,), _ = step_grid([lo.min(), hi.max()], min(p1.width, p2.width),
                           steps_per_sigma)
    t = t[:, None]
    inside = (t >= lo) & (t <= hi)
    f = np.concatenate([np.where(inside, forcing([p1], s, t) +
                                 forcing([p2], s, t - tau), 0.0)
                        for s in spins], axis=1)
    c = np.zeros((basis.m, f.shape[1]), dtype=np.complex128)
    c[0] = 1.0
    c = strang_steps(basis, c, f, h)
    return np.mean(np.abs(c[0].reshape(len(spins), -1)) ** 2, axis=0)


def impulsive_scan_analytic(basis, alpha1, alpha2, delays, kind="magnetic",
                            spin_average=True):
    """Closed-form impulsive-limit scan (the impulsive oracle for
    `scan_delay`): c_1(tau) = sum_i P2_1i e^{-i z_i tau} P1_i1."""
    delays = np.asarray(delays, dtype=np.float64)
    amps = np.stack([impulsive_kick_matrix(basis, alpha2, s, kind)[0, :] *
                     impulsive_kick_matrix(basis, alpha1, s, kind)[:, 0]
                     for s in spin_branches(kind, spin_average)], axis=1)
    return DelayScan(delays, _spin_mean_forward(basis, delays, amps))


def area(pulse):
    """Time integral of the pulse envelope: a_k * sigma_k * sqrt(pi)."""
    return pulse.amplitude * pulse.width * math.sqrt(math.pi)


def _first_order_amplitudes(basis, pulse, spin):
    """First-order transition amplitudes <i|U|1> - delta_i1 for one pulse.

    Gaussian pulses excite with their spectral envelope at the transition
    frequency: K_i = i s Z_i1 * area * exp(-w^2 sigma^2 / 4) for magnetic
    kicks and K_i = i Z_i1 * (w^2/2) * area * exp(-w^2 sigma^2 / 4) for
    shakes (the h''(t)/2 forcing integrates by parts to -w^2 h(w)/2).
    """
    w = transition_frequencies(basis)
    envelope = area(pulse) * np.exp(-0.25 * (w * pulse.width) ** 2)
    z_col = basis.z_matrix[1:, 0]
    if pulse.kind == "magnetic":
        return 1j * spin * z_col * envelope
    return 1j * z_col * 0.5 * w ** 2 * envelope


def perturbative_scan(basis, pulse1, pulse2, delays, spin_average=True):
    """Weak-kick scan from first-order perturbation theory (the weak-kick
    oracle for `scan_delay`).

    Keeps only ground <-> excited interference, so the signal contains the
    frequencies z_i - z_1 and nothing else:
    |c_1|^2 = 1 - sum_i |K1_i + K2_i e^{i (z_i - z_1) tau}|^2.
    """
    if pulse1.kind != pulse2.kind:
        raise ValueError("both kicks must share the same kind")
    delays = np.asarray(delays, dtype=np.float64)
    spins = spin_branches(pulse1.kind, spin_average)
    w = transition_frequencies(basis)
    pops = np.zeros(len(delays))
    for s in spins:
        k1 = _first_order_amplitudes(basis, pulse1, s)
        k2 = _first_order_amplitudes(basis, pulse2, s)
        excited = np.abs(k1[None, :] + k2[None, :] *
                         np.exp(1j * np.outer(delays, w))) ** 2
        pops += 1.0 - excited.sum(axis=1)
    pops /= len(spins)
    return DelayScan(delays, pops)


def legacy_csv_text(header_items, columns, rows):
    """CSV text formatted one value at a time (oracle for `cli.write_csv`):
    floats with 17 significant digits, anything else with ``str``."""
    lines = [f"# version = {__version__}"]
    lines += [f"# {k} = {v}" for k, v in header_items]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def plain_csv_text(header_items, columns, rows):
    """CSV text with every value formatted by one `%`, "%.17g" each
    (oracle for the shortcuts of `cli.write_csv`)."""
    rows = np.asarray(rows, dtype=np.float64)
    head = [f"# version = {__version__}"]
    head += [f"# {k} = {v}" for k, v in header_items]
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return ("\n".join(head + [",".join(columns)]) + "\n"
            + line * len(rows) % tuple(rows.ravel().tolist()))


def read_scan_csv_lines(path):
    """A scan CSV read line by line, each value by ``float`` (oracle for
    `cli.read_scan_csv`).  Returns (header, columns, data)."""
    header = {}
    rows = []
    columns = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    header[k.strip()] = v.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, columns, np.asarray(rows)
