"""Test-only helpers: reference oracles and trace diagnostics."""

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from qbounce import __version__
from qbounce.airy import _C1, _C2, airy_ai
from qbounce.basis import _MAX_PANELS, _OVERLAP_TOL, QuadratureError
from qbounce.basis import _CHUNK_ELEMENTS as _PSI_CHUNK_ELEMENTS
from qbounce.basis import _overlap_integrals
from qbounce.classical import (ClassicalEnsemble, _orbit, propagate,
                               sample_initial)
from qbounce.pulses import KickPulse, merged_windows, spin_branches, whole_steps
from qbounce.quantum import (DEFAULT_STEPS_PER_SIGMA, StateVector,
                             _free_phases, _mean_z, evolve_pulsed, forcing,
                             impulsive_kick_matrix, step_grid, strang_steps)


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


def free_evolve(state, basis, dt):
    """c_i <- c_i exp(-i z_i dt); exactly norm preserving."""
    return StateVector(state.coeffs * np.exp(-1j * basis.zeros * dt),
                       state.time + dt)


def impulsive_kick(state, basis, alpha, spin=1, kind="magnetic"):
    """Apply the impulsive kick operator to the state (zero duration)."""
    return StateVector(impulsive_kick_matrix(basis, alpha, spin, kind) @
                       state.coeffs, state.time)


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


def expectation_z(state, basis):
    """<z> = c^dag Z c in complex arithmetic (oracle for the real products
    of `quantum._mean_z`); the imaginary residual must be at rounding level.
    """
    val = np.vdot(state.coeffs, basis.z_matrix @ state.coeffs)
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


def _free_mean_height(ens: ClassicalEnsemble, times, z_cap: float):
    """<z> at ``times`` (>= ens.time) in free flight, a few rows at a time
    (oracle for `classical._flight_means`).

    With y = phase - 1/2 wrapped into [-1/2, 1/2], z = u^2 (1/4 - y^2).
    Warns if an apex u^2/4 = e/2 exceeds ``z_cap``.
    """
    u, inv_u, phase = _orbit(ens.z, ens.v)
    u2, phase = u * u, phase - 0.5
    if len(times) and (high := int((u2 > 4.0 * z_cap).sum())):
        warnings.warn(f"{high} particle(s) rise above z_cap={z_cap}", stacklevel=3)
    out = np.empty(len(times))
    rows = max(1, _CHUNK_ELEMENTS // ens.n)
    for k in range(0, len(times), rows):
        y = np.multiply.outer(times[k:k + rows] - ens.time, inv_u)
        y += phase
        y -= np.rint(y)
        out[k:k + rows] = 0.25 * u2.mean() - (y * y) @ u2 / ens.n
    return out


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


def direct_free_phases(c, zeros, tau):
    """c e^{-i z tau} with one `exp` per sample and state (oracle for
    `quantum._free_phases`)."""
    return c * np.exp(-1j * np.outer(tau, zeros))


def per_run_trace(basis, state, pulses, spin, times,
                  steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """<z>(t) by one `strang_steps` call per sample-to-sample run, each
    building its own operators (oracle for the operator reuse in
    `mean_height_trace`).  The free stretches take the package's
    `_free_phases`, so only the windows are checked.  Returns (heights,
    final_state)."""
    times = np.asarray(times, dtype=np.float64)
    c, t0 = state.coeffs, state.time
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
            t_mid, h = step_grid(t0, end, width, steps_per_sigma)
            c = strang_steps(basis, c, forcing(active, spin, t_mid), h)
            t0 = end
            if t <= end:
                out[k] = c
                k += 1
    _free_phases(out[k:], c, basis.zeros, times[k:] - t0)
    return _mean_z(basis, out), StateVector(out[-1], float(times[-1]))


def _verlet(z, v, t0, t1, pulses, spin, dt):
    """Velocity-Verlet with z'' = -2 + 2 s beta(t); bounces off the floor
    (oracle for `classical._kick_flight`).

    A step that would end below the floor is split at the crossing time
    (exact for the step's constant acceleration): fly to the floor, reflect
    the impact velocity, finish the remainder of the step.  With beta = 0
    this reproduces the exact ballistic flight to rounding accuracy.
    """
    n = whole_steps(t1 - t0, dt)
    h = (t1 - t0) / n
    t = np.cumsum(np.r_[t0, np.full(n, h)])  # step times, accumulated as t += h
    acc = -2.0 + sum(2.0 * spin * p.envelope(t) for p in pulses)
    for a, a_next in zip(acc[:-1].tolist(), acc[1:].tolist()):
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

    Each stretch between two edges is one run on its own grid, forced by the
    pulses active in it, as one ``propagate`` per stretch would take it.
    Returns z and v at edges[-1] and <z> at every edge after the first.
    """
    z, v = np.asarray(z, dtype=np.float64), np.asarray(v, dtype=np.float64)
    means = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        (_, _, active), = merged_windows(pulses, t0, t1)
        dt = min(p.width for p in active) / steps_per_sigma
        z, v = _verlet(z, v, t0, t1, active, spin, dt)
        means.append(z.mean())
    return z, v, np.array(means)


def stacked_overlap_scan(basis, pulse1, pulse2, delays, spin_average=True,
                         spin=1, steps_per_sigma=DEFAULT_STEPS_PER_SIGMA):
    """|c_1|^2 of overlapping delays from one run over stacked columns
    (oracle for the overlap runs of `scan_delay`).

    Kick 1 is centered at t = 0, kick 2 at t = tau.  One `strang_steps` run
    spans every delay's merged window; each column is driven by its own two
    pulses inside that window and is free outside it.  Returns the spin
    mean of |c_1|^2 for each delay.
    """
    spins = spin_branches(pulse1.kind, spin_average, spin)
    p1 = KickPulse(pulse1.amplitude, pulse1.width, 0.0, pulse1.kind)
    p2 = KickPulse(pulse2.amplitude, pulse2.width, 0.0, pulse2.kind)
    half1, half2 = p1.window[1], p2.window[1]
    tau = np.asarray(delays, dtype=np.float64)
    lo = np.minimum(-half1, tau - half2)
    hi = np.maximum(half1, tau + half2)
    t, h = step_grid(lo.min(), hi.max(), min(p1.width, p2.width),
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
