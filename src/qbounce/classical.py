"""Classical ensemble of bouncing particles with pulsed kicks.

Dimensionless Newton equation matching the quantum unit system:
z'' = -2 - 2 f(t), f = -s beta(t) the forcing of the kick model
(`pulses.forcing`).  The same scales that make the quantum equation
-psi'' + z psi = E psi give the classical particle acceleration -2; the
algebra is in the README.  Between pulses a particle of energy
e = v^2/2 + 2z bounces with period u = sqrt(2e), its floor speed, and
between bounces flies a parabola in t; inside a pulse window a
velocity-Verlet stepper takes over.  The kick force does not depend on z,
so off the floor every particle follows one map built from prefix sums
over the step grid, and the stepper runs in rounds of bounces rather than
of steps: each round takes every particle to its next floor crossing.
Either way a particle's path is a chain of free stretches
z = base + slope T + P(T), with P = -T^2 in free flight, and <z> on a
sample grid is a sum over the stretches' coefficients (bounce sums), not
over sample x particle pairs.  Reflection is specular and lossless.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .pulses import (InputError, KickPulse, _check_sample_times, forcing,
                     merged_windows, run_steps, window_edges)

__all__ = ["ClassicalEnsemble", "sample_initial", "ballistic_flight",
           "mean_height_series"]

DEFAULT_STEPS_PER_SIGMA = 200
# free-flight samples summed about one origin; rounding grows as its span^2
_BLOCK_SAMPLES, _BLOCK_SPAN = 160, 16.0
_LANES = 32  # accumulators per node in the stretch sums, a power of 2


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Particle heights and velocities for one spin branch."""

    z: np.ndarray
    v: np.ndarray
    spin: int = 1
    time: float = 0.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if z.shape != v.shape or z.ndim != 1 or len(z) < 1:
            raise InputError("z and v must be equal-length 1-d arrays")
        # a nan makes min and max nan: no temporary arrays for the check
        if not (0 <= z.min() and z.max() < np.inf and
                -np.inf < v.min() and v.max() < np.inf):
            raise InputError("need finite heights >= 0 and finite velocities")
        if self.spin not in (-1, 1):
            raise InputError("spin branch must be +1 or -1")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        z.setflags(write=False)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.z)


def sample_initial(n: int, mu_z: float, mu_v: float, sigma_z: float,
                   sigma_v: float, seed: int) -> ClassicalEnsemble:
    """Gaussian phase-space sample of spin +1; draws with z < 0 are redrawn.

    Deterministic for a fixed seed.  Raises as `_check_sample` does.
    """
    if n < 1:
        raise InputError("need at least one particle")
    _check_sample(mu_z, sigma_z, sigma_v)
    rng = np.random.default_rng(seed)
    z = mu_z + sigma_z * rng.standard_normal(n)
    v = mu_v + sigma_v * rng.standard_normal(n)
    while (bad := z < 0).any():  # at most 25% redrawn: decays geometrically
        z[bad] = mu_z + sigma_z * rng.standard_normal(int(bad.sum()))
    return ClassicalEnsemble(z, v)


def _check_sample(mu_z, sigma_z, sigma_v):
    """Raise InputError unless the widths are non-negative, mu_z positive
    and at most 25% of the Gaussian lies below the floor: redrawing more
    would no longer resemble a Gaussian centered at mu_z."""
    if sigma_z < 0 or sigma_v < 0 or mu_z <= 0:
        raise InputError("widths must be non-negative and mu_z positive")
    if sigma_z > 0:
        p_below = 0.5 * math.erfc(mu_z / (sigma_z * math.sqrt(2.0)))
        if p_below > 0.25:
            raise InputError(
                f"{100 * p_below:.0f}% of the requested Gaussian lies below "
                f"the floor (mu_z={mu_z}, sigma_z={sigma_z})")


def _orbit(z, v):
    """Floor speed u, 1/u (0 for a particle at rest) and the phase in periods."""
    u = np.sqrt(np.square(v, dtype=np.float64) + np.multiply(4.0, z))
    inv_u = np.divide(1.0, u, out=np.zeros_like(u), where=u > 0)
    return u, inv_u, 0.5 * (u - v) * inv_u


def ballistic_flight(z, v, dt: float):
    """Exact flight under z'' = -2 with specular floor bounces (heights z >= 0).

    Works on arrays; returns (z, v) after time dt.  A particle leaves the
    floor with speed u = sqrt(v^2 + 4z) and is back after time u; with phi
    the time since its last floor contact, z = phi (u - phi), v = u - 2 phi.
    A particle on the floor comes back as leaving it (v >= 0).
    """
    u, inv_u, phase = _orbit(z, v)
    phase = phase + dt * inv_u
    phi = u * (phase - np.floor(phase))
    return phi * (u - phi), u - 2.0 * phi


def _floor_split(z, v, a, a_next, h):
    """Split a step that ends below the floor at its crossing time.

    Exact for the step's constant acceleration ``a``: fly to the floor,
    reflect the impact velocity, finish the remainder of the step.  A
    particle left without the energy to leave the floor settles at rest.
    """
    # smallest positive root of z + v tau + a tau^2 / 2 = 0
    disc = np.sqrt(np.maximum(v * v - 2.0 * a * z, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (v + np.where(v >= 0, disc, -disc))
        r1 = np.where(a != 0.0, q / (0.5 * a), np.inf)
        r2 = np.where(q != 0.0, z / q, np.inf)
    tau = np.where((r1 > 0) & ((r1 <= r2) | (r2 <= 0)), r1, r2)
    del disc, q, r1, r2  # a round can split every particle: keep few arrays
    tau = np.clip(tau, 0.0, h)
    rem = h - tau
    v_hit = v + a * tau
    z_ref = -v_hit * rem + 0.5 * a * rem * rem
    v_ref = -v_hit + 0.5 * (a + a_next) * rem
    settle = z_ref < 0  # no energy left to leave the floor this step
    return np.where(settle, 0.0, z_ref), np.where(settle, 0.0, v_ref)


def _unimodal_ranges(a0, a1, h):
    """Node ranges (lo, hi] on which every free height sequence is unimodal.

    With D_k = v_k + a0_k h_k / 2 the height increment per unit time of step
    k, D_k - D_{k-1} = (a1_{k-1} h_{k-1} + a0_k h_k) / 2 for every particle.
    While that keeps its sign, heights rise then fall (concave) or fall then
    rise (convex).  Returns (lo, hi, convex) triples covering (0, n_steps].
    """
    convex = a1[:-1] * h[:-1] + a0[1:] * h[1:] > 0  # node k = 1 .. n_steps - 1
    bounds = np.r_[0, np.flatnonzero(convex[1:] != convex[:-1]) + 2, len(h)]
    kinds = convex[np.maximum(bounds[:-1] - 1, 0)] if len(convex) else [False]
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist(), kinds))


def _stretch_means(start, stop, base, slope, t, p, n):
    """<z> of n particles at each node from their free stretches.

    Stretch i holds z = base_i + slope_i t + p at the nodes start_i <= k <
    stop_i, node k at time t_k with force term p_k; a particle without a
    stretch at a node, one at rest on the floor, adds 0 there.  Each node's
    sums are split over ``_LANES`` accumulators, so that no double sum runs
    over thousands of like-signed terms, and are combined in long double.
    """
    size = len(t) + 1
    at = np.arange(len(start)) & (_LANES - 1)
    to = at + stop * _LANES
    at += start * _LANES

    def total(w):
        d = np.bincount(at, w, size * _LANES) - np.bincount(to, w, size * _LANES)
        return np.cumsum(d.reshape(size, _LANES).sum(1, dtype=np.longdouble))[:-1]

    count = np.cumsum(np.bincount(start, None, size) -
                      np.bincount(stop, None, size))[:-1]
    return ((total(base) + total(slope) * t + count * p) / n).astype(np.float64)


def _advance(sums, j, k, z, v):
    """The stepper's free flight from node j, where it is at (z, v), to
    node k: z + v (T_k - T_j) + P_k - P_j - C_j (T_k - T_j) and
    v + C_k - C_j, from the long-double prefix sums (T, C, P) of
    `_kick_flight`.  Near the floor z is small beside each term of
    base + slope T_k + P_k, so that double form loses about eps |P_k| on
    every bounce, and a slow bouncer's chain of bounces can amplify it.
    """
    T, C, P = sums
    dt = T[k] - T[j]
    return ((z + v * dt + (P[k] - P[j] - C[j] * dt)).astype(np.float64),
            (v + (C[k] - C[j])).astype(np.float64))


def _kick_flight(z, v, edges, pulses, spin, steps_per_sigma):
    """Velocity-Verlet with z'' = -2 - 2 f(t) across one pulse window, f the
    forcing of its active ``pulses``, each run between two edges on the
    steps `run_steps` gives it at their narrowest width (node times t += h,
    the run's last node at its end).  The kick force does not depend on z,
    so off the floor the map from node j to a later node k of that grid is
    the same for every particle:
        z_k = z_j + (v_j - C_j)(T_k - T_j) + P_k - P_j,  v_k = v_j + C_k - C_j,
    with T, C and P prefix sums of h, (a0 + a1) h / 2 and C h + a0 h^2 / 2.
    So the stepper runs in rounds of bounces, not of steps: each round finds
    every particle's first step that ends below the floor, by bisection on a
    range where its heights are unimodal, applies ``_floor_split`` at that
    step and restarts the particle from the next node.  A particle with no
    crossing left is done.  One whose floor speed is below |a| h under a
    downward force rests at z = v = 0 until the force turns upward; a step
    by step run micro-hops there instead, by a few h^2.

    A round's end state, at the floor crossing or at the last node, is
    taken from its start state (``_advance``).
    Returns z and v at edges[-1] and <z> at every edge after the first, from
    the free stretches (``_stretch_means``).
    """
    steps, hs = run_steps(edges, min(p.width for p in pulses),
                          steps_per_sigma)
    t = np.concatenate([np.cumsum(np.r_[t0, np.full(k - 1, h)])
                        for t0, k, h in zip(edges, steps, hs)] + [edges[-1:]])
    acc = -2.0 - 2.0 * forcing(pulses, spin, t)
    h, a0, a1, ends = np.repeat(hs, steps), acc[:-1], acc[1:], np.cumsum(steps)
    n_steps, n = len(h), len(z)
    ranges = _unimodal_ranges(a0, a1, h)
    # accumulated in extended precision, so each sum is rounded to double once
    T = np.cumsum(np.r_[0.0, h], dtype=np.longdouble)
    C = np.cumsum(np.r_[0.0, 0.5 * (a0 + a1) * h], dtype=np.longdouble)
    P = np.cumsum(np.r_[0.0, C[:-1] * h + 0.5 * a0 * h * h])
    sums = T, C, P  # kept in long double for `_advance`
    T, C, P = T.astype(np.float64), C.astype(np.float64), P.astype(np.float64)
    # first node at or after k where the force points up; none past the end
    up = np.where(a0 >= 0, np.arange(n_steps), n_steps)
    lift = np.r_[np.minimum.accumulate(up[::-1])[::-1], n_steps]
    a0, h = np.r_[a0, 0.0], np.r_[h, 0.0]  # no force at the last node

    means = np.zeros(len(ends))
    z_out, v_out = np.empty(n), np.empty(n)
    idx, j = np.arange(n), np.zeros(n, dtype=np.intp)
    z, v = np.array(z, dtype=np.float64), np.array(v, dtype=np.float64)
    while idx.size:
        a = a0[j]
        rest = (a < 0) & (v * v - 2.0 * a * z <= (a * h[j]) ** 2)
        z[rest], v[rest], j[rest] = 0.0, 0.0, lift[j[rest]]
        parked = rest & (j == n_steps)
        z_out[idx[parked]], v_out[idx[parked]] = 0.0, 0.0
        keep = ~parked
        idx, j, z, v = idx[keep], j[keep], z[keep], v[keep]

        slope = v - C[j]  # free flight: z_k = base + slope T_k + P_k
        base = z - slope * T[j] - P[j]
        node, hit = np.full(len(j), n_steps), np.zeros(len(j), dtype=bool)
        for lo, hi, convex in ranges:
            sel = np.flatnonzero(~hit & (j < hi))
            if not convex:  # heights rise, then fall: below only if at the end
                sel = sel[base[sel] + slope[sel] * T[hi] + P[hi] < 0]
            b, s = base[sel], slope[sel]
            left, right = np.maximum(j[sel], lo), np.full(len(sel), hi)
            while (gap := right - left > 1).any():
                mid = (left + right) // 2
                past = b + s * T[mid] + P[mid] < 0
                if convex:  # or past the lowest height of the range
                    past |= s + C[mid] + 0.5 * a0[mid] * h[mid] >= 0
                right = np.where(gap & past, mid, right)
                left = np.where(gap & ~past, mid, left)
            below = b + s * T[right] + P[right] < 0
            hit[sel[below]] = True
            node[sel[below]] = right[below]

        last = np.where(hit, node - 1, n_steps)  # last node of the free stretch
        means += _stretch_means(np.searchsorted(ends, j),
                                np.searchsorted(ends, last, "right"), base,
                                slope, T[ends], P[ends], n)

        done = ~hit
        z_out[idx[done]], v_out[idx[done]] = _advance(
            sums, j[done], n_steps, z[done], v[done])
        m = node[hit] - 1
        z, v = _floor_split(*_advance(sums, j[hit], m, z[hit], v[hit]),
                            a0[m], a1[m], h[m])
        idx, j = idx[hit], node[hit]
    return z_out, v_out, means


def _magnetic(pulses):
    """The pulses as a list; the classical force knows magnetic kicks only."""
    pulses = [pulses] if isinstance(pulses, KickPulse) else list(pulses)
    if any(p.kind != "magnetic" for p in pulses):
        raise InputError("classical propagation supports magnetic kicks only")
    return pulses


def _fly(ens, t):
    """The ensemble in free flight at ``t`` >= ens.time."""
    if t == ens.time:
        return ens
    z, v = ballistic_flight(ens.z, ens.v, t - ens.time)
    return replace(ens, z=z, v=v, time=t)


def _cross_window(ens, edges, pulses):
    """The stepper across one pulse window from ``ens`` at edges[0], at
    ``DEFAULT_STEPS_PER_SIGMA``.

    Returns the ensemble at edges[-1] and <z> at every edge after the first.
    """
    z, v, means = _kick_flight(ens.z, ens.v, edges, pulses, ens.spin,
                               DEFAULT_STEPS_PER_SIGMA)
    try:
        return replace(ens, z=z, v=v, time=float(edges[-1])), means
    except InputError as exc:
        raise ArithmeticError(f"classical walk: {exc}") from None


def _locate(tau, keys):
    """``np.searchsorted(tau, keys)`` for an ascending ``tau`` from 0.

    Guesses each index as if ``tau`` were evenly spaced and leaves the keys
    that ``tau`` puts elsewhere to a search.  The keys are clipped to
    [0, tau[-1]] before scaling: on a tiny tau[-1] the scale nears 1e308.
    Below tau[-1] = 1e-300 (a subnormal, say) the scale would overflow, so
    every key goes to the search.
    """
    ext = np.r_[-np.inf, tau, np.inf]  # ext[g] = tau[g - 1]
    scale = (len(tau) - 1) / tau[-1] if tau[-1] > 1e-300 else 0.0
    g = np.ceil(np.clip(keys, 0.0, tau[-1]) * scale).astype(np.intp)
    off = (ext[g] >= keys) | (ext[g + 1] < keys)
    if off.any():
        g[off] = np.searchsorted(tau, keys[off])
    return g


def _warn_escapes(ens: ClassicalEnsemble, z_cap: float):
    """Warn if a particle's apex z + v^2/4 = e/2 lies above ``z_cap``; one
    that overflows is a numerical failure (ArithmeticError)."""
    apex = ens.z + 0.25 * ens.v * ens.v
    if not apex.max() < np.inf:  # apex >= 0; a nan makes the max nan
        raise ArithmeticError(f"classical energy not finite at t = {ens.time}")
    if high := int((apex > z_cap).sum()):
        warnings.warn(f"{high} particle(s) rise above z_cap={z_cap}",
                      stacklevel=3)


def _flight_means(ens: ClassicalEnsemble, times):
    """<z> at ``times`` (>= ens.time) in free flight, from bounce sums.

    The samples go in blocks of at most ``_BLOCK_SAMPLES`` samples and
    ``_BLOCK_SPAN`` time units.  With tau the time since a block's first
    sample, a particle of floor speed u that bounced at tau_k flies
    z = -tau_k (u + tau_k) + (u + 2 tau_k) tau - tau^2 until its next bounce
    at tau_k + u: a free stretch.  Each particle's stretches in a block, from
    its last bounce before the block on, go to one ``_stretch_means`` call.
    A particle with more bounces in a block than the block has samples is
    summed sample by sample instead.
    """
    u, inv_u, phase = _orbit(ens.z, ens.v)
    moving = u > 0  # a particle at rest on the floor adds 0
    u, inv_u, phase = u[moving], inv_u[moving], phase[moving]
    out = np.empty(len(times))
    a = 0
    while a < len(times):
        b = min(a + _BLOCK_SAMPLES,
                int(np.searchsorted(times, times[a] + _BLOCK_SPAN)))
        tau = times[a:b] - times[a]
        fast = tau[-1] > (b - a) * u  # more bounces than samples
        out[a:b] = 0.0
        if fast.any():
            dt = (times[a:b] - ens.time)[:, None]
            z, v = ens.z[moving][fast], ens.v[moving][fast]
            out[a:b] = ballistic_flight(z, v, dt)[0].sum(1) / ens.n
        ph = phase[~fast] + (times[a] - ens.time) * inv_u[~fast]
        u_k = u[~fast]
        first = u_k * (np.floor(ph) + 1.0 - ph)  # time to the next bounce
        # stretches per particle: the one open at tau = 0, one per bounce
        k = np.maximum(np.floor((tau[-1] - first) / u_k), -1.0)
        k = k.astype(np.intp) + 2
        ends = np.cumsum(k)
        # stretch i of a particle opens with the bounce at first + (i - 1) u
        t_k = np.arange(k.sum(), dtype=np.float64)
        t_k -= np.repeat(ends - k + 1, k)
        u_k = np.repeat(u_k, k)
        t_k *= u_k
        t_k += np.repeat(first, k)
        start = _locate(tau, t_k)
        stop = start.copy()
        stop[:-1] = start[1:]
        stop[ends - 1] = b - a
        # sum -z = t_k (u + t_k) - (u + 2 t_k) tau + tau^2, in place
        slope = -2.0 * t_k
        slope -= u_k
        u_k += t_k
        u_k *= t_k
        out[a:b] -= _stretch_means(start, stop, u_k, slope, tau, tau * tau,
                                   ens.n)
        a = b
    return out


def mean_height_series(n: int, mu_z: float, mu_v: float, sigma_z: float,
                       sigma_v: float, seed: int, pulses, times: np.ndarray,
                       snapshots=()):
    """<z>(t) of spin +1 and -1 on the sample grid ``times``, and each
    spin's ensemble at each ascending ``snapshots`` time (repeats allowed).

    Every branch starts from one seeded sample, drawn once (the branches
    differ only in the sign of the kick force), so the free flight before
    the first pulse window is summed once for all of them.  Free flight
    between the pulse windows is summed bounce by bounce
    (``_flight_means``), each pulse window by one stepper run at
    ``DEFAULT_STEPS_PER_SIGMA`` that lands on its samples; both sum free
    stretches, never sample x particle pairs.
    The walk goes on to the last snapshot, through any window past the
    samples.  A snapshot outside the windows is the exact flight of the
    ensemble the walk holds (the sample, or the ensemble at the end of the
    last window before it).  One inside a window reruns the window's
    stepper from its start, on the series' edges before the snapshot and
    then on to it; the rerun is not fed back, so the series does not depend
    on the snapshots.  Apexes above 10 mu_z warn: the sample's once, and
    each branch's at each window's end; an apex that overflows, or a
    window's end state that fails the ensemble's checks, raises
    ArithmeticError.  Returns a dict spin -> (series, [ClassicalEnsemble
    per snapshot]); average the series for the spin average.
    """
    times = _check_sample_times(times, 0.0)
    snaps = [float(t) for t in snapshots]
    if snaps != sorted(snaps) or not all(0.0 <= t < math.inf for t in snaps):
        raise InputError("snapshot times must be ascending, finite and >= 0")
    pulses = _magnetic(pulses)
    z_cap = 10.0 * mu_z
    t_end = float(times[-1])
    # the series' windows end at the last sample, as without snapshots; the
    # windows past it only carry the walk on to the last snapshot
    windows = (merged_windows(pulses, 0.0, t_end) +
               merged_windows(pulses, t_end, max([t_end] + snaps)))
    first = (int(np.searchsorted(times, windows[0][0], side="right"))
             if windows else len(times))
    sample = sample_initial(n, mu_z, mu_v, sigma_z, sigma_v, seed)
    _warn_escapes(sample, z_cap)
    head = _flight_means(sample, times[:first])
    series = {}
    for s in (1, -1):
        ens = replace(sample, spin=s)
        out, shots = np.empty_like(times), []
        out[:first] = head
        idx = first
        for lo, hi, active in windows:
            # one stepper run lands on every sample in the window
            edges, start, stop = window_edges(times, lo, hi)
            out[idx:start] = _flight_means(ens, times[idx:start])
            shots += [_fly(ens, t)
                      for t in snaps[len(shots):bisect_right(snaps, lo)]]
            ens = _fly(ens, lo)
            shots += [_cross_window(ens, np.r_[edges[edges < t], t], active)[0]
                      for t in snaps[len(shots):bisect_left(snaps, hi)]]
            ens, means = _cross_window(ens, edges, active)
            out[start:stop] = means[:stop - start]
            _warn_escapes(ens, z_cap)
            idx = stop
        out[idx:] = _flight_means(ens, times[idx:])
        series[s] = out, shots + [_fly(ens, t) for t in snaps[len(shots):]]
    return series
