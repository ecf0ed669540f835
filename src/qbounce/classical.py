"""Classical ensemble of bouncing particles with pulsed kicks.

Dimensionless Newton equation matching the quantum unit system:
z'' = -2 + 2 s beta(t) (the same scales that make the quantum equation
-psi'' + z psi = E psi give the classical particle acceleration -2; the
algebra is in the README).  Between pulses a particle of energy
e = v^2/2 + 2z bounces with period u = sqrt(2e), its floor speed, so a whole
sample grid is one closed-form expression; inside a pulse window a
velocity-Verlet stepper takes over.  Reflection is specular and lossless.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .pulses import KickPulse, merged_windows

__all__ = ["ClassicalEnsemble", "sample_initial", "ballistic_flight",
           "propagate", "mean_height_series", "particle_energy"]

DEFAULT_STEPS_PER_SIGMA = 200
_CHUNK_ELEMENTS = 1 << 17  # sample rows x particles per free-flight chunk


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Particle heights and velocities for one spin branch."""

    z: np.ndarray
    v: np.ndarray
    spin: int = 1
    seed: int | None = None
    time: float = 0.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if z.shape != v.shape or z.ndim != 1 or len(z) < 1:
            raise ValueError("z and v must be equal-length 1-d arrays")
        if np.any(z < 0):
            raise ValueError("particle heights must be non-negative")
        if self.spin not in (-1, 1):
            raise ValueError("spin branch must be +1 or -1")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        z.setflags(write=False)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def mean_height(self) -> float:
        return float(self.z.mean())


def particle_energy(z, v):
    """Conserved flight energy e = v^2/2 + 2z (constant while beta = 0)."""
    return 0.5 * np.asarray(v) ** 2 + 2.0 * np.asarray(z)


def sample_initial(n: int, mu_z: float, mu_v: float, sigma_z: float,
                   sigma_v: float, seed: int, spin: int = 1) -> ClassicalEnsemble:
    """Gaussian phase-space sample; draws with z < 0 are redrawn.

    Deterministic for a fixed seed.  Raises if the requested Gaussian puts
    more than 25% of its weight below the floor: redrawing that much mass
    would no longer resemble a Gaussian centered at mu_z.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if sigma_z < 0 or sigma_v < 0 or mu_z <= 0:
        raise ValueError("widths must be non-negative and mu_z positive")
    if sigma_z > 0:
        p_below = 0.5 * math.erfc(mu_z / (sigma_z * math.sqrt(2.0)))
        if p_below > 0.25:
            raise ValueError(
                f"{100 * p_below:.0f}% of the requested Gaussian lies below "
                f"the floor (mu_z={mu_z}, sigma_z={sigma_z})")
    rng = np.random.default_rng(seed)
    z = mu_z + sigma_z * rng.standard_normal(n)
    v = mu_v + sigma_v * rng.standard_normal(n)
    while (bad := z < 0).any():  # at most 25% redrawn: decays geometrically
        z[bad] = mu_z + sigma_z * rng.standard_normal(int(bad.sum()))
    return ClassicalEnsemble(z, v, spin=spin, seed=seed)


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


def _verlet(z, v, t0, t1, pulses, spin, dt):
    """Velocity-Verlet with z'' = -2 + 2 s beta(t); bounces off the floor.

    A step that would end below the floor is split at the crossing time
    (exact for the step's constant acceleration): fly to the floor, reflect
    the impact velocity, finish the remainder of the step.  With beta = 0
    this reproduces the exact ballistic flight to rounding accuracy.
    """
    n = max(1, math.ceil((t1 - t0) / dt))
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


def propagate(ens: ClassicalEnsemble, t_to: float, pulses=(),
              steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA,
              z_cap: float | None = None) -> ClassicalEnsemble:
    """Advance the ensemble to ``t_to`` through any pulse windows.

    Exact ballistic flight outside the windows (|t - t_k| > 6 sigma_k),
    velocity-Verlet with step sigma_k / ``steps_per_sigma`` inside.
    Particles ending above ``z_cap`` trigger a warning (escape flag).
    """
    if isinstance(pulses, KickPulse):
        pulses = [pulses]
    if any(p.kind != "magnetic" for p in pulses):
        raise ValueError("classical propagation supports magnetic kicks only")
    if t_to < ens.time:
        raise ValueError("t_to must not precede the ensemble time")
    z, v, t = ens.z, ens.v, ens.time
    for lo, hi, active in merged_windows(pulses, t, t_to):
        if lo > t:
            z, v = ballistic_flight(z, v, lo - t)
            t = lo
        dt = min(p.width for p in active) / steps_per_sigma
        z, v = _verlet(z, v, t, hi, active, ens.spin, dt)
        t = hi
    if t_to > t:
        z, v = ballistic_flight(z, v, t_to - t)
    if z_cap is not None and (high := int((z > z_cap).sum())):
        warnings.warn(f"{high} particle(s) above z_cap={z_cap}", stacklevel=2)
    return replace(ens, z=z, v=v, time=t_to)


def _free_mean_height(ens: ClassicalEnsemble, times, z_cap: float):
    """<z> at ``times`` (>= ens.time) in free flight, a few rows at a time.

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


def mean_height_series(n: int, mu_z: float, mu_v: float, sigma_z: float,
                       sigma_v: float, seed: int, pulses, times: np.ndarray,
                       spins=(1, -1),
                       steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA):
    """<z>(t) per spin branch on the sample grid ``times``.

    Every branch starts from the identical seeded sample (the branches
    differ only in the sign of the kick force).  Free stretches are sampled
    in closed form, pulse windows by the stepper; heights above 10 mu_z
    warn.  Returns a dict spin -> series; average them for the spin average.
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("sample times must be ascending and non-negative")
    z_cap = 10.0 * mu_z
    series = {}
    for s in spins:
        ens = sample_initial(n, mu_z, mu_v, sigma_z, sigma_v, seed, spin=s)
        out = np.empty_like(times)
        idx = 0
        for lo, hi, _ in merged_windows(pulses, 0.0, float(times[-1])):
            start, stop = np.searchsorted(times, (lo, hi), side="right")
            out[idx:start] = _free_mean_height(ens, times[idx:start], z_cap)
            for k in range(start, stop):  # land on each sample in the window
                ens = propagate(ens, times[k], pulses, steps_per_sigma, z_cap)
                out[k] = ens.mean_height
            ens = propagate(ens, hi, pulses, steps_per_sigma, z_cap)
            idx = stop
        out[idx:] = _free_mean_height(ens, times[idx:], z_cap)
        series[s] = out
    return series
