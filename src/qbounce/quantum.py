"""Wave-packet propagation in the truncated eigenbasis.

Free flight multiplies each coefficient by exp(-i z_i dt).  During a pulse
the Hamiltonian is diag(z_i) + f(t) * Z with a scalar forcing f(t):

* magnetic gradient: f(t) = -s * beta(t)    (potential -s beta(t) z)
* surface shake:     f(t) = h''(t) / 2      (comoving frame, see README)

The pulse stepper is a Strang splitting between the diagonal part and the
Z part (Z's eigenpairs live on the basis), composed into Yoshida's
fourth-order triple jump, and exactly unitary at every step.  One kernel,
`strang_steps`, runs it for pulse windows, propagators and delay scans, on
one vector or a block of columns with per-column forcing; its operators
depend on the step size alone and are formed in one place, `_operators`.
One walk through the merged pulse windows gives the state at each
requested time; `evolve_pulsed` and `mean_height_trace` both take it.
Inside a window the walk steps from sample to sample, and the runs of one
window reuse the operators of each step size they share.  Between windows
the free phases c e^{-i z tau} of all samples come from one kernel,
`_free_phases`, which the delay scans' forward sum takes too: an `exp`
every 32nd sample, and between those, products with one factor e^{-i z g}
per distinct gap g between samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .basis import EigenBasis
from .pulses import (KickPulse, _check_sample_times, _check_target_time,
                     check_step_count, merged_windows, whole_steps)

__all__ = ["StateVector", "ground_state", "evolve_pulsed",
           "impulsive_kick_matrix", "pulse_propagator", "step_grid",
           "strang_steps", "mean_height_trace", "forcing"]

DEFAULT_STEPS_PER_SIGMA = 40

# Yoshida's triple jump (Phys. Lett. A 150, 262, 1990): the Strang steps of
# sizes w1 h, w0 h, w1 h compose into one step of size h, fourth order in h
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = (_W1, _W0, _W1)

# rows of free phases chained by products from one exp anchor
_ANCHOR_ROWS = 32

# step sizes whose operators a pulse window keeps; one G pair is 0.72 MB
# at M = 150
_OPERATOR_SETS = 8


@dataclass(frozen=True)
class StateVector:
    """Complex coefficients in the eigenbasis, tagged with their time."""

    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))
        self.coeffs.setflags(write=False)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def ground_state(basis: EigenBasis, time: float = 0.0) -> StateVector:
    c = np.zeros(basis.m, dtype=np.complex128)
    c[0] = 1.0
    return StateVector(c, time)


def forcing(pulses, spin: int, t):
    """Scalar coefficient f(t) multiplying the position matrix."""
    t = np.asarray(t, dtype=np.float64)
    f = np.zeros_like(t)
    for p in pulses:
        if p.kind == "magnetic":
            f = f - spin * p.envelope(t)
        else:
            f = f + 0.5 * p.envelope_second_derivative(t)
    return f


def impulsive_kick_matrix(basis: EigenBasis, alpha: float, spin: int = 1,
                          kind: str = "magnetic") -> np.ndarray:
    """P = exp[-i alpha V(z)] in the eigenbasis.

    V(z) = -s z for magnetic-gradient kicks (P = exp(+i alpha s Z)) and
    V(z) = +z for a generic linear jolt (P = exp(-i alpha Z)).  Unitary by
    construction via the eigendecomposition of Z.
    """
    factor = 1j * alpha * spin if kind == "magnetic" else -1j * alpha
    v = basis.z_eigvecs
    return (v * np.exp(factor * basis.z_eigvals)) @ v.T


def step_grid(lo: float, hi: float, width: float,
              steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA):
    """Sub-step midpoints and step size across [lo, hi].

    The step h is the largest one that is at most width / steps_per_sigma
    and divides hi - lo into whole steps.  Each step is three sub-steps of
    sizes w1 h, w0 h, w1 h.  Returns (t_mid, h), t_mid holding the 3n
    sub-step midpoints; they are symmetric about the middle of [lo, hi].
    """
    check_step_count(steps_per_sigma)
    n = whole_steps(hi - lo, width / steps_per_sigma)
    h = (hi - lo) / n
    offsets = np.array([0.5 * _W1, 0.5, 1.0 - 0.5 * _W1])
    return lo + (np.arange(n)[:, None] + offsets).ravel() * h, h


def _operators(basis: EigenBasis, h: float):
    """The operators of composed steps of size h: (half, G_sub, G_step, lam).

    half = exp(-i z w1 h/2) and lam = -i h lambda; G = V^T exp(-i z h'') V
    for h'' = (w1 + w0) h / 2 inside a step (G_sub) and h'' = w1 h between
    steps (G_step).  The two G products are the only M^3 work of a run.
    """
    v = basis.z_eigvecs  # Z is real symmetric, eigenvectors are real
    half = np.exp(-0.5j * _W1 * h * basis.zeros)
    g_sub, g_step = (v.T @ (np.exp(-1j * hh * basis.zeros)[:, None] * v)
                     for hh in (0.5 * (_W1 + _W0) * h, _W1 * h))
    return half, g_sub, g_step, -1j * h * basis.z_eigvals


def _sub_steps(basis: EigenBasis, c: np.ndarray, f_mid: np.ndarray,
               ops, nodes=None) -> np.ndarray:
    """The sub-step loop of `strang_steps`, with the operators given.

    With ``nodes``, distinct ascending step counts in [0, n], it returns
    the states after that many composed steps, stacked on a new first
    axis, instead of the final state.
    """
    if len(f_mid) % 3:
        raise ValueError("the forcing needs three samples per step")
    v, vt = basis.v_complex, basis.vt_complex
    half, g_sub, g_step, lam = ops
    if c.ndim == 2:
        half, lam = half[:, None], lam[:, None]
    w = np.resize(_WEIGHTS, len(f_mid))
    f_w = f_mid * (w[:, None] if f_mid.ndim == 2 else w)
    keep = set() if nodes is None else set(map(int, nodes))
    kept = [c] if 0 in keep else []
    y = np.exp(lam * f_w[0]) * (vt @ (half * c))
    for j in range(1, len(f_w)):
        if j % 3 == 0 and j // 3 in keep:  # y is the state after j/3 steps
            kept.append(half * (v @ y))
        y = np.exp(lam * f_w[j]) * ((g_sub if j % 3 else g_step) @ y)
    c = half * (v @ y)
    if nodes is None:
        return c
    if len(f_w) // 3 in keep:
        kept.append(c)
    return np.stack(kept)


def strang_steps(basis: EigenBasis, c: np.ndarray, f_mid: np.ndarray,
                 h: float) -> np.ndarray:
    """Composed steps of size h, one sub-step per forcing sample; unitary.

    A step is S(w1 h) S(w0 h) S(w1 h), with the Strang step
    S(h') = H V E V^T H, H = exp(-i z h'/2), Z = V diag(lambda) V^T and
    E = exp(-i f h' lambda), f the forcing at the sub-step's own midpoint.
    Adjacent half phases merge into G = V^T exp(-i z h'') V, so in the
    eigenbasis of Z each sub-step is one product with G and one elementwise
    phase.  The operators depend on h alone (`_operators`); a call builds
    them once, and a trace's walk reuses them for every run of the same h
    in a pulse window.  ``c`` is a vector (M,) or a block of columns
    (M, B); ``f_mid`` of shape (3n,) drives every column, shape (3n, B)
    drives each column with its own forcing.  The sub-step sizes are
    palindromic, so the forcing reversed gives the transposed product.
    """
    return _sub_steps(basis, c, f_mid, _operators(basis, h))


def _free_phases(out: np.ndarray, c, zeros: np.ndarray,
                 tau: np.ndarray) -> np.ndarray:
    """Write c e^{-i z tau} into ``out`` (T, M) for ascending ``tau`` (T,).

    Every ``_ANCHOR_ROWS``-th row is an anchor, taken by `exp`; each row
    between anchors is the row before it times e^{-i z g}, g the gap
    between their times, with one `exp` per distinct gap.  The products
    chain down each block of rows in place.  A chain of at most 31 rounded
    factors errs by a few ulp, below the error of `exp` at a large phase
    z tau, and the anchors keep the rounding of a gap factor reused down a
    long stretch from adding up.  Irregular grids only have more distinct
    gaps.  Returns ``out``.
    """
    gaps, at = np.unique(np.diff(tau), return_inverse=True)
    # unbuffered gather: row k >= 1 gets the factor of the gap before it
    np.take(np.exp(-1j * np.outer(gaps, zeros)), at, axis=0, out=out[1:],
            mode="clip")
    anchors = tau[::_ANCHOR_ROWS]
    out[::_ANCHOR_ROWS] = c * np.exp(-1j * np.outer(anchors, zeros))
    full = len(tau) - len(tau) % _ANCHOR_ROWS
    blocks = out[:full].reshape(-1, _ANCHOR_ROWS, len(zeros), copy=False)
    np.multiply.accumulate(blocks, axis=1, out=blocks)
    np.multiply.accumulate(out[full:], axis=0, out=out[full:])
    return out


def _walk(basis: EigenBasis, c: np.ndarray, t0: float, pulses, spin: int,
          times: np.ndarray, steps_per_sigma: int) -> np.ndarray:
    """Coefficients at each of ``times`` (ascending, >= t0), shape (T, M).

    Outside every pulse window (|t - t_k| > 6 sigma_k) the exact phases
    c e^{-i z (t - t0)} cover a whole free stretch at once (`_free_phases`).
    Inside each merged window the Strang steps integrate
    i dc/dt = (diag(z_i) + f(t) Z) c from sample to sample and on to the
    window's end, with step sigma / ``steps_per_sigma``, sigma the narrowest
    active pulse width; a sample within a relative 1e-12 of the end is
    taken at the end.  The runs of a window share a few step sizes, met
    one after the other; the window keeps the operators of the last
    ``_OPERATOR_SETS`` sizes, so each size is built once per window unless
    more than that many interleave, and memory stays bounded however the
    samples fall.
    """
    if isinstance(pulses, KickPulse):
        pulses = [pulses]
    out = np.empty((len(times), basis.m), dtype=np.complex128)
    k = 0
    for lo, hi, active in merged_windows(pulses, t0, float(times[-1])):
        n = int(np.searchsorted(times, lo, side="right"))
        _free_phases(out[k:n], c, basis.zeros, times[k:n] - t0)
        c, t0, k = c * np.exp(-1j * basis.zeros * (lo - t0)), lo, n
        width = min(p.width for p in active)
        ops = lru_cache(_OPERATOR_SETS)(partial(_operators, basis))
        while t0 < hi:  # hi <= times[-1], so times[k] exists
            t = float(times[k])
            # a sample within a relative 1e-12 of the window's end is the
            # end, as in `whole_steps`: no run of a few ulp after it
            end = hi if t > hi - 1e-12 * (hi - t0) else t
            t_mid, h = step_grid(t0, end, width, steps_per_sigma)
            c = _sub_steps(basis, c, forcing(active, spin, t_mid), ops(h))
            t0 = end
            if t <= end:
                out[k] = c
                k += 1
    _free_phases(out[k:], c, basis.zeros, times[k:] - t0)
    return out


def evolve_pulsed(state: StateVector, basis: EigenBasis, pulses, spin: int,
                  t_to: float, steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA
                  ) -> StateVector:
    """Evolve from ``state.time`` to ``t_to`` through any pulse windows:
    the walk of `mean_height_trace` at the single time ``t_to``."""
    _check_target_time(t_to, state.time)
    c = _walk(basis, state.coeffs, state.time, pulses, spin,
              np.array([t_to], dtype=np.float64), steps_per_sigma)
    return StateVector(c[0], t_to)


def pulse_propagator(basis: EigenBasis, pulse: KickPulse, spin: int = 1,
                     steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA
                     ) -> np.ndarray:
    """Full propagator matrix across one pulse window.

    The Hamiltonian depends on time only through t - t_k, so the matrix is
    independent of the pulse center.  It is the window's steps applied to
    the identity.
    """
    centered = KickPulse(pulse.amplitude, pulse.width, 0.0, pulse.kind)
    t_mid, h = step_grid(*centered.window, pulse.width, steps_per_sigma)
    return strang_steps(basis, np.eye(basis.m, dtype=np.complex128),
                        forcing([centered], spin, t_mid), h)


def _mean_z(basis: EigenBasis, c: np.ndarray) -> np.ndarray:
    """<z> = c^dag Z c = a^T Z a + b^T Z b of each row c = a + ib of ``c``,
    from two real products.  Each value must lie within Z's Rayleigh bounds
    [lambda_min, lambda_max] |c|^2, up to 1e-12 lambda_max |c|^2; one
    outside them, or not finite, raises ArithmeticError."""
    val = sum(np.einsum('ti,ti->t', p, p @ basis.z_matrix)
              for p in (c.real, c.imag))
    parts = np.ascontiguousarray(c).view(np.float64)  # a and b interleaved
    lo, hi = np.multiply.outer(basis.z_eigvals[[0, -1]],
                               np.einsum('tj,tj->t', parts, parts))
    inside = (val >= lo - 1e-12 * hi) & (val <= hi + 1e-12 * hi)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ArithmeticError(f"<z> = {val[k]:.6e} at sample {k} lies outside "
                              f"Z's Rayleigh bounds [{lo[k]:.6e}, {hi[k]:.6e}]")
    return val


def mean_height_trace(basis: EigenBasis, state: StateVector, pulses, spin: int,
                      times: np.ndarray,
                      steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA):
    """<z> sampled on ``times`` (ascending, >= state.time).

    Returns (heights, final_state).  Free stretches are sampled analytically;
    samples inside pulse windows are hit exactly by the stepper.  ``pulses``
    is one `KickPulse` or a sequence of them.
    """
    times = _check_sample_times(times, state.time)
    c = _walk(basis, state.coeffs, state.time, pulses, spin, times,
              steps_per_sigma)
    return _mean_z(basis, c), StateVector(c[-1], float(times[-1]))
