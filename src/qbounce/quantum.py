"""Wave-packet propagation in the truncated eigenbasis.

Free flight multiplies each coefficient by exp(-i z_i dt).  During a pulse
the Hamiltonian is diag(z_i) + f(t) Z, f the kick model's forcing
(`pulses.forcing`).  Every pulse window, of an echo trace or a delay scan,
is stepped by one kernel, `_sub_steps`: Strang steps composed into
Yoshida's fourth-order triple jump, exactly unitary, on runs (steps, h)
from `step_grid`; it builds each run's operators when it reaches the run
and keeps at most ``_OPERATOR_SETS`` of them.  `mean_height_trace` steps
a window's sample-to-sample runs and spin branches in one call, then fills
the free stretches one branch at a time by `_free_phases`, which the
delay scans' forward sum takes too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import pairwise

import numpy as np

from .basis import EigenBasis
from .pulses import (InputError, KickPulse, _check_sample_times, forcing,
                     merged_windows, run_steps, window_edges)

__all__ = ["StateVector", "ground_state", "step_grid", "mean_height_trace"]

DEFAULT_STEPS_PER_SIGMA = 20

# Yoshida's triple jump (Phys. Lett. A 150, 262, 1990): the Strang steps of
# sizes w1 h, w0 h, w1 h compose into one step of size h, fourth order in h
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_WEIGHTS = (_W1, _W0, _W1)

# rows of free phases chained by products from one exp anchor
_ANCHOR_ROWS = 32

_PHASE_ROWS = 48  # sub-step phase rows formed by one `exp` call

# step sizes whose operators a kernel call keeps; one G pair is 0.72 MB
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


def step_grid(edges, width: float, steps_per_sigma: int):
    """Sub-step midpoints and step sizes of the runs between consecutive
    ``edges``: (t_mid of all runs, h and n per run).

    Run r steps n_r times by h_r (`run_steps`).  Each step is three
    sub-steps of sizes w1 h, w0 h, w1 h, so t_mid holds 3 n_r midpoints per
    run, symmetric about the middle of the run.
    """
    n, h = run_steps(edges, width, steps_per_sigma)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    offsets = np.array([0.5 * _W1, 0.5, 1.0 - 0.5 * _W1])
    return (np.repeat(edges[:-1], 3 * n) + (k[:, None] + offsets).ravel()
            * np.repeat(h, 3 * n), h, n)


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


def _sub_steps(basis: EigenBasis, c: np.ndarray, f_mid: np.ndarray, runs,
               nodes, signs=(1,)) -> np.ndarray:
    """Composed steps from ``c`` through ``runs``, one sub-step per row of
    ``f_mid``; unitary.

    A step of size h is S(w1 h) S(w0 h) S(w1 h), with the Strang step
    S(h') = H V E V^T H, H = exp(-i z h'/2), Z = V diag(lambda) V^T and
    E = exp(-i f h' lambda), f the forcing at the sub-step's own midpoint.
    Adjacent half phases merge into G = V^T exp(-i z h'') V, so in the
    eigenbasis of Z each sub-step is one product with G into a reused
    buffer and one elementwise phase back.  The sub-step sizes are
    palindromic and each sub-step is complex symmetric, so the forcing
    reversed gives the transposed product.

    Each run (n, h) is n steps of size h on the next 3n rows of ``f_mid``,
    from the state the run before ended in.  Its operators depend on h
    alone (`_operators`); they are built when the run is reached, and the
    call keeps those of its last ``_OPERATOR_SETS`` step sizes.  ``c`` is
    a stack (B, M) of vectors, a product with G each, or a block (1, M, C),
    one product.  ``f_mid`` is (3N,) or (3N, K); phase column k S + s is
    that of ``signs[s]`` times column k, -f's being the conjugates of f's.
    Vector b takes phase column b, a block one per column (or one for
    all).  Returns the states after each of ``nodes`` (ascending step
    counts, every run's end among them), stacked on a new first axis.
    """
    if len(f_mid) % 3:
        raise ValueError("the forcing needs three samples per step")
    f_w = (f_mid.reshape(len(f_mid), -1)
           * np.resize(_WEIGHTS, len(f_mid))[:, None])
    nodes = [int(k) for k in nodes]
    out = np.empty((len(nodes),) + c.shape, dtype=np.complex128)
    y, tmp = np.empty_like(out[0]), np.empty_like(out[0])  # reused buffers
    pairs = list(zip(y, tmp))  # one product per vector, one for a block
    out[0], i, done = c, int(nodes[0] == 0), 0  # node 0 is c itself
    operators = lru_cache(_OPERATOR_SETS)(partial(_operators, basis))
    for n, h in runs:
        half, g_sub, g_step, lam = operators(float(h))
        half = half.reshape((-1,) + (1,) * (c.ndim - 2))
        np.multiply(half, c, out=y)
        gs = [basis.vt_complex] + [g_sub, g_sub, g_step] * int(n)
        taps = [3 * (k - done) for k in nodes[i:nodes.index(done + n, i) + 1]]
        for a, b in pairwise(sorted({*range(0, 3 * n, _PHASE_ROWS), *taps})):
            if a % _PHASE_ROWS == 0:  # the phases of the next rows, per sign
                e = np.exp(lam[:, None] *
                           f_w[a:min(a + _PHASE_ROWS, 3 * n), None])
                ph = np.stack([e if s > 0 else e.conj() for s in signs],
                              axis=-1).reshape(len(e), basis.m, -1)
                ph = ph.transpose(0, 2, 1) if c.ndim == 2 else ph
            for g, p in zip(gs[a:b], ph[a % _PHASE_ROWS:]):
                for yy, t in pairs:
                    np.dot(g, yy, out=t)
                np.multiply(p, tmp, out=y)
            if b in taps:  # y: after b/3 steps
                for yy, t in pairs:
                    np.dot(basis.v_complex, yy, out=t)
                np.multiply(half, tmp, out=out[i])
                i += 1
        c, done, f_w = out[i - 1], done + n, f_w[3 * n:]
    return out


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


def _walk(basis: EigenBasis, c: np.ndarray, t0: float, pulses, spins,
          times: np.ndarray, steps_per_sigma: int) -> list:
    """One walk through ``times`` (ascending, >= t0) for every spin branch.

    Returns its stops (k, n, t, states), one state per branch: samples
    k..n-1 are the free flight of ``states`` from time t, or with t None,
    ``states[j]`` is sample k + j (`_branch_coeffs` fills them in).  In a
    merged pulse window one `_sub_steps` call steps every branch on the
    window's runs (`window_edges`), from sample to sample and on to the
    window's end, step sigma / ``steps_per_sigma`` for the narrowest
    active width sigma.  Where every active pulse is magnetic, spin s
    feels s times the forcing of spin +1, so one `exp` gives both spins'
    phases.
    """
    if isinstance(pulses, KickPulse):
        pulses = [pulses]
    cs, stops, k = np.array([c] * len(spins)), [], 0
    for lo, hi, active in merged_windows(pulses, t0, float(times[-1])):
        edges, n, stop = window_edges(times, lo, hi)
        stops.append((k, n, t0, cs))
        cs, k = cs * np.exp(-1j * basis.zeros * (lo - t0)), stop
        t_mid, h, steps = step_grid(edges, min(p.width for p in active),
                                    steps_per_sigma)
        magnetic = all(p.kind == "magnetic" for p in active)
        columns, signs = ((1,), spins) if magnetic else (spins, (1,))
        f = np.stack([forcing(active, s, t_mid) for s in columns], axis=1)
        out = _sub_steps(basis, cs, f, list(zip(steps, h)), np.cumsum(steps),
                         signs)
        stops.append((n, k, None, out))
        cs, t0 = out[-1], hi
    stops.append((k, len(times), t0, cs))
    return stops


def _branch_coeffs(basis: EigenBasis, stops, times: np.ndarray,
                   b: int) -> np.ndarray:
    """Branch b's coefficients at each of ``times`` from the stops of
    `_walk`, shape (T, M): its free stretches by `_free_phases`."""
    out = np.empty((len(times), basis.m), dtype=np.complex128)
    for k, n, t, cs in stops:
        if t is None:
            out[k:n] = cs[:n - k, b]
        else:
            _free_phases(out[k:n], cs[b], basis.zeros, times[k:n] - t)
    return out


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


def mean_height_trace(basis: EigenBasis, state: StateVector, pulses, spins,
                      times: np.ndarray,
                      steps_per_sigma: int = DEFAULT_STEPS_PER_SIGMA):
    """<z> sampled on ``times`` (ascending, >= state.time) for each spin in
    ``spins``, a tuple of +1 and -1 as `spin_branches` gives it.

    Returns one (heights, final_state) pair per branch.  One walk steps all
    branches through the pulse windows (`_walk`); then each branch's free
    stretches are filled and its (T, M) coefficients freed before the next
    branch's.  ``pulses`` is one `KickPulse` or a sequence of them.
    """
    times = _check_sample_times(times, state.time)
    if not isinstance(spins, tuple) or not spins or set(spins) - {1, -1}:
        raise InputError(f"spins must be a tuple of +1 and -1, got {spins!r}")
    stops = _walk(basis, state.coeffs, state.time, pulses, spins, times,
                  steps_per_sigma)

    def branch(b):
        c = _branch_coeffs(basis, stops, times, b)
        return _mean_z(basis, c), StateVector(c[-1].copy(), float(times[-1]))

    return [branch(b) for b in range(len(spins))]
