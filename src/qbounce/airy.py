"""Airy function Ai, its derivative, and the negative-axis zeros.

Evaluation strategy
-------------------
* |x| < 8: a Taylor table on 129 nodes 1/8 apart.  Ai'' = x Ai (DLMF
  9.2.1) gives every Taylor coefficient about a node from that node's Ai
  and Ai'.  At import those values are walked out from Ai(0) = c1 and
  Ai'(0) = -c2, node to node, each step a 16-term Taylor sum in extended
  precision (numpy longdouble); the float64 table then takes 16
  coefficients per node from them.  Over the table Ai and Ai' lie within
  6e-15 and 1.7e-14 of mpmath, largest at x -> 8, where the walk runs
  against the growing solution Bi.  A point costs one float64 Horner sum
  for Ai and one for Ai' about its nearest node; `airy_ai` skips the Ai'
  sums here and in the asymptotic branches.
* |x| >= 8: asymptotic expansions (DLMF 9.7) by Horner: the decaying form
  for x > 0 in -1/zeta, the trigonometric form for x < 0 in -1/zeta^2.  At
  zeta = (2/3)*8^(3/2) ~ 15.1 the remainder is ~exp(-2*zeta) ~ 1e-13.

Both stay below 1e-12 absolute error on [-100, 100] (validated against
mpmath in the test suite).  Non-finite input raises InputError.
"""

from __future__ import annotations

import math

import numpy as np

from .pulses import InputError

__all__ = ["airy_ai", "airy_ai_prime", "airy_zeros"]

# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C1 = np.longdouble("0.35502805388781723926006318600418317639797917419917724058332651030081004245")
_C2 = np.longdouble("0.25881940379280679840518356018920396347909113835493458221000181385610277267")

_TAYLOR_CUTOFF = 8.0
_NODES = np.linspace(-8.0, 8.0, 129)  # Taylor nodes, 1/8 apart
_TAYLOR_TERMS = 16  # the walk's 1/8 steps in longdouble settle by 16
_NEWTON_MAX_ITER = 20


def _horner(coeffs, x):
    """sum_k c_k x^k, with ``coeffs`` given from the highest power down."""
    acc = np.zeros_like(x)
    for c in coeffs:
        acc *= x
        acc += c
    return acc


def _asymptotic_coeffs(n):
    """u_k and v_k of DLMF 9.7.2 up to order n."""
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0] = v[0] = 1.0
    for k in range(1, n + 1):
        u[k] = u[k - 1] * (3 * k - 0.5) * (3 * k - 1.5) * (3 * k - 2.5) / (54.0 * k * (k - 0.5))
        v[k] = u[k] * (6 * k + 1) / (1.0 - 6 * k)
    return u, v


_UK, _VK = _asymptotic_coeffs(24)


def _taylor_rows(x0, ai, aip):
    """Taylor coefficients of Ai and of Ai' about ``x0``, powers 0..15, from
    Ai(x0) and Ai'(x0): (n+2)(n+1) a_{n+2} = x0 a_n + a_{n-1} (Ai'' = x Ai)."""
    a = [ai, aip, x0 * ai / 2]
    for n in range(1, _TAYLOR_TERMS - 1):
        a.append((x0 * a[n] + a[n - 1]) / ((n + 2) * (n + 1)))
    return a[:-1], [k * c for k, c in enumerate(a) if k]


def _node_values():
    """Ai and Ai' at the nodes, walked out from Ai(0) = c1, Ai'(0) = -c2 in
    longdouble, both sides at once.  A step to the next node out sums the
    node's Taylor rows at h = +-1/8.  The step is linear in (Ai, Ai'), so
    the rows are formed up front for unit values at every node, and each
    step adds D (Ai, Ai'), D the step matrix less the identity: only that
    last sum rounds at the size of Ai."""
    steps = len(_NODES) // 2
    # h has the full (unit value, side, step) shape of _horner's accumulator
    h = np.broadcast_to(np.array([[0.125], [-0.125]], dtype=np.longdouble),
                        (2, 2, steps))
    unit = np.eye(2, dtype=np.longdouble)[:, :, None, None]
    d = np.array([h * _horner(rows[:0:-1], h)
                  for rows in _taylor_rows(h * np.arange(steps), *unit)])
    v = np.array([[_C1, _C1], [-_C2, -_C2]])  # (Ai or Ai', side)
    walk = [v]
    for j in range(steps):
        v = v + (d[..., j] * v).sum(axis=1)
        walk.append(v)
    w = np.array(walk, dtype=np.float64)
    # nodes -8..8: the x < 0 side's walk reversed, then the x > 0 side's
    return np.concatenate([w[:0:-1, :, 1], w[:, :, 0]]).T


def _taylor_table():
    """Taylor coefficients of Ai and Ai' about each node, one row per power,
    in float64 from the walked node values."""
    return tuple(np.array(rows) for rows in _taylor_rows(_NODES, *_node_values()))


_TAYLOR = _taylor_table()


def _taylor_ai(x, derivative=True):
    """Ai and Ai' (Ai alone without ``derivative``) on |x| < 8 by Horner
    about the nearest Taylor node."""
    j = np.rint(8.0 * (x + 8.0)).astype(np.intp)
    h = x - _NODES[j]
    return tuple(_horner((row[j] for row in rows[::-1]), h)
                 for rows in _TAYLOR[:1 + derivative])


def _asymptotic_pos(x, derivative=True):
    """Decaying expansion for x >= 8 (DLMF 9.7.5/9.7.6), u_0..u_24 in -1/zeta."""
    zeta = (2.0 / 3.0) * x ** 1.5
    w = -1.0 / zeta
    with np.errstate(under="ignore"):
        pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * _horner(_UK[::-1], w) / x ** 0.25
    if not derivative:
        return (ai,)
    aip = -pref * _horner(_VK[::-1], w) * x ** 0.25
    return ai, aip


def _asymptotic_neg(x, derivative=True):
    """Oscillatory expansion for x <= -8 (DLMF 9.7.9/9.7.10), u_0..u_23,
    its even and odd parts summed in y = -1/zeta^2."""
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    y = -1.0 / zeta ** 2
    even_a, odd_a = _horner(_UK[22::-2], y), _horner(_UK[23::-2], y) / zeta
    w = zeta - 0.25 * math.pi
    cos_w, sin_w = np.cos(w), np.sin(w)
    ai = (cos_w * even_a + sin_w * odd_a) / (math.sqrt(math.pi) * t ** 0.25)
    if not derivative:
        return (ai,)
    even_p, odd_p = _horner(_VK[22::-2], y), _horner(_VK[23::-2], y) / zeta
    aip = (t ** 0.25 / math.sqrt(math.pi)) * (sin_w * even_p - cos_w * odd_p)
    return ai, aip


def _airy(x, derivative=True):
    """(Ai, Ai') of ``x``, or (Ai,) without ``derivative``; each branch then
    skips the Ai' sums."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InputError("Airy function of a non-finite argument")
    out = np.empty((1 + derivative,) + x.shape)
    for branch, sel in ((_taylor_ai, np.abs(x) < _TAYLOR_CUTOFF),
                        (_asymptotic_pos, x >= _TAYLOR_CUTOFF),
                        (_asymptotic_neg, x <= -_TAYLOR_CUTOFF)):
        if np.any(sel):
            for row, val in zip(out, branch(x[sel], derivative)):
                row[sel] = val
    return out


def airy_ai(x):
    """Airy function Ai(x) for scalar or array input; 0-d input gives a float."""
    ai, = _airy(np.atleast_1d(x), derivative=False)
    return float(ai[0]) if np.ndim(x) == 0 else ai


def airy_ai_prime(x):
    """Derivative Ai'(x) for scalar or array input; 0-d input gives a float."""
    _, aip = _airy(np.atleast_1d(x))
    return float(aip[0]) if np.ndim(x) == 0 else aip


def airy_zeros(m: int) -> np.ndarray:
    """First ``m`` magnitudes z_i of the zeros of Ai (Ai(-z_i) = 0), ascending.

    Asymptotic initial guess (DLMF 9.9.18) followed by Newton iterations on
    all zeros at once, until every step is below 1e-13 z_i.
    """
    if not 1 <= m <= 400:
        raise InputError(f"zero count must be in [1, 400], got {m}")

    i = np.arange(1, m + 1)
    t = 3.0 * math.pi * (4 * i - 1) / 8.0
    z = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t ** 2) - 5.0 / (36.0 * t ** 4))
    for _ in range(_NEWTON_MAX_ITER):
        ai, aip = _airy(-z)
        step = ai / aip  # d/dz Ai(-z) = -Ai'(-z)
        z += step
        if np.all(np.abs(step) < 1e-13 * z):
            return z
    raise ArithmeticError(
        f"Airy zero Newton iteration did not converge in {_NEWTON_MAX_ITER} "
        f"steps: largest step {np.max(np.abs(step)):.3e}")
