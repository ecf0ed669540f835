"""Airy function Ai, its derivative, and the negative-axis zeros.

Evaluation strategy
-------------------
* |x| < 8: Maclaurin series of Ai = c1*f - c2*g, summed in extended
  precision (numpy longdouble) to absorb the cancellation between the f
  and g series.  At |x| = 8 the largest series term is ~1e6 times the
  result, so 80-bit accumulation keeps the absolute error below ~1e-13.
* |x| >= 8: asymptotic expansions (DLMF 9.7): the exponentially decaying
  form for x > 0 and the trigonometric form for x < 0.  At the crossover
  zeta = (2/3)*8^(3/2) ~ 15.1, the optimally truncated remainder is
  ~exp(-2*zeta) ~ 1e-13.

Both branches stay below 1e-12 absolute error on [-20, 20] (validated
against mpmath in the test suite).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["airy_ai", "airy_ai_prime", "airy_zeros"]

# Ai(0) = 3^(-2/3)/Gamma(2/3) and -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C1 = np.longdouble("0.35502805388781723926006318600418317639797917419917724058332651030081004245")
_C2 = np.longdouble("0.25881940379280679840518356018920396347909113835493458221000181385610277267")

_SERIES_CUTOFF = 8.0
_SERIES_MAX_TERMS = 120
_NEWTON_MAX_ITER = 20


def _series_ai(x):
    """Maclaurin series for Ai and Ai' on |x| < 8, in longdouble."""
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

    for k in range(1, _SERIES_MAX_TERMS + 1):
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
    return np.asarray(ai, dtype=np.float64), np.asarray(aip, dtype=np.float64)


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


def _asymptotic_pos(x):
    """Decaying expansion for x >= 8 (DLMF 9.7.5/9.7.6)."""
    x = np.asarray(x, dtype=np.float64)
    zeta = (2.0 / 3.0) * x ** 1.5
    # terms never grow: for x >= 8, |u_k/u_{k-1}|/zeta <= 0.76 up to k = 24
    s_ai = np.ones_like(x)
    s_aip = np.ones_like(x)
    term_a = np.ones_like(x)
    term_p = np.ones_like(x)
    for k in range(1, len(_UK)):
        term_a = -term_a * _UK[k] / _UK[k - 1] / zeta
        term_p = -term_p * _VK[k] / _VK[k - 1] / zeta
        s_ai += term_a
        s_aip += term_p
    with np.errstate(under="ignore"):
        pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * s_ai / x ** 0.25
    aip = -pref * s_aip * x ** 0.25
    return ai, aip


def _asymptotic_neg(x):
    """Oscillatory expansion for x <= -8 (DLMF 9.7.9/9.7.10)."""
    t = -np.asarray(x, dtype=np.float64)
    zeta = (2.0 / 3.0) * t ** 1.5
    w = zeta - 0.25 * math.pi

    even_a = np.ones_like(t)   # sum (-1)^k u_{2k} zeta^{-2k}
    odd_a = _UK[1] / zeta      # sum (-1)^k u_{2k+1} zeta^{-2k-1}
    even_p = np.ones_like(t)
    odd_p = _VK[1] / zeta
    for k in range(1, 12):  # 2k + 1 <= 23 < len(_UK) = 25
        fe = (-1.0) ** k / zeta ** (2 * k)
        fo = (-1.0) ** k / zeta ** (2 * k + 1)
        even_a += _UK[2 * k] * fe
        odd_a += _UK[2 * k + 1] * fo
        even_p += _VK[2 * k] * fe
        odd_p += _VK[2 * k + 1] * fo

    pref = 1.0 / (math.sqrt(math.pi) * t ** 0.25)
    ai = pref * (np.cos(w) * even_a + np.sin(w) * odd_a)
    aip = (t ** 0.25 / math.sqrt(math.pi)) * (np.sin(w) * even_p - np.cos(w) * odd_p)
    return ai, aip


def _airy_both(x):
    x = np.asarray(x, dtype=np.float64)
    ai = np.empty_like(x)
    aip = np.empty_like(x)

    small = np.abs(x) < _SERIES_CUTOFF
    pos = (~small) & (x > 0)
    neg = (~small) & (x < 0)

    if np.any(small):
        ai[small], aip[small] = _series_ai(x[small])
    if np.any(pos):
        ai[pos], aip[pos] = _asymptotic_pos(x[pos])
    if np.any(neg):
        ai[neg], aip[neg] = _asymptotic_neg(x[neg])
    return ai, aip


def airy_ai(x):
    """Airy function Ai(x) for scalar or array input."""
    scalar = np.isscalar(x)
    ai, _ = _airy_both(np.atleast_1d(x))
    return float(ai[0]) if scalar else ai


def airy_ai_prime(x):
    """Derivative Ai'(x) for scalar or array input."""
    scalar = np.isscalar(x)
    _, aip = _airy_both(np.atleast_1d(x))
    return float(aip[0]) if scalar else aip


def airy_zeros(m: int) -> np.ndarray:
    """First ``m`` magnitudes z_i of the zeros of Ai (Ai(-z_i) = 0), ascending.

    Asymptotic initial guess (DLMF 9.9.18) followed by Newton iterations on
    all zeros at once, until every step is below 1e-13 z_i.
    """
    if not 1 <= m <= 400:
        raise ValueError(f"zero count must be in [1, 400], got {m}")

    i = np.arange(1, m + 1)
    t = 3.0 * math.pi * (4 * i - 1) / 8.0
    z = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t ** 2) - 5.0 / (36.0 * t ** 4))
    for _ in range(_NEWTON_MAX_ITER):
        ai, aip = _airy_both(-z)
        step = ai / aip  # d/dz Ai(-z) = -Ai'(-z)
        z += step
        if np.all(np.abs(step) < 1e-13 * z):
            return z
    raise ArithmeticError(
        f"Airy zero Newton iteration did not converge in {_NEWTON_MAX_ITER} "
        f"steps: largest step {np.max(np.abs(step)):.3e}")
