"""Eigenbasis of the bouncing particle: gravity + hard floor.

In dimensionless units (lengths in z_g = (hbar^2 / 2 m^2 g)^(1/3), energies
in E_g = m g z_g, times in t_g = hbar / E_g) the stationary equation reads

    -psi'' + z psi = E psi,    psi(0) = 0,  psi(inf) = 0.

The apparent factor 2 of the SI equation is absorbed by the z_g definition
(see README, "Units and conventions").  Eigenfunctions are shifted Airy
functions psi_i(z) = N_i Ai(z - z_i) with N_i = 1/|Ai'(-z_i)| and energies
E_i = z_i, where -z_i are the zeros of Ai.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .airy import airy_ai, airy_ai_prime, airy_zeros
from .pulses import InputError

__all__ = ["UnitSystem", "EigenBasis", "BasisProjectionError", "QuadratureError",
           "build_basis"]

HBAR = 1.054571817e-34       # J s
NEUTRON_MASS = 1.67492749804e-27  # kg
STANDARD_GRAVITY = 9.80665   # m/s^2
NEUTRON_MOMENT = 9.6623651e-27    # J/T  (|mu_n| = 60.3 neV/T)

# integration window extends this far past the last turning point; the
# eigenfunction tail beyond decays like exp(-2/3 * 15^(3/2)) ~ 1e-17
_TAIL = 15.0

# absolute tolerance on each overlap integral <psi_i | f>
_OVERLAP_TOL = 1e-12
_MAX_PANELS = 8192  # panels one overlap integration may bisect to
_CHUNK_ELEMENTS = 1 << 17  # panels x nodes x states per psi evaluation
# a Gaussian packet is integrated out to this many widths from its center
_PACKET_SIGMAS = 6.5

# a panel first spans this many of the top state's shortest wavelengths
_PANEL_WAVELENGTHS = 7


class QuadratureError(ArithmeticError):
    """Raised when panel refinement fails to reach the tolerance."""


class BasisProjectionError(ArithmeticError):
    """Initial state is not representable in the truncated basis."""


@dataclass(frozen=True)
class UnitSystem:
    """Natural gravitational scales of a bouncing particle."""

    mass: float                      # kg
    gravity: float                   # m/s^2
    magnetic_moment: float | None = None  # J/T
    z_g: float = field(init=False)   # m
    t_g: float = field(init=False)   # s
    E_g: float = field(init=False)   # J

    def __post_init__(self):
        if self.mass <= 0 or self.gravity <= 0:
            raise InputError("mass and gravity must be positive")
        if self.magnetic_moment is not None and self.magnetic_moment <= 0:
            raise InputError("magnetic moment must be positive")
        try:
            z_g = (HBAR ** 2 / (2.0 * self.mass ** 2 * self.gravity)) ** (1.0 / 3.0)
            E_g = self.mass * self.gravity * z_g
            t_g = HBAR / E_g
        except (ZeroDivisionError, OverflowError):  # m^2 g out of range
            z_g = E_g = t_g = math.nan
        if not all(0.0 < x < math.inf for x in (z_g, E_g, t_g)):
            raise InputError(f"mass {self.mass} kg and gravity {self.gravity} "
                             "m/s^2 give scales outside the float range")
        object.__setattr__(self, "z_g", z_g)
        object.__setattr__(self, "E_g", E_g)
        object.__setattr__(self, "t_g", t_g)

    @classmethod
    def neutron(cls) -> "UnitSystem":
        return cls(mass=NEUTRON_MASS, gravity=STANDARD_GRAVITY,
                   magnetic_moment=NEUTRON_MOMENT)

    def kick_amplitude(self, gradient: float) -> float:
        """Dimensionless kick amplitude a_k = |mu| * gradient / (m g)."""
        if self.magnetic_moment is None:
            raise InputError("unit system has no magnetic moment")
        return self.magnetic_moment * gradient / (self.mass * self.gravity)

    def to_si(self, value, quantity: str):
        """Dimensionless -> SI for quantity in {length, time, energy}."""
        return value * self._scale(quantity)

    def from_si(self, value, quantity: str):
        """SI -> dimensionless."""
        return value / self._scale(quantity)

    def _scale(self, quantity: str) -> float:
        try:
            return {"length": self.z_g, "time": self.t_g, "energy": self.E_g}[quantity]
        except KeyError:
            raise InputError(f"unknown quantity kind: {quantity!r}") from None


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Truncated eigenbasis: zeros z_i, norms N_i, position matrix Z.

    Also holds Z's eigenpairs Z = V diag(lambda) V^T, computed once here
    for the pulse stepper and the impulsive kicks, and C-contiguous complex
    copies of V and V^T, so that the stepper's products with complex states
    do not cast V on every call.  Immutable after
    construction (every array is read-only); safe to share across workers.
    Compared by identity (eq=False).
    """

    m: int
    zeros: np.ndarray   # (m,) Airy-zero magnitudes = dimensionless energies
    norms: np.ndarray   # (m,) N_i = 1/|Ai'(-z_i)|
    z_matrix: np.ndarray  # (m, m) <i|z|j>, symmetric
    z_eigvals: np.ndarray = field(init=False)  # (m,) lambda, ascending
    z_eigvecs: np.ndarray = field(init=False)  # (m, m) V, real orthogonal
    v_complex: np.ndarray = field(init=False)  # (m, m) V as complex
    vt_complex: np.ndarray = field(init=False)  # (m, m) V^T as complex

    def __post_init__(self):
        eigvals, eigvecs = np.linalg.eigh(self.z_matrix)
        v_c = np.ascontiguousarray(eigvecs, dtype=np.complex128)
        vt_c = np.ascontiguousarray(eigvecs.T, dtype=np.complex128)
        object.__setattr__(self, "z_eigvals", eigvals)
        object.__setattr__(self, "z_eigvecs", eigvecs)
        object.__setattr__(self, "v_complex", v_c)
        object.__setattr__(self, "vt_complex", vt_c)
        for a in (self.zeros, self.norms, self.z_matrix, eigvals, eigvecs,
                  v_c, vt_c):
            a.setflags(write=False)

    @property
    def z_max(self) -> float:
        """Upper edge of the quadrature window used for this basis."""
        return float(self.zeros[-1] + _TAIL)

    def project_gaussian(self, mu_z: float, sigma_z: float):
        """Expand the displaced Gaussian (2/pi sigma^2)^(1/4) exp[-(z-mu)^2/sigma^2].

        The overlaps are integrated over the packet's support within the
        basis window, |z - mu| <= 6.5 sigma, where it is above
        amp e^{-42.25}.  Returns (coefficients renormalized to unit norm,
        captured norm before renormalization).  Warns below 0.999 captured
        norm, raises below 0.95.  A sigma_z whose square underflows, so that
        the amplitude is not finite, raises InputError before any integral.
        """
        if mu_z <= 0 or sigma_z <= 0:
            raise InputError("mu_z and sigma_z must be positive")
        if sigma_z ** 2 < np.finfo(np.float64).tiny:  # amp would overflow
            raise InputError(f"sigma_z = {sigma_z!r} underflows when squared")
        amp = (2.0 / (math.pi * sigma_z ** 2)) ** 0.25

        def packet(z):
            return amp * np.exp(-((z - mu_z) / sigma_z) ** 2)

        half = _PACKET_SIGMAS * sigma_z
        coeffs = _overlap_integrals(self.zeros, self.norms, packet,
                                    max(0.0, mu_z - half),
                                    min(self.z_max, mu_z + half))
        captured = float(np.sum(coeffs ** 2))
        if captured < 0.95:
            raise BasisProjectionError(
                f"captured norm {captured:.4f} < 0.95: basis too small or "
                "state leaks below floor")
        if captured < 0.999:
            warnings.warn(
                f"captured norm {captured:.6f} < 0.999: basis too small or "
                "state leaks below floor", stacklevel=2)
        return coeffs / math.sqrt(captured), captured


@functools.cache
def _panel_rule():
    """Gauss-Legendre nodes on [-1, 1], 32 on a panel and 16 on each half,
    and weights: row 0 the panel's rule, row 1 the halves'.  Built on first
    use: importing numpy.polynomial adds about 1.7 MB to any process."""
    from numpy.polynomial.legendre import leggauss
    (x, w), (hx, hw) = leggauss(32), leggauss(16)
    return (np.r_[x, 0.5 * (hx - 1.0), 0.5 * (hx + 1.0)],
            np.block([[w, np.zeros(32)], [np.zeros(32), 0.5 * hw, 0.5 * hw]]))


def _overlap_integrals(zeros, norms, func, a, b) -> np.ndarray:
    """<psi_i | func> for all i at once, shared adaptive panel set.

    Panels start about seven of the top state's shortest local wavelengths,
    2 pi / sqrt(z_M) at the floor, wide.  A panel's value is its 32-point
    Gauss-Legendre sum; its error estimate is the gap to the 16-point sums
    over its two halves, the cruder rule, so it overstates the value's
    error.  Panels are bisected until every integral's summed estimate is
    below ``_OVERLAP_TOL``.
    """
    width = _PANEL_WAVELENGTHS * 2.0 * math.pi / math.sqrt(zeros[-1])
    edges = np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
    lo, hi = edges[:-1], edges[1:]
    nodes, weights = _panel_rule()
    rows = max(1, _CHUNK_ELEMENTS // (len(nodes) * len(zeros)))

    def panel_integrals(lo, hi):
        v = np.empty((len(lo), 2, len(zeros)))
        for c in range(0, len(lo), rows):  # bounds the psi working set
            p = slice(c, c + rows)
            half = 0.5 * (hi[p] - lo[p])[:, None]
            x = 0.5 * (lo[p] + hi[p])[:, None] + half * nodes
            psi = airy_ai(x[:, :, None] - zeros) * norms
            v[p] = (weights * (func(x) * half)[:, None, :]) @ psi
        return v[:, 0], np.abs(v[:, 0] - v[:, 1])

    vals, errs = panel_integrals(lo, hi)
    while True:
        worst = float(errs.sum(axis=0).max())
        if worst <= _OVERLAP_TOL:
            return vals.sum(axis=0)
        if len(lo) >= _MAX_PANELS or not math.isfinite(worst):
            i = int(np.argmax(errs.sum(axis=0)))
            raise QuadratureError(
                f"overlap with state {i + 1} did not converge: "
                f"error {worst:.3e} > tol {_OVERLAP_TOL:.3e}")
        panel_err = errs.max(axis=1)
        split = panel_err >= max(_OVERLAP_TOL / (4.0 * len(lo)),
                                 0.25 * panel_err.max())
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.r_[lo[keep], lo[split], mid], np.r_[hi[keep], mid, hi[split]]
        new_vals, new_errs = panel_integrals(lo[keep.sum():], hi[keep.sum():])
        vals, errs = np.r_[vals[keep], new_vals], np.r_[errs[keep], new_errs]


def build_basis(m: int) -> EigenBasis:
    """Construct the truncated eigenbasis with M = ``m`` states.

    Z has the closed form of the exact eigenfunctions (DLMF 9.11):
    <i|z|i> = 2 z_i / 3 and <i|z|j> = 2 (-1)^(i+j+1) / (z_i - z_j)^2 for
    i != j, with N_i = 1/|Ai'(-z_i)|.  Exactly symmetric.
    """
    zeros = airy_zeros(m)
    norms = 1.0 / np.abs(airy_ai_prime(-zeros))
    n = np.arange(m)
    diff = zeros[:, None] - zeros[None, :]
    np.fill_diagonal(diff, 1.0)
    z_mat = np.where((n[:, None] + n[None, :]) % 2, 2.0, -2.0) / diff ** 2
    np.fill_diagonal(z_mat, 2.0 * zeros / 3.0)
    return EigenBasis(m=m, zeros=zeros, norms=norms, z_matrix=z_mat)
