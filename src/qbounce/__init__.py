"""Quantum bouncer toolkit: eigenbasis, echo dynamics, kick spectroscopy."""

from .airy import airy_ai, airy_ai_prime, airy_zeros
from .basis import BasisProjectionError, EigenBasis, UnitSystem, build_basis
from .classical import ClassicalEnsemble, ballistic_flight, sample_initial
from .pulses import InputError, KickPulse
from .quantum import StateVector, ground_state, mean_height_trace
from .spectroscopy import (DelayScan, SpectrumResult, find_peaks_and_match,
                           retrieve_amplitudes, scan_delay, spectrum)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "airy_ai", "airy_ai_prime", "airy_zeros",
    "BasisProjectionError", "EigenBasis", "UnitSystem", "build_basis",
    "ClassicalEnsemble", "ballistic_flight", "sample_initial",
    "InputError", "KickPulse",
    "StateVector", "ground_state", "mean_height_trace",
    "DelayScan", "SpectrumResult", "find_peaks_and_match",
    "retrieve_amplitudes", "scan_delay", "spectrum",
]
