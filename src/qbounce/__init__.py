"""Quantum bouncer toolkit: eigenbasis, echo dynamics, kick spectroscopy."""

import os

# one BLAS thread unless the user set a count, set before numpy loads: the
# work is many small products, which threads do not speed up
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .airy import airy_ai, airy_ai_prime, airy_zeros
from .basis import BasisProjectionError, EigenBasis, UnitSystem, build_basis
from .classical import ClassicalEnsemble, ballistic_flight, sample_initial
from .pulses import InputError, KickPulse
from .quantum import mean_height_trace
from .spectroscopy import (DelayScan, SpectrumResult, find_peaks_and_match,
                           retrieve_amplitudes, scan_delay, spectrum)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "airy_ai", "airy_ai_prime", "airy_zeros",
    "BasisProjectionError", "EigenBasis", "UnitSystem", "build_basis",
    "ClassicalEnsemble", "ballistic_flight", "sample_initial",
    "InputError", "KickPulse",
    "mean_height_trace",
    "DelayScan", "SpectrumResult", "find_peaks_and_match",
    "retrieve_amplitudes", "scan_delay", "spectrum",
]
