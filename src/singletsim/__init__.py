"""Simulator and analysis toolkit for coherent singlet-singlet dynamics in coupled spin pairs."""

from .analysis import FitResult, fit_exponential, fit_lorentzian, fit_rabi, fit_ramsey
from .hamiltonian import SpinLockParams
from .presets import glutamate, phe_gly_gly
from .propagator import RelaxationEnvelope
from .sequences import (
    PrepSpec,
    Protocol,
    run_double_rabi,
    run_protocol,
    run_pumping,
    run_rabi,
    run_ramsey,
    run_resonance_scan,
)
from .spincore import SpinSystem, TripletAmplitudes
from .trace import Trace

__version__ = "0.1.0"
