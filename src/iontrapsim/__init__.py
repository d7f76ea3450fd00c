"""Trapped-ion quantum-dynamics-simulator toolkit.

Builds the elementary evolution operator of a simulated one-dimensional
time-dependent Schroedinger equation, synthesizes the radio-frequency
control field that drives it on the motional eigenstates of an anharmonic
ion trap, and verifies the concatenated-pulse simulation with and without
Lindblad dissipation.
"""

from .analysis import (
    Spectrum,
    bandpass_filter,
    fidelity_trace,
    mean_position_ion,
    mean_position_sim,
    periodicity_residual,
    spectrum,
)
from .encoder import encode
from .errors import ConvergenceError, NumericalError, ValidationError
from .gridsim import (
    GateMatrix,
    Grid,
    SimSystem,
    analytic_coherent_evolution,
    classic_propagate,
    elementary_gate,
    gaussian_packet,
    make_grid,
)
from .oct import (
    OctConfig,
    OctTrace,
    TargetSet,
    fidelity,
    make_guess_field,
    optimize_gate,
    optimize_gate_dissipative,
    optimize_state_prep,
    phase_spread,
)
from .propagator import (
    ControlField,
    DissipationModel,
    build_dissipation,
    evolution_operator,
)
from .trap import EigenBasis, TrapParams, solve_trap, transition_table

__all__ = [
    "ControlField",
    "ConvergenceError",
    "DissipationModel",
    "EigenBasis",
    "GateMatrix",
    "Grid",
    "NumericalError",
    "OctConfig",
    "OctTrace",
    "SimSystem",
    "Spectrum",
    "TargetSet",
    "TrapParams",
    "ValidationError",
    "analytic_coherent_evolution",
    "bandpass_filter",
    "build_dissipation",
    "classic_propagate",
    "elementary_gate",
    "encode",
    "evolution_operator",
    "fidelity",
    "fidelity_trace",
    "gaussian_packet",
    "make_grid",
    "make_guess_field",
    "mean_position_ion",
    "mean_position_sim",
    "optimize_gate",
    "optimize_gate_dissipative",
    "optimize_state_prep",
    "periodicity_residual",
    "phase_spread",
    "solve_trap",
    "spectrum",
    "transition_table",
]

__version__ = "0.1.0"
