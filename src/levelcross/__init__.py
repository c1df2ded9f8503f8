"""Transition probabilities for two-level glancing and parabolic models.

Three routes to the same number: exact numerical propagation
(propagator), the coherent multi-zero-point adiabatic formula (ddp),
and the Zhu-Nakamura closed forms (znt).  The harness sweeps them over
parameter grids and compares.  propagate and propagate_trace load the
propagator, and with it numpy, on first use.
"""

from .ddp import (
    ZeroPoint,
    ddp_probability,
    glancing_eta,
    nu_coefficient,
    phase_integral,
    zero_points,
)
from .errors import (
    BracketingError,
    BranchFailure,
    DegenerateGeometry,
    LevelCrossError,
    MissingColumn,
    NonConvergence,
    ToleranceFailure,
)
from .harness import (
    METHODS,
    ComparisonReport,
    SweepConfig,
    SweepRow,
    compare_methods,
    find_oscillation_nodes,
    find_oscillation_peaks,
    run_sweep,
)
from .models import (
    DiabaticModel,
    Parabolic,
    PropagationResult,
    PropagatorSettings,
    Superparabolic,
    model_from_params,
)
from .znt import (
    FitGeometry,
    arg_gamma_imag,
    delta_psi,
    double_crossing_probability,
    fit_parameters,
    glancing_double_crossing,
    glancing_reduced_parameters,
    glancing_tunneling,
    single_passage_probability,
    stokes_phase,
    tunneling_B,
    tunneling_probability,
    znt_phase_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ZeroPoint", "ddp_probability", "glancing_eta", "nu_coefficient", "phase_integral", "zero_points",
    "BracketingError", "BranchFailure", "DegenerateGeometry", "LevelCrossError", "MissingColumn", "NonConvergence",
    "ToleranceFailure",
    "METHODS", "ComparisonReport", "SweepConfig", "SweepRow", "compare_methods", "find_oscillation_nodes",
    "find_oscillation_peaks", "run_sweep",
    "DiabaticModel", "Parabolic", "PropagationResult", "PropagatorSettings", "Superparabolic", "model_from_params",
    "FitGeometry", "arg_gamma_imag", "delta_psi", "double_crossing_probability", "fit_parameters",
    "glancing_double_crossing", "glancing_reduced_parameters", "glancing_tunneling", "single_passage_probability",
    "stokes_phase", "tunneling_B", "tunneling_probability", "znt_phase_estimate",
    "propagate", "propagate_trace",
]


def __getattr__(name: str):
    if name in ("propagate", "propagate_trace"):
        from . import propagator

        return getattr(propagator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # propagate and propagate_trace are listed before the propagator loads
    return sorted({*globals(), *__all__})
