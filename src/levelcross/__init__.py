"""Transition probabilities for two-level glancing and parabolic models.

Three routes to the same number: exact numerical propagation
(propagator), the coherent multi-zero-point adiabatic formula (ddp),
and the Zhu-Nakamura closed forms (znt).  The harness sweeps them over
parameter grids and compares.
"""

from .ddp import (
    ZeroPoint,
    ddp_parabolic_closed_form,
    ddp_probability,
    ddp_single_zero,
    glancing_eta,
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
    Superparabolic,
    adiabatic_levels,
    model_from_params,
    nonadiabatic_coupling,
)
from .propagator import (
    PropagationResult,
    PropagatorSettings,
    propagate,
    propagate_trace,
)
from .specialfn import arg_gamma_imag, beta, log_gamma, nu_coefficient
from .znt import (
    FitGeometry,
    delta_psi,
    double_crossing_probability,
    fit_parameters,
    glancing_double_crossing,
    glancing_tunneling,
    single_passage_parabolic,
    single_passage_probability,
    stokes_phase,
    tunneling_B,
    tunneling_probability,
    znt_phase_estimate,
)

__version__ = "0.1.0"
