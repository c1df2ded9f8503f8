"""Failure modes shared across the package.

Plain invalid arguments (negative coupling, odd N, ...) raise ValueError;
the classes here mark structural failures that callers may want to catch
and handle individually, e.g. a sweep recording a branch failure as a
sentinel row instead of aborting.
"""

from __future__ import annotations

__all__ = [
    "LevelCrossError",
    "BranchFailure",
    "DegenerateGeometry",
    "BracketingError",
    "NonConvergence",
    "ToleranceFailure",
    "MissingColumn",
]


class LevelCrossError(Exception):
    """Base class for structured failures raised by this package."""


class BranchFailure(LevelCrossError):
    """The tunneling-branch closed form left its analytic domain: the
    Im U1 radicand turned negative."""


class DegenerateGeometry(LevelCrossError):
    """Adiabatic-curve fit degenerated (coincident extrema, d^2 -> 1);
    the fitted reduced parameters are 0/0 expressions."""


class BracketingError(LevelCrossError):
    """An extremum required by the curve fit was not found inside the
    supplied interval."""


class NonConvergence(LevelCrossError):
    """The tail handover point, where the estimated first omitted tail
    term falls to tail_tol, was not found, or the ODE solve reached its
    step cap before the end of the window."""


class ToleranceFailure(LevelCrossError):
    """The ODE step controller could not meet the requested tolerances."""


class MissingColumn(LevelCrossError):
    """A comparison was requested against a column absent from the rows."""
