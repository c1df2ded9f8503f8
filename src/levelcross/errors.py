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
    "NonConvergence",
    "ToleranceFailure",
    "MissingColumn",
]


class LevelCrossError(Exception):
    """Base class for structured failures raised by this package."""


class BranchFailure(LevelCrossError):
    """The tunneling-branch closed form left its analytic domain: the
    Im U1 radicand turned negative."""


class NonConvergence(LevelCrossError):
    """The tail handover point, where tail_error = hypot(u_6, u_7) falls
    to tail_tol, or a trace window's end, was not found; or resolving the
    window, or the weights that read a trace's samples off the collocation
    polynomials, would go past the solve's node cap."""


class ToleranceFailure(LevelCrossError):
    """The collocation solve's Picard iteration did not converge."""


class MissingColumn(LevelCrossError):
    """A comparison was requested against a column absent from the rows."""


# the failures that a sweep cell or a batch of propagations records as its outcome
_FAILURES = (LevelCrossError, ValueError, ArithmeticError)


def _attempt(fn, *args):
    """fn(*args), or the failure in _FAILURES that it raised."""
    try:
        return fn(*args)
    except _FAILURES as exc:
        return exc
