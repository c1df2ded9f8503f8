"""Diabatic two-level model families and their adiabatic quantities.

Hamiltonian convention (hbar = 1):

    H(t) = [[ eps(t),  V(t) ],
            [ V(t),  -eps(t) ]]

with instantaneous eigenvalues -W, +W, W = sqrt(eps^2 + V^2).  The sign
of the nonadiabatic coupling gamma(t) is fixed once globally to the
+(V deps/dt - eps dV/dt) branch.

Both families have a constant coupling and differ only in eps(t), so a
family supplies just what is specific to it:

- ``V``, the constant coupling;
- ``level(t)``, the pair (eps, deps/dt), valid for complex t too;
- ``level_derivatives(t)``, the second and third derivatives of eps;
- ``floor``, a time past all level structure, where the search for the
  propagator's tail handover starts;
- ``reduced_parameters()``.

Everything derived from eps and V (gamma, W, the propagator's right-hand
side and its tail terms) is written once, against these members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Superparabolic",
    "Parabolic",
    "DiabaticModel",
    "diabatic",
    "adiabatic_levels",
    "nonadiabatic_coupling",
    "reduced_parameters",
    "model_from_params",
]


@dataclass(frozen=True)
class Superparabolic:
    """Glancing family eps(t) = t^N, V(t) = alpha; N even >= 2, alpha > 0."""

    N: int
    alpha: float

    def __post_init__(self) -> None:
        if int(self.N) != self.N or self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 2, got {self.N!r}")
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def V(self) -> float:
        return self.alpha

    @property
    def floor(self) -> float:
        return 2.0 * self.alpha ** (1.0 / self.N)

    def level(self, t):
        tn1 = t ** (self.N - 1)
        return tn1 * t, self.N * tn1

    def level_derivatives(self, t):
        n = self.N
        c2 = n * (n - 1)
        return c2 * t ** (n - 2), c2 * (n - 2) * t ** (n - 3) if n > 2 else 0.0

    def reduced_parameters(self) -> tuple[float, float]:
        return 1.0 / (4.0 * self.alpha**3), 0.0


@dataclass(frozen=True)
class Parabolic:
    """eps(t) = (A t^2 - B)/2, V(t) = V0; A > 0, V0 > 0, B of either sign.

    B > 0 crosses twice, B < 0 never crosses (tunneling), B = 0 glances.
    """

    A: float
    B: float
    V0: float

    def __post_init__(self) -> None:
        if not (self.A > 0.0):
            raise ValueError(f"A must be positive, got {self.A!r}")
        if not (self.V0 > 0.0):
            raise ValueError(f"V0 must be positive, got {self.V0!r}")
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "V0", float(self.V0))

    @property
    def V(self) -> float:
        return self.V0

    @property
    def floor(self) -> float:
        return 2.0 * math.sqrt(max(self.B, 0.0) / self.A + 1.0)

    def level(self, t):
        return 0.5 * (self.A * t * t - self.B), self.A * t

    def level_derivatives(self, t):
        return self.A, 0.0

    def reduced_parameters(self) -> tuple[float, float]:
        return self.A, self.B


DiabaticModel = Union[Superparabolic, Parabolic]


def diabatic(model: DiabaticModel, t: float) -> tuple[float, float]:
    """Diabatic level eps(t) and coupling V(t)."""
    return model.level(t)[0], model.V


def adiabatic_levels(model: DiabaticModel, t: float) -> tuple[float, float]:
    """Instantaneous eigenvalues (lower, upper) = (-W, +W)."""
    eps, v = diabatic(model, t)
    w = math.hypot(eps, v)
    return -w, w


def nonadiabatic_coupling(model: DiabaticModel, t: complex) -> complex:
    """gamma(t) = (V deps/dt - eps dV/dt) / (2 (eps^2 + V^2)).

    The coupling V is constant, so this is V deps/dt / (2 W^2); at a
    complex t it is the analytic continuation.
    """
    eps, deps = model.level(t)
    v = model.V
    w2 = eps * eps + v * v
    if w2 == 0.0:
        raise ValueError(f"adiabatic gap vanishes at t={t!r}")
    return v * deps / (2.0 * w2)


def reduced_parameters(model: DiabaticModel) -> tuple[float, float]:
    """Reduced (a^2, b^2) of the equivalent stationary crossing problem.

    Parabolic{A, B} maps identically to (A, B).  For the glancing family
    the N = 2 correspondence a^2 = 1/(4 alpha^3) is applied at every N,
    with b^2 = 0 encoding the glancing geometry.
    """
    return model.reduced_parameters()


def model_from_params(model: str, *, N=None, alpha=None, A=None, B=None, V0=None) -> DiabaticModel:
    """Build a model from loosely-typed CLI/config values."""
    kind = str(model).strip().lower()
    if kind == "superparabolic":
        if N is None or alpha is None:
            raise ValueError("superparabolic model requires N and alpha")
        return Superparabolic(int(N), float(alpha))
    if kind == "parabolic":
        if A is None or V0 is None:
            raise ValueError("parabolic model requires A and V0")
        return Parabolic(float(A), 0.0 if B is None else float(B), float(V0))
    raise ValueError(f"unknown model family {model!r}")
