"""Diabatic two-level model families.

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
- ``level_series(t, L)``, the Taylor coefficients eps^(k)(t)/k! for
  k < L, exact (eps is a polynomial), for a float t or an array of them;
- ``degree``, the degree of eps, past which those coefficients are exact
  zeros (N, or 2 for the parabolic family);
- ``level_key``, what eps depends on (N, or (A, B)): two models of one
  family with equal keys have equal ``level`` and ``level_series``, so the
  propagator batches models by family and key, and evaluates a batch's
  level once per pass;
- ``floor``, a time past all level structure, where the search for the
  propagator's tail handover starts (1.2 alpha^(1/N), the margin shrinking
  as 1 + 10/N past N = 50, or 1.2 sqrt(max(B, 0)/A + 1)).

The propagator reads only these members: its coupling, its tail series
and its handover search are written once, for every family.  Its
``PropagatorSettings`` and ``PropagationResult`` live here too, so that
code can name them without loading it, and with it numpy.  The reduced
(a^2, b^2) that the Zhu-Nakamura forms take is not a shared member: the
parabolic family has its own, ``Parabolic.reduced_parameters()``, and the
glancing forms read ``znt.glancing_reduced_parameters(N, alpha)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Superparabolic",
    "Parabolic",
    "DiabaticModel",
    "PropagatorSettings",
    "PropagationResult",
    "check_glancing",
    "model_from_params",
]


def check_glancing(N, alpha, name: str = "alpha") -> tuple[int, float]:
    """The glancing family's parameter rule: N an even integer >= 2, alpha
    positive and finite; returns the pair's normal form (int(N), float(alpha)).
    ``name`` is the parameter that alpha stands for."""
    n_ok = alpha_ok = False
    try:  # a string, None or a complex does not compare, and is refused too
        n_ok = N >= 2 and N % 2 == 0
        alpha_ok = 0.0 < alpha < math.inf
    except TypeError:
        pass
    if not n_ok:
        raise ValueError(f"N must be an even integer >= 2, got {N!r}")
    if not alpha_ok:
        raise ValueError(f"{name} must be positive and finite, got {alpha!r}")
    return int(N), float(alpha)


@dataclass(frozen=True)
class Superparabolic:
    """Glancing family eps(t) = t^N, V(t) = alpha; see check_glancing for N and alpha."""

    N: int
    alpha: float

    def __post_init__(self) -> None:
        n, alpha = check_glancing(self.N, self.alpha)
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "alpha", alpha)

    @property
    def V(self) -> float:
        return self.alpha

    @property
    def degree(self) -> int:
        return self.N

    @property
    def level_key(self) -> int:
        return self.N

    @property
    def floor(self) -> float:
        # 1.2 alpha^(1/N) up to N = 50, then (1 + 10/N) alpha^(1/N): the
        # phase 2W ~ 2 t^N that the window must resolve grows like t^N, and
        # at large N the tail series already meets tail_tol closer in
        return self.alpha ** (1.0 / self.N) * min(1.2, 1.0 + 10.0 / self.N)

    def level(self, t):
        tn1 = t ** (self.N - 1)
        return tn1 * t, self.N * tn1

    def level_series(self, t, L: int) -> np.ndarray:
        import numpy as np

        n = self.N
        t = np.asarray(t, dtype=float)
        out = np.zeros((L,) + t.shape)
        for k in range(min(L, n + 1)):
            out[k] = math.comb(n, k) * t ** (n - k)
        return out


@dataclass(frozen=True)
class Parabolic:
    """eps(t) = (A t^2 - B)/2, V(t) = V0; A > 0, V0 > 0, B of either sign.

    B > 0 crosses twice, B < 0 never crosses (tunneling), B = 0 glances.
    """

    A: float
    B: float
    V0: float

    def __post_init__(self) -> None:
        a_ok = b_ok = v0_ok = False
        try:  # a string, None or a complex does not compare, and is refused too
            a_ok = 0.0 < self.A < math.inf
            b_ok = math.isfinite(self.B)
            v0_ok = 0.0 < self.V0 < math.inf
        except TypeError:
            pass
        if not a_ok:
            raise ValueError(f"A must be positive and finite, got {self.A!r}")
        if not b_ok:
            raise ValueError(f"B must be finite, got {self.B!r}")
        if not v0_ok:
            raise ValueError(f"V0 must be positive and finite, got {self.V0!r}")
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "V0", float(self.V0))

    @property
    def V(self) -> float:
        return self.V0

    degree = 2

    @property
    def level_key(self) -> tuple[float, float]:
        return self.A, self.B

    @property
    def floor(self) -> float:
        return 1.2 * math.sqrt(max(self.B, 0.0) / self.A + 1.0)

    def level(self, t):
        return 0.5 * (self.A * t * t - self.B), self.A * t

    def level_series(self, t, L: int) -> np.ndarray:
        import numpy as np

        t = np.asarray(t, dtype=float)
        out = np.zeros((max(L, 3),) + t.shape)
        out[0], out[1], out[2] = self.level(t) + (0.5 * self.A,)
        return out[:L]

    def reduced_parameters(self) -> tuple[float, float]:
        """The reduced (a^2, b^2) = (A/(8 V0^3), B/(2 V0)) of the equivalent
        stationary crossing problem.

        Both are invariant under the time rescaling (A, B, V0) -> (A c^3, B c,
        V0 c), and at A = 2, B = 0 the pair is the glancing forms' pair for N = 2.
        A value that leaves the float range raises OverflowError or
        ZeroDivisionError naming the quantity and the inputs.
        """
        quantity = "a^2 = A/(8 V0^3)"
        try:
            try:
                a_sq = self.A / (8.0 * self.V0**3)
                if not (0.0 < a_sq < math.inf):
                    raise OverflowError
            except (OverflowError, ZeroDivisionError):
                # V0^3 can leave the float range while a^2 does not
                a_sq = self.A / 8.0 / self.V0 / self.V0 / self.V0
                if not (0.0 < a_sq < math.inf):
                    raise
            quantity = "b^2 = B/(2 V0)"
            b_sq = self.B / (2.0 * self.V0)
            if not math.isfinite(b_sq):
                raise OverflowError
        except (OverflowError, ZeroDivisionError) as exc:
            msg = f"{quantity} leaves the float range at A={self.A!r}, B={self.B!r}, V0={self.V0!r}"
            raise type(exc)(msg) from exc
        return a_sq, b_sq


DiabaticModel = Union[Superparabolic, Parabolic]


def model_from_params(model: str, *, N=None, alpha=None, A=None, B=None, V0=None) -> DiabaticModel:
    """Build a model from loosely-typed CLI/config values."""
    kind = str(model).strip().lower()
    if kind == "superparabolic":
        if N is None or alpha is None:
            raise ValueError("superparabolic model requires N and alpha")
        # a string is parsed as a number; Superparabolic refuses a
        # non-integral N ("6.5", 2.5) rather than truncating it
        return Superparabolic(float(N) if isinstance(N, str) else N, float(alpha))
    if kind == "parabolic":
        if A is None or V0 is None:
            raise ValueError("parabolic model requires A and V0")
        return Parabolic(float(A), 0.0 if B is None else float(B), float(V0))
    raise ValueError(f"unknown model family {model!r}")


@dataclass(frozen=True)
class PropagatorSettings:
    """Integration control: one absolute tolerance on the amplitude.

    tail_tol bounds the part of the integrated-by-parts tail that the
    sum omits at the handover point t_core, hypot(u_6, u_7) (see
    propagator._tail_error), which alone fixes the window [-t_core, t_core]
    that each propagation covers with one solve on [0, t_core].  It also
    bounds the error each collocation step of that solve may add (see the
    propagator's module docstring).  It must lie in [1e-17, 1e-6): below
    1e-17 the step rule meets the rounding of the trailing coefficients,
    and the steps shrink until the node cap.
    """

    tail_tol: float = 3e-12

    def __post_init__(self) -> None:
        ok = False
        try:  # a string or None does not compare, and is refused too
            ok = 1e-17 <= self.tail_tol < 1e-6
        except TypeError:
            pass
        if not ok:
            raise ValueError(f"tail_tol must lie in [1e-17, 1e-6), got {self.tail_tol!r}")


@dataclass(frozen=True)
class PropagationResult:
    """Final probability plus diagnostics.

    probability is 4 (Im alpha beta)^2, read off the whole line's map
    V = C(J) U = [[alpha, -beta*], [beta, alpha*]] (see the propagator's
    module docstring); t_core is the half-width of the window
    [-t_core, t_core] (the solve covers [0, t_core]); tail_error is the size
    of the tail terms the sum omits at t_core (see propagator._tail_error);
    nfev is the number of coupling evaluations of the solve, rejected steps
    included, and n_steps the number of collocation steps it accepted.  single_passage is
    p = |beta|^2, the transition probability between the adiabatic levels
    over the half line [0, inf), and phase is psi = arg(alpha beta), so that
    probability = 4 p (1 - p) sin^2 psi, the form the Zhu-Nakamura
    double-crossing formula takes.
    """

    probability: float
    t_core: float
    tail_error: float
    nfev: int
    n_steps: int
    single_passage: float
    phase: float
