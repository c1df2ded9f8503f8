"""Exact propagation of the two-level time-dependent Schrodinger equation.

The working frame is the adiabatic interaction picture: with
Lam(t) = int_0^t W, W = sqrt(eps^2 + V^2), the amplitudes on the upper
and lower instantaneous levels obey

    db+/dt = -gamma(t) e^{+2i Lam} b-,
    db-/dt = +gamma(t) e^{-2i Lam} b+,

so the integrand decays like the coupling (t^-(N+1)) instead of
oscillating with the full dynamical phase.  In matrix form db/dt = M b
with M = [[0, -gamma e^{2i Lam}], [gamma e^{-2i Lam}, 0]], which is
traceless and anti-Hermitian.  Every model is even in time (eps even, V
constant), so gamma and Lam are odd and M(-t) = M(t)^T; hence
U(-s, 0) = conj(U(s, 0)) and U(0, -T) = U(T, 0)^T.  One solve from
(1, 0) with Lam(0) = 0 over [0, T] gives U = U(T, 0) = [[a, -b*], [b, a*]]
in SU(2), and the whole window [-T, T] maps by U U^T.  Beyond it the
remaining coupling integral

    J(T) = int_T^inf gamma e^{2i Lam} dt
         = e^{2i Lam(T)} (-v0 + v1 - v2) + O(v3),
    v0 = gamma/(2iW),  v_{m+1} = v_m' / (2iW),

is summed by repeated integration by parts (a superadiabatic series,
Berry 1990), with Lam(T) the third component of the same solve.  Its
error is the first omitted term |v3|, estimated from consecutive terms
as max(|v2|^2/|v1|, |v1|^3/|v0|^2).  The window ends at the first point
of a x1.01 scan from the floor past the level structure where the terms
already decrease, |v0| > |v1| > |v2|, and that estimate is at most
settings.tail_tol.  J both prepares the state at -T (gamma odd and Lam
odd give int_{-inf}^{-T} gamma e^{2i Lam} = -conj(J(T))) and completes
the readout to t = +inf through the exactly unitary map

    b+(inf) = (b+ - J b-)/sqrt(1+|J|^2),
    b-(inf) = (b- + conj(J) b+)/sqrt(1+|J|^2).

Since eps -> +inf at both ends while V stays constant, the upper
adiabatic label coincides asymptotically with diabatic state 1, so the
transition probability read in the diabatic basis is |b+(inf)|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp  # noqa: F401  (quad: levelbench/spans.py wraps it by name)

from .errors import NonConvergence, ToleranceFailure
from .models import DiabaticModel

__all__ = [
    "PropagatorSettings",
    "PropagationResult",
    "propagate",
    "propagate_trace",
]


@dataclass(frozen=True)
class PropagatorSettings:
    """Integration controls.

    rel_tol and abs_tol are the DOP853 step-controller tolerances.
    tail_tol bounds the estimated first omitted term |v3| of the
    integrated-by-parts tail at the handover point t_core; it alone fixes
    the window [-t_core, t_core], which each propagation covers with one
    solve on [0, t_core].
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tail_tol: float = 3e-12

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.tail_tol < 1e-6):
            raise ValueError(f"tail_tol must lie in (0, 1e-6), got {self.tail_tol!r}")


@dataclass(frozen=True)
class PropagationResult:
    """Final probability plus diagnostics.

    t_core is the half-width of the window [-t_core, t_core] (the solve
    covers [0, t_core]); tail_error is the estimated first omitted tail
    term |v3| at t_core (see _tail_error).
    """

    probability: float
    final_norm_drift: float
    t_core: float
    tail_error: float


def _tail_terms(model: DiabaticModel, t: float) -> tuple[complex, float, complex]:
    """v0, v1, v2 at t > 0, from eps = e and its derivatives d1, d2, d3.

    With s = e^2 + V^2 = W^2:
        v0 = -i V d1 / (4 s^(3/2)),
        v1 = -(V/8) (d2/s^2 - 3 e d1^2/s^3),
        v2 = -(i/2) v1' / sqrt(s),
        v1' = -(V/8) (d3/s^2 - (10 e d1 d2 + 3 d1^3)/s^3 + 18 e^2 d1^3/s^4).
    """
    e, d1 = model.level(t)
    d2, d3 = model.level_derivatives(t)
    v = model.V
    s = e * e + v * v
    v0 = -0.25j * v * d1 * s**-1.5
    v1 = -(v / 8.0) * (d2 / s**2 - 3.0 * e * d1 * d1 / s**3)
    dv1 = -(v / 8.0) * (
        d3 / s**2 - (10.0 * e * d1 * d2 + 3.0 * d1**3) / s**3 + 18.0 * e * e * d1**3 / s**4
    )
    return v0, v1, -0.5j * dv1 / math.sqrt(s)


def _tail_coefficient(model: DiabaticModel, t: float) -> complex:
    """(-v0 + v1 - v2) at t, so that J(t) = e^{2i Lam(t)} (-v0 + v1 - v2) + O(v3)."""
    v0, v1, v2 = _tail_terms(model, t)
    return -v0 + v1 - v2


def _tail_error(model: DiabaticModel, t: float) -> float:
    """Estimated first omitted tail term |v3|.

    Infinite until the terms decrease, |v0| > |v1| > |v2|: before that
    the series is not yet asymptotic and a ratio estimates nothing.  Past
    it, the larger of the two ratio estimates |v2|^2/|v1| and
    |v1|^3/|v0|^2: each falls to zero where its own term changes sign,
    and both cannot do so at once, since a zero of v1 breaks |v1| > |v2|.
    """
    a0, a1, a2 = (abs(v) for v in _tail_terms(model, t))
    if not a0 > a1 > a2:
        return math.inf
    return max(a2 * a2 / a1, a1**3 / (a0 * a0))


def _tail_point(model: DiabaticModel, tol: float, max_angle: float = math.pi) -> float:
    """First point t of a x1.01 scan from the floor past all level
    structure with _tail_error(t) <= tol and the mixing angle
    atan2(V, eps(t)) at most max_angle (by default any angle passes).

    The 1% step keeps the window within 1% of the first passing point, which
    matters at large N, where the phase 2W ~ 2 t^N oscillates fastest at the
    window ends; each scan point costs a few closed-form terms, not ODE steps.
    """
    t = max(model.floor, 1.5)
    for _ in range(2000):
        if _tail_error(model, t) <= tol and math.atan2(model.V, model.level(t)[0]) <= max_angle:
            return t
        t *= 1.01
    raise NonConvergence(f"could not locate tail handover point for {model!r}")


def _make_rhs(model: DiabaticModel):
    level, v = model.level, model.V
    v2 = v * v

    def rhs(t, y):
        eps, deps = level(t)
        s = eps * eps + v2
        g = 0.5 * v * deps / s
        ph = cmath.exp(2j * y[2])
        return (-g * ph * y[1], g * y[0] / ph, math.sqrt(s))

    return rhs


def _solve_window(
    model: DiabaticModel, settings: PropagatorSettings, t_core: float, dense: bool = False
) -> tuple[PropagationResult, object, tuple[complex, complex]]:
    """The propagation over [-t_core, t_core] from one solve on [0, t_core].

    Returns the result, the solve (with dense output if asked) and the
    state (b+, b-) at t = 0, from which U(t, 0) carries it to any t.
    """
    sol = solve_ivp(
        _make_rhs(model),
        (0.0, t_core),
        np.array([1.0, 0.0, 0.0], dtype=complex),
        method="DOP853",
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=t_core / 8.0,
        dense_output=dense,
    )
    if not sol.success:
        raise ToleranceFailure(f"step controller failed: {sol.message}")
    a, b, lam = (complex(x) for x in sol.y[:, -1])
    j = cmath.exp(2j * lam.real) * _tail_coefficient(model, t_core)
    norm2 = 1.0 + abs(j) ** 2
    # the state (conj(J), 1)/sqrt(norm2) at -t_core, carried to 0 by U^T and to t_core by U
    bp0 = (a * j.conjugate() + b) / math.sqrt(norm2)
    bm0 = (a.conjugate() - b.conjugate() * j.conjugate()) / math.sqrt(norm2)
    bp, bm = a * bp0 - b.conjugate() * bm0, b * bp0 + a.conjugate() * bm0
    result = PropagationResult(
        probability=min(max(abs(bp - j * bm) ** 2 / norm2, 0.0), 1.0),
        final_norm_drift=abs(abs(bp) ** 2 + abs(bm) ** 2 - 1.0),
        t_core=t_core,
        tail_error=_tail_error(model, t_core),
    )
    return result, sol, (bp0, bm0)


def propagate(model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()) -> PropagationResult:
    """Transition probability P = |c1(+inf)|^2 starting from |c2(-inf)|^2 = 1."""
    return _solve_window(model, settings, _tail_point(model, settings.tail_tol))[0]


def _mixing_half_angle(model: DiabaticModel, t: float) -> tuple[float, float]:
    # cos(theta/2), sin(theta/2) of the adiabatic mixing angle theta = atan2(V, eps);
    # for eps < 0 the half angle comes from pi - theta = atan2(V, -eps), so the
    # small cosine does not inherit the rounding of theta near pi
    eps, v = model.level(t)[0], model.V
    if eps >= 0.0:
        half = 0.5 * math.atan2(v, eps)
        return math.cos(half), math.sin(half)
    half = 0.5 * math.atan2(v, -eps)
    return math.sin(half), math.cos(half)


# largest mixing angle atan2(V, eps) at the end of a trace window
_TRACE_MIXING_ANGLE = 1e-2


def propagate_trace(
    model: DiabaticModel,
    settings: PropagatorSettings = PropagatorSettings(),
    sample_count: int = 512,
) -> list[tuple[float, float, float, float]]:
    """Uniformly sampled (t, |c1|^2, |c2|^2, norm) along the integrated window.

    The samples are diabatic populations, which differ from the adiabatic
    ones by about theta/2 for the mixing angle theta = atan2(V, eps).  The
    window therefore ends at the first point of the handover scan that also
    has theta <= 1e-2, so that the last sample is within about 5e-3 of the
    asymptotic P.
    """
    return _propagate_traced(model, settings, sample_count)[1]


def _propagate_traced(
    model: DiabaticModel, settings: PropagatorSettings, sample_count: int
) -> tuple[PropagationResult, list[tuple[float, float, float, float]]]:
    """The result and the samples of propagate_trace, from its one solve."""
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count!r}")
    t_core = _tail_point(model, settings.tail_tol, _TRACE_MIXING_ANGLE)
    result, sol, (bp0, bm0) = _solve_window(model, settings, t_core, dense=True)
    ts = np.linspace(-t_core, t_core, sample_count)
    out = []
    for t, (a, b, lam) in zip(ts, sol.sol(np.abs(ts)).T):
        if t < 0.0:  # U(t, 0) = conj(U(-t, 0)) and Lam(t) = -Lam(-t)
            a, b, lam = a.conjugate(), b.conjugate(), -lam
        lam = lam.real
        c_half, s_half = _mixing_half_angle(model, float(t))
        up = (a * bp0 - b.conjugate() * bm0) * cmath.exp(-1j * lam)
        dn = (b * bp0 + a.conjugate() * bm0) * cmath.exp(1j * lam)
        c1 = up * c_half - dn * s_half
        c2 = up * s_half + dn * c_half
        p1 = abs(c1) ** 2
        p2 = abs(c2) ** 2
        out.append((float(t), p1, p2, p1 + p2))
    return result, out
