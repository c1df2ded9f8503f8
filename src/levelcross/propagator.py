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

The solve steps Hairer's compiled DOP853 (scipy.integrate.ode, Hairer,
Norsett & Wanner 1993) on the real state (Re a, Im a, Re b, Im b, Lam).
Its error norm is taken per real component, so a step is judged on Re
and Im of each amplitude separately.  At most _MAX_STEPS steps are taken
between consecutive stops of a solve (t_core, and for a trace each
sample |t| on the way); past that the solve raises NonConvergence.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode
from scipy.integrate import quad, solve_ivp  # noqa: F401  (unused: levelbench/spans.py wraps both by name)

from .errors import NonConvergence, ToleranceFailure
from .models import DiabaticModel

# DOP853 steps allowed between consecutive stops of one solve.  At rel_tol
# 1e-11 and tail_tol 1e-15 the glancing models N = 2, 6, 10 with alpha up
# to 4 and parabolic ones with |B| <= 10 take at most 2,580 steps; a model
# whose window would take far more (N=2 at alpha=1e6) fails within seconds
# instead of running on
_MAX_STEPS = 100_000

# smallest rel_tol a double-precision step can resolve (100 eps); below it
# DOP853 shrinks the step until it reaches the step cap
_MIN_REL_TOL = 100.0 * np.finfo(float).eps

__all__ = [
    "PropagatorSettings",
    "PropagationResult",
    "propagate",
    "propagate_trace",
]


@dataclass(frozen=True)
class PropagatorSettings:
    """Integration controls.

    rel_tol and abs_tol are the DOP853 step-controller tolerances;
    rel_tol must be at least 100 eps = 2.22e-14.
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
        if self.rel_tol < _MIN_REL_TOL:
            raise ValueError(
                f"rel_tol must be positive and at least 100 eps = {_MIN_REL_TOL!r}, "
                f"got {self.rel_tol!r}"
            )
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
    """db/dt = M b for the state y = (Re a, Im a, Re b, Im b, Lam), in real arithmetic.

    With a = b+ and b = b-: da/dt = -g e^{2i Lam} b, db/dt = g e^{-2i Lam} a
    and dLam/dt = W, where g = gamma = V eps' / (2 W^2).
    """
    level, v = model.level, model.V
    v2, half_v = v * v, 0.5 * v
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def rhs(t, y):
        ar, ai, br, bi, lam = y.tolist()
        eps, deps = level(t)
        s = eps * eps + v2
        g = half_v * deps / s
        gc, gs = g * cos(2.0 * lam), g * sin(2.0 * lam)
        return (gs * bi - gc * br, -gc * bi - gs * br, gc * ar + gs * ai, gc * ai - gs * ar, sqrt(s))

    return rhs


def _advance(solver, t: float, t_core: float) -> None:
    """Integrate the solver on to t, naming the failure if DOP853 stops short."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solver.integrate(t)
    code = solver.get_return_code()
    if code == -2:
        raise NonConvergence(
            f"ODE step cap of {_MAX_STEPS} steps reached at t = {solver.t!r}, "
            f"short of t_core = {t_core!r}"
        )
    if code < 0:
        reason = str(caught[-1].message) if caught else f"return code {code}"
        raise ToleranceFailure(f"step controller failed: {reason}")


def _solve_window(
    model: DiabaticModel, settings: PropagatorSettings, t_core: float, times: Sequence[float] = ()
) -> tuple[PropagationResult, tuple[complex, complex], list[tuple[complex, complex, float]]]:
    """The propagation over [-t_core, t_core] from one solve on [0, t_core].

    Returns the result, the state (b+, b-) at t = 0, from which U(t, 0)
    carries it to any t, and (a, b, Lam) at each of the sorted `times` in
    [0, t_core], through which the solve integrates on its way to t_core.
    """
    solver = ode(_make_rhs(model)).set_integrator(
        "dop853",
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=t_core / 8.0,
        nsteps=_MAX_STEPS,
    )
    solver.set_initial_value([1.0, 0.0, 0.0, 0.0, 0.0], 0.0)
    states = []
    for t in (*times, t_core):
        if t > solver.t:
            _advance(solver, t, t_core)
        ar, ai, br, bi, lam = solver.y.tolist()
        states.append((complex(ar, ai), complex(br, bi), lam))
    a, b, lam = states.pop()
    j = cmath.exp(2j * lam) * _tail_coefficient(model, t_core)
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
    return result, (bp0, bm0), states


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
    ts = np.linspace(-t_core, t_core, sample_count).tolist()
    times = sorted({abs(t) for t in ts})
    result, (bp0, bm0), states = _solve_window(model, settings, t_core, times)
    at = dict(zip(times, states))
    out = []
    for t in ts:
        a, b, lam = at[abs(t)]
        if t < 0.0:  # U(t, 0) = conj(U(-t, 0)) and Lam(t) = -Lam(-t)
            a, b, lam = a.conjugate(), b.conjugate(), -lam
        c_half, s_half = _mixing_half_angle(model, t)
        up = (a * bp0 - b.conjugate() * bm0) * cmath.exp(-1j * lam)
        dn = (b * bp0 + a.conjugate() * bm0) * cmath.exp(1j * lam)
        c1 = up * c_half - dn * s_half
        c2 = up * s_half + dn * c_half
        p1 = abs(c1) ** 2
        p2 = abs(c2) ** 2
        out.append((t, p1, p2, p1 + p2))
    return result, out
