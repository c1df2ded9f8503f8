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
         = e^{2i Lam(T)} sum_{m < 6} (-1)^(m+1) v_m + O(v6),
    v0 = gamma/(2iW),  v_{m+1} = v_m' / (2iW),

is summed by repeated integration by parts (a superadiabatic series,
Berry 1990), with Lam(T) the third component of the same solve.  The
terms are v_m = (-i)^(m+1) u_m with u_m real, u_0 = V eps'/(4 W^3) and
u_{m+1} = u_m'/(2W); one Taylor-mode recursion (Griewank & Walther 2008,
ch. 13) gets them all from the exact Taylor coefficients of eps at T by
series product, reciprocal, square root and shift, so
J(T) = e^{2i Lam(T)} sum_{m < 6} i^(m+1) u_m.  Its error, the omitted
sum_{m >= 6} i^(m+1) u_m, is hypot(u_6, u_7) to leading order: computed
from the next two terms, not estimated from ratios.  The window ends at
the first point of a x1.01 grid from the floor past the level structure
where the terms already decrease, |u_0| > ... > |u_6|, and that error is
at most settings.tail_tol; numpy evaluates the rule on a few hundred grid
points in one pass.  J both prepares the state at -T (gamma odd and Lam
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
    tail_tol bounds the part of the integrated-by-parts tail that the
    sum omits at the handover point t_core, hypot(u_6, u_7) (see
    _tail_error); it alone fixes the window [-t_core, t_core], which each
    propagation covers with one solve on [0, t_core].
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
    covers [0, t_core]); tail_error is the size of the tail terms the sum
    omits at t_core (see _tail_error); nfev and n_steps are the
    right-hand-side evaluations and the steps (accepted and rejected) of
    the solve, as DOP853 counts them.
    """

    probability: float
    final_norm_drift: float
    t_core: float
    tail_error: float
    nfev: int
    n_steps: int


# J sums the tail terms u_0 .. u_5.  Over every frozen benchmark point, six
# terms with the 1.2 alpha^(1/N) floor keep P within 3.4e-11 of the
# references; seven terms reached 5.6e-11 and eight 1.5e-10, as roundoff
# in the higher derivatives grows
_TAIL_TERMS = 6

# i^(m+1) for the terms summed into J
_TAIL_PHASES = tuple(1j ** (m + 1) for m in range(_TAIL_TERMS))

# the handover scan's grid points, and how many of them one numpy pass
# evaluates (the first pass covers a factor 1.01^256 = 12.8 past the start,
# where nearly every handover lies)
_SCAN_POINTS = 2048
_SCAN_CHUNK = 256


# A truncated Taylor series is an array whose first axis is the order k and
# whose other axes, if any, are the points it is expanded at.


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two series at the same points, to the shorter length."""
    n = min(len(a), len(b))
    c = np.zeros_like(b[:n])
    for j in range(n):
        c[j:] += a[j] * b[: n - j]
    return c


def _reciprocal(a: np.ndarray) -> np.ndarray:
    r = np.empty_like(a)
    r[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        r[k] = -(a[1 : k + 1] * r[k - 1 :: -1]).sum(axis=0) * r[0]
    return r


def _sqrt(a: np.ndarray) -> np.ndarray:
    w = np.empty_like(a)
    w[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        w[k] = (a[k] - (w[1:k] * w[k - 1 : 0 : -1]).sum(axis=0)) / (2.0 * w[0])
    return w


def _shift(a: np.ndarray) -> np.ndarray:
    """The series of the derivative, one order shorter."""
    k = np.arange(1, len(a), dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    return k * a[1:]


def _tail_series(model: DiabaticModel, t) -> np.ndarray:
    """The tail terms u_0, ..., u_{_TAIL_TERMS + 1} at t (a float or an
    array of them), stacked on the first axis.

    u_0 = V eps' / (4 W^3) and u_{m+1} = u_m' / (2W), with W = sqrt(eps^2 + V^2),
    carried as Taylor series in the offset from t.  Each derivative shortens
    a series by one order, so eps enters to order _TAIL_TERMS + 2.
    """
    n = _TAIL_TERMS + 2  # length of the series of u_0, and of eps'
    eps = model.level_series(t, n + 1)
    v = model.V
    s = _mul(eps[:n], eps[:n])
    s[0] += v * v
    inv_w = _reciprocal(_sqrt(s))
    u = 0.25 * v * _mul(_shift(eps), _mul(inv_w, _mul(inv_w, inv_w)))
    half_inv_w = 0.5 * inv_w
    terms = [u[0]]
    while len(u) > 1:
        u = _mul(_shift(u), half_inv_w)
        terms.append(u[0])
    return np.array(terms)


def _tail_error(terms):
    """|J - e^{2i Lam} sum_{m < 6} i^(m+1) u_m| = |sum_{m >= 6} i^(m+1) u_m|,
    to leading order hypot(u_6, u_7): the u_m are real and the phases of
    consecutive terms differ by i.  Unlike |u_6| alone, it stays honest
    where u_6 changes sign."""
    return np.hypot(terms[_TAIL_TERMS], terms[_TAIL_TERMS + 1])


def _tail_point(model: DiabaticModel, tol: float, max_angle: float = math.pi) -> tuple[float, np.ndarray]:
    """The handover point t_core and the tail terms there (see _tail_series).

    t_core is the first point of the grid max(floor, 1) x 1.01^k where the
    terms decrease up to the first omitted one, |u_0| > ... > |u_6|,
    _tail_error is at most tol, and the mixing angle atan2(V, eps(t)) is at
    most max_angle (by default any angle passes).  Before the terms
    decrease the series is not yet asymptotic, and small late terms prove
    nothing.

    The 1% step keeps the window within 1% of the first passing point, which
    matters at large N, where the phase 2W ~ 2 t^N oscillates fastest at the
    window ends.  The rule is evaluated on _SCAN_CHUNK grid points per numpy
    pass: the series costs about as much at one point as at hundreds.
    """
    start = max(model.floor, 1.0)
    for first in range(0, _SCAN_POINTS, _SCAN_CHUNK):
        t = start * 1.01 ** np.arange(first, first + _SCAN_CHUNK)
        with np.errstate(all="ignore"):  # an overflow ends the scan below
            u = _tail_series(model, t)
            size = np.abs(u[: _TAIL_TERMS + 1])
            passes = (_tail_error(u) <= tol) & np.all(size[:-1] > size[1:], axis=0)
            passes &= np.arctan2(model.V, model.level(t)[0]) <= max_angle
        stop = passes | ~np.isfinite(u).all(axis=0)
        if stop.any():
            k = int(stop.argmax())
            if not passes[k]:
                raise OverflowError(f"tail series overflows at t = {float(t[k])!r} for {model!r}")
            return float(t[k]), u[:, k]
    raise NonConvergence(f"could not locate tail handover point for {model!r}")


def _tail_coefficient(terms: np.ndarray) -> complex:
    """sum_{m < 6} i^(m+1) u_m, so that J(t) = e^{2i Lam(t)} times it."""
    return sum(p * float(u) for p, u in zip(_TAIL_PHASES, terms))


def _make_rhs(model: DiabaticModel):
    """db/dt = M b for the state y = (Re a, Im a, Re b, Im b, Lam), in real arithmetic.

    With a = b+ and b = b-: da/dt = -g e^{2i Lam} b, db/dt = g e^{-2i Lam} a
    and dLam/dt = W, where g = gamma = V eps' / (2 W^2).
    """
    level, v = model.level, model.V
    v2, half_v = v * v, 0.5 * v
    if v2 == 0.0:  # where eps = 0 (t = 0 for a glancing model) g would be 0/0
        raise ZeroDivisionError(f"squared coupling V^2 underflows to 0 for {model!r}")
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def rhs(t, y):
        ar, ai, br, bi, lam = y.tolist()
        eps, deps = level(t)
        s = eps * eps + v2
        g = half_v * deps / s
        gc, gs = g * cos(2.0 * lam), g * sin(2.0 * lam)
        return (gs * bi - gc * br, -gc * bi - gs * br, gc * ar + gs * ai, gc * ai - gs * ar, sqrt(s))

    return rhs


def _advance(solver, t: float, t_core: float) -> tuple[int, int]:
    """Integrate the solver on to t, naming the failure if DOP853 stops short.

    Returns the RHS evaluations and steps of this call (DOP853 counts
    afresh at each call).
    """
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
    nfev, n_steps = solver._integrator.iwork[16:18].tolist()
    return nfev, n_steps


def _solve_window(
    model: DiabaticModel,
    settings: PropagatorSettings,
    handover: tuple[float, np.ndarray],
    times: Sequence[float] = (),
) -> tuple[PropagationResult, tuple[complex, complex], list[tuple[complex, complex, float]]]:
    """The propagation over [-t_core, t_core] from one solve on [0, t_core].

    `handover` is (t_core, tail terms there), as _tail_point returns it.
    Returns the result, the state (b+, b-) at t = 0, from which U(t, 0)
    carries it to any t, and (a, b, Lam) at each of the sorted `times` in
    [0, t_core], through which the solve integrates on its way to t_core.
    """
    t_core, terms = handover
    solver = ode(_make_rhs(model)).set_integrator(
        "dop853",
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=t_core / 8.0,
        nsteps=_MAX_STEPS,
    )
    solver.set_initial_value([1.0, 0.0, 0.0, 0.0, 0.0], 0.0)
    states = []
    nfev = n_steps = 0
    for t in (*times, t_core):
        if t > solver.t:
            calls, steps = _advance(solver, t, t_core)
            nfev, n_steps = nfev + calls, n_steps + steps
        ar, ai, br, bi, lam = solver.y.tolist()
        states.append((complex(ar, ai), complex(br, bi), lam))
    a, b, lam = states.pop()
    j = cmath.exp(2j * lam) * _tail_coefficient(terms)
    norm2 = 1.0 + abs(j) ** 2
    # the state (conj(J), 1)/sqrt(norm2) at -t_core, carried to 0 by U^T and to t_core by U
    bp0 = (a * j.conjugate() + b) / math.sqrt(norm2)
    bm0 = (a.conjugate() - b.conjugate() * j.conjugate()) / math.sqrt(norm2)
    bp, bm = a * bp0 - b.conjugate() * bm0, b * bp0 + a.conjugate() * bm0
    result = PropagationResult(
        probability=min(max(abs(bp - j * bm) ** 2 / norm2, 0.0), 1.0),
        final_norm_drift=abs(abs(bp) ** 2 + abs(bm) ** 2 - 1.0),
        t_core=t_core,
        tail_error=float(_tail_error(terms)),
        nfev=nfev,
        n_steps=n_steps,
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
    handover = _tail_point(model, settings.tail_tol, _TRACE_MIXING_ANGLE)
    t_core = handover[0]
    ts = np.linspace(-t_core, t_core, sample_count).tolist()
    times = sorted({abs(t) for t in ts})
    result, (bp0, bm0), states = _solve_window(model, settings, handover, times)
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
