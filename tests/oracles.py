"""Reference integrators, limits and closed forms used only by the tests.

The integrators here step with scipy's solve_ivp DOP853, while the
library solves by vectorized Gauss-Legendre collocation: a test that
compares the two compares two integration methods as well as two
formulations.  The closed
forms at the end are special cases of library routes, written out
separately so that a test compares two derivations.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import airy

from levelcross.errors import LevelCrossError, ToleranceFailure
from levelcross.models import (
    DiabaticModel,
    Superparabolic,
    check_glancing,
    nonadiabatic_coupling,
)
from levelcross.propagator import PropagatorSettings, _mixing_half_angle, _tail_point

EULER_GAMMA = 0.5772156649015328606

# Phase coefficient of the parabolic glancing model, sigma = delta = c alpha^(3/2);
# equals sqrt(2) * nu_2 (checked to 1e-10 in the tests).
PARABOLIC_C = math.sqrt(math.pi) * math.gamma(0.25) / (3.0 * math.sqrt(2.0) * math.gamma(0.75))


class NonSimpleZero(LevelCrossError):
    """Residue extrapolation did not stabilize; the supplied point is not
    a simple zero of the squared adiabatic gap."""


def phase_half(model: DiabaticModel, t_core: float) -> float:
    """Lam(t_core) = int_0^{t_core} W dt, by quadrature."""
    val, _ = quad(
        lambda t: math.hypot(model.level(t)[0], model.V),
        0.0,
        t_core,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def interaction_rhs(model: DiabaticModel):
    """The propagator's interaction-picture equations on a complex state
    (b+, b-, Lam): db+/dt = -g e^{2i Lam} b-, db-/dt = g e^{-2i Lam} b+,
    dLam/dt = W, written independently of the library's real state layout."""
    v = model.V

    def rhs(t, y):
        eps, deps = model.level(t)
        s = eps * eps + v * v
        g = 0.5 * v * deps / s
        ph = cmath.exp(2j * y[2])
        return (-g * ph * y[1], g * y[0] / ph, math.sqrt(s))

    return rhs


def propagate_diabatic(model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()) -> float:
    """Cross-check integrator in the plain diabatic basis.

    Same window, but the ODE carries the full
    dynamical phase, i dc/dt = H c with H = [[eps, V], [V, -eps]], over
    the whole window [-T, T] with no use of the time symmetry that lets
    the primary route solve only [0, T]; Lam(T) comes from a quadrature,
    not from that solve, and the tail J(T) from contour_tail, not from
    the library's tail series.  Its solve_ivp DOP853 stepper shares no
    code with the library's collocation solve.
    """
    t_core, _ = _tail_point(model, settings.tail_tol)
    lam_half = phase_half(model, t_core)
    coeff = contour_tail(model, t_core)
    j_in = cmath.exp(2j * lam_half) * coeff
    norm = math.sqrt(1.0 + abs(j_in) ** 2)
    bp0, bm0 = j_in.conjugate() / norm, 1.0 / norm
    c_half, s_half = _mixing_half_angle(model, -t_core)
    up = bp0 * cmath.exp(1j * lam_half)  # e^{-i Lam(-T)} = e^{+i lam_half}
    dn = bm0 * cmath.exp(-1j * lam_half)
    y0 = np.array([up * c_half - dn * s_half, up * s_half + dn * c_half], dtype=complex)

    def rhs(t, y):
        eps, v = model.level(t)[0], model.V
        return (-1j * (eps * y[0] + v * y[1]), -1j * (v * y[0] - eps * y[1]))

    sol = solve_ivp(
        rhs,
        (-t_core, t_core),
        y0,
        method="DOP853",
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=t_core / 8.0,
    )
    if not sol.success:
        raise ToleranceFailure(f"step controller failed: {sol.message}")
    c1, c2 = sol.y[0, -1], sol.y[1, -1]
    c_half, s_half = _mixing_half_angle(model, t_core)
    bp = cmath.exp(1j * lam_half) * (c_half * c1 + s_half * c2)
    bm = cmath.exp(-1j * lam_half) * (-s_half * c1 + c_half * c2)
    j_out = cmath.exp(2j * lam_half) * coeff
    bp_inf = (bp - j_out * bm) / math.sqrt(1.0 + abs(j_out) ** 2)
    return min(max(abs(bp_inf) ** 2, 0.0), 1.0)


def contour_tail(model: DiabaticModel, T: float) -> complex:
    """J(T) e^{-2i Lam(T)} = int_T^inf gamma e^{2i (Lam - Lam(T))} dt by
    integration along the steepest-descent path t(s) = (T^m + i s)^(1/m),
    s in [0, 60 m], with m = N + 1 (m = 3 for the parabolic family).

    On that path 2i (Lam - Lam(T)) ~ -2 s/m for eps ~ t^N, so the integrand
    decays like e^{-2s/m} (like e^{-A s/3} for the parabolic family) instead
    of oscillating.  One complex DOP853 solve in s carries
    phi = Lam - Lam(T) and the integral.  W = eps sqrt(1 + V^2/eps^2) keeps
    the square root on one continuous branch, since the path stays clear
    of the zero points.  Shares no code with the propagator's tail series.
    """
    m = model.N + 1 if isinstance(model, Superparabolic) else 3
    v = model.V

    def rhs(s, y):
        t = (T**m + 1j * s) ** (1.0 / m)
        dt = 1j / (m * t ** (m - 1))
        eps, deps = model.level(t)
        w = eps * cmath.sqrt(1.0 + (v / eps) ** 2)
        gamma = v * deps / (2.0 * w * w)
        return (w * dt, gamma * cmath.exp(2j * y[0]) * dt)

    sol = solve_ivp(rhs, (0.0, 60.0 * m), np.zeros(2, dtype=complex), method="DOP853",
                    rtol=1e-13, atol=1e-30)
    if not sol.success:
        raise ToleranceFailure(f"contour solve failed: {sol.message}")
    return complex(sol.y[1, -1])


def coupling_continued(model: DiabaticModel, z: complex) -> complex:
    # Analytic continuation of the nonadiabatic coupling, with the overall
    # sign fixed by the contour derivation (basis vectors chosen so the
    # residue prefactors alternate starting at -1).  The opposite global
    # sign is used on the real axis by models.nonadiabatic_coupling; final
    # probabilities are insensitive to this relative convention.
    return -nonadiabatic_coupling(model, z)


def residue_prefactor(model: DiabaticModel, t_c: complex) -> complex:
    """Gamma = 4i lim_{t->t_c} (t - t_c) gamma(t) by Richardson extrapolation.

    The limit is taken along the ray from t_c toward the origin with
    offsets h_j = 1e-2 |t_c| 2^{-j}, six stages.  For the glancing family
    the result is (-1)^k for the k-th zero.
    """
    radius = abs(t_c)
    if radius == 0.0:
        raise ValueError("t_c must be nonzero")
    u = -t_c / radius
    stages = 6
    tab = []
    for j in range(stages):
        dt = (1e-2 * radius * 2.0**-j) * u
        tab.append(4j * dt * coupling_continued(model, t_c + dt))
    for m in range(1, stages):
        fac = 2.0**m - 1.0
        for i in range(stages - 1, m - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) / fac
    if abs(tab[-1] - tab[-2]) > 1e-6 * max(1.0, abs(tab[-1])):
        raise NonSimpleZero(
            f"residue extrapolation did not stabilize at t_c={t_c!r}: "
            f"last corrections {abs(tab[-1] - tab[-2]):.3e}"
        )
    return tab[-1]


def born_glancing(N: int, alpha: float) -> float:
    """First-order (Born) P for eps = t^N, V = alpha: P1 = alpha^2 I^2 with
    I = int exp(2i t^m/m) dt = 2 Gamma(1 + 1/m) cos(pi/2m) (2/m)^(-1/m),
    m = N + 1.  Exact as alpha -> 0; shares no code with the propagator."""
    m = N + 1
    integral = (
        2.0 * math.gamma(1.0 + 1.0 / m) * math.cos(math.pi / (2 * m)) * (2.0 / m) ** (-1.0 / m)
    )
    return (alpha * integral) ** 2


def born_parabolic(A: float, B: float, V0: float) -> float:
    """First-order (Born) P for eps = (A t^2 - B)/2, V = V0:
    P1 = 4 pi^2 V0^2 A^(-2/3) Ai(-B A^(-1/3))^2, from
    int exp(i (A t^3/3 - B t)) dt = 2 pi A^(-1/3) Ai(-B A^(-1/3))."""
    ai = airy(-B * A ** (-1.0 / 3.0))[0]
    return 4.0 * math.pi**2 * V0**2 * A ** (-2.0 / 3.0) * ai**2


def ddp_parabolic_closed_form(alpha: float) -> float:
    """P = 4 e^{-2 c alpha^(3/2)} sin^2(c alpha^(3/2)) for the parabolic glancing model."""
    if not (0.0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    x = PARABOLIC_C * alpha**1.5
    return 4.0 * math.exp(-2.0 * x) * math.sin(x) ** 2


def ddp_single_zero(eta: float, N: int) -> float:
    """Dominant-zero truncation e^{-2 eta sin(pi/(2N))} (adiabatic-limit form)."""
    check_glancing(N, eta, "eta")
    return math.exp(-2.0 * eta * math.sin(math.pi / (2 * N)))


def single_passage_parabolic(alpha: float) -> float:
    """Single-passage probability of the parabolic glancing model in alpha form."""
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return math.exp(
        -(math.pi * alpha**1.5 / math.sqrt(2.0)) * (0.1 * alpha**-3 + 0.7) ** -0.25
    )
