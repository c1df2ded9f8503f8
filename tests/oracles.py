"""Reference integrators and limits used only by the tests.

The integrators here step with scipy's solve_ivp DOP853, a pure-Python
implementation, while the library steps with the compiled Fortran
DOP853 of scipy.integrate.ode: a test that compares the two compares two
integrator implementations as well as two formulations.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from levelcross.errors import NonSimpleZero, ToleranceFailure
from levelcross.models import DiabaticModel, nonadiabatic_coupling
from levelcross.propagator import (
    PropagatorSettings,
    _mixing_half_angle,
    _tail_coefficient,
    _tail_point,
)


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


def propagate_diabatic(
    model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()
) -> float:
    """Cross-check integrator in the plain diabatic basis.

    Same window and tail completion, but the ODE carries the full
    dynamical phase, i dc/dt = H c with H = [[eps, V], [V, -eps]], over
    the whole window [-T, T] with no use of the time symmetry that lets
    the primary route solve only [0, T]; Lam(T) comes from a quadrature,
    not from that solve.  Its solve_ivp stepper is a second DOP853
    implementation, independent of the compiled one the library uses.
    """
    t_core = _tail_point(model, settings.tail_tol)
    lam_half = phase_half(model, t_core)
    coeff = _tail_coefficient(model, t_core)
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
