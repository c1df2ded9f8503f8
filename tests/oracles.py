"""Reference integrators used only by the tests."""

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from levelcross.errors import ToleranceFailure
from levelcross.models import DiabaticModel, diabatic
from levelcross.propagator import (
    PropagatorSettings,
    _mixing_half_angle,
    _tail_coefficient,
    _tail_point,
)


def phase_half(model: DiabaticModel, t_core: float) -> float:
    """Lam(t_core) = int_0^{t_core} W dt, by quadrature."""
    val, _ = quad(
        lambda t: math.hypot(*diabatic(model, t)),
        0.0,
        t_core,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def propagate_diabatic(
    model: DiabaticModel, settings: PropagatorSettings = PropagatorSettings()
) -> float:
    """Cross-check integrator in the plain diabatic basis.

    Same window and tail completion, but the ODE carries the full
    dynamical phase, i dc/dt = H c with H = [[eps, V], [V, -eps]], over
    the whole window [-T, T] with no use of the time symmetry that lets
    the primary route solve only [0, T]; Lam(T) comes from a quadrature,
    not from that solve.  Kept as an independently-structured oracle.
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
        eps, v = diabatic(model, t)
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
