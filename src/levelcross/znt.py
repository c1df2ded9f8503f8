"""Zhu-Nakamura closed-form transition probabilities.

Two branches of the final recommended formulas: the double-crossing
branch (effective collision energy above the crossing, b^2 >= 0) and the
tunneling branch (b^2 <= 0).  Both build on the exact functional form
P = 4 p (1 - p) sin^2(psi) with heuristic expressions for p and psi in
terms of the reduced coupling a^2 and the phase-integral parts sigma,
delta.  Also here: the adiabatic-curve parameter fit and its phase
estimate, which degenerate for glancing geometries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import loggamma

from .ddp import phase_integral
from .errors import BracketingError, BranchFailure, DegenerateGeometry
from .models import check_glancing

__all__ = [
    "FitGeometry",
    "single_passage_probability",
    "arg_gamma_imag",
    "delta_psi",
    "stokes_phase",
    "double_crossing_probability",
    "tunneling_B",
    "tunneling_probability",
    "fit_parameters",
    "znt_phase_estimate",
    "glancing_reduced_parameters",
    "glancing_double_crossing",
    "glancing_tunneling",
]

_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class FitGeometry:
    """Stationary points of a pair of adiabatic curves and the gap ratio d^2.

    t_b minimizes the upper level, t_t maximizes the lower one, t_0
    minimizes the gap; V0_fit is half the minimum gap.
    """

    t_b: float
    t_t: float
    t_0: float
    V0_fit: float
    d_sq: float


def single_passage_probability(a_sq: float, b_sq: float) -> float:
    """p = exp[-(pi/4a) (2/(b^2 + sqrt(b^4 + 0.4 a^2 + 0.7)))^(1/2)]."""
    if not (a_sq > 0.0):
        raise ValueError(f"a_sq must be positive, got {a_sq!r}")
    inner = b_sq * b_sq + 0.4 * a_sq + 0.7
    denom = b_sq + math.sqrt(inner)
    if denom <= 0.0:
        raise ValueError(f"square-root argument nonpositive: {denom!r}")
    a = math.sqrt(a_sq)
    return math.exp(-(math.pi / (4.0 * a)) * math.sqrt(2.0 / denom))


def arg_gamma_imag(y: float) -> float:
    """arg Gamma(iy) for y > 0, continued from the y -> 0+ limit -pi/2.

    This is Im log Gamma(iy) on the principal branch of scipy's loggamma,
    which is continuous along the imaginary axis.
    """
    if not (y > 0.0) or math.isinf(y):
        raise ValueError(f"arg_gamma_imag requires y > 0, got {y!r}")
    return float(loggamma(complex(0.0, y)).imag)


def delta_psi(a_sq: float, sigma: float, delta: float) -> float:
    """Heuristic phase replacement delta_psi = (1 + 5 sqrt(a)/(sqrt(a)+0.8) 10^-sigma) delta."""
    if not (a_sq > 0.0):
        raise ValueError(f"a_sq must be positive, got {a_sq!r}")
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    sqrt_a = a_sq**0.25
    return (1.0 + 5.0 * sqrt_a / (sqrt_a + 0.8) * 10.0 ** (-sigma)) * delta


def stokes_phase(delta_eff: float) -> float:
    """phi_s = -d/pi + (d/pi) ln(d/pi) - arg Gamma(i d/pi) - pi/4 at d = delta_eff."""
    if not (delta_eff > 0.0):
        raise ValueError(f"delta_eff must be positive, got {delta_eff!r}")
    x = delta_eff / math.pi
    return -x + x * math.log(x) - arg_gamma_imag(x) - 0.25 * math.pi


def double_crossing_probability(a_sq: float, b_sq: float, sigma: float, delta: float) -> float:
    """Double-crossing branch: 4 p (1-p) sin^2(sigma + phi_s(delta_psi))."""
    if not (0.0 < a_sq < math.inf):
        raise ValueError(f"a_sq must be positive and finite, got {a_sq!r}")
    if not math.isfinite(b_sq):
        raise ValueError(f"b_sq must be finite, got {b_sq!r}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    p = single_passage_probability(a_sq, b_sq)
    psi = sigma + stokes_phase(delta_psi(a_sq, sigma, delta))
    return 4.0 * p * (1.0 - p) * math.sin(psi) ** 2


def _log_tunneling_B(x: float) -> float:
    if not (0.0 < x < math.inf):
        raise ValueError(f"x must be positive and finite, got {x!r}")
    return math.log(2.0 * math.pi) + (2.0 * x - 1.0) * math.log(x) - 2.0 * math.lgamma(x)


def tunneling_B(x: float) -> float:
    """B(x) = 2 pi x^(2x) / (x Gamma(x)^2) (not the Beta function)."""
    return math.exp(_log_tunneling_B(x))


def tunneling_probability(a_sq: float, sigma: float, delta: float) -> float:
    """Tunneling branch: 4 p (1-p) sin^2(arg U1) with the heuristic Stokes constant.

    Evaluated scale-free in x = 1/(B(sigma/pi) e^(2 sigma)), so that a
    large sigma underflows x, and P, to 0 instead of overflowing.  As
    sigma -> 0, p -> 1 and P -> 0: P is 0.0 once p rounds to 1 (sigma
    below ~5e-17), and sigma < 1e-300, where x would overflow, returns
    that 0.0 directly.  Raises BranchFailure when the Im U1 radicand
    turns negative, the regime where these formulas stop making sense.
    """
    if not (0.0 < a_sq < math.inf):
        raise ValueError(f"a_sq must be positive and finite, got {a_sq!r}")
    if not (0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    g1 = 1.8 * a_sq**0.23 * math.exp(-delta)
    g2 = 3.0 * sigma / (math.pi * delta) * math.log(1.2 + a_sq) - 1.0 / a_sq
    if sigma < 1e-300:
        return 0.0
    x = math.exp(-(_log_tunneling_B(sigma / math.pi) + 2.0 * sigma))
    sin_s = math.sin(sigma)
    cos_s = math.cos(sigma)
    # p = 1/(1 + B e^(2 sigma) - g2 sin^2 sigma), times x/x
    denom = 1.0 - g2 * sin_s * sin_s * x
    if denom <= 0.0:
        raise ValueError(
            f"single-passage probability left (0, 1): scaled denominator {denom!r} "
            f"at sigma={sigma}, delta={delta}, a_sq={a_sq}"
        )
    p = x / (x + denom)
    # Re U1 divided by sqrt(B) e^sigma and the Im U1 radicand by B e^(2 sigma):
    # both parts of U1 shrink by the same positive factor, so arg U1 is kept
    re_u1 = cos_s * (1.0 - g1 * sin_s * sin_s * x)
    radicand = (
        1.0
        - g1 * g1 * sin_s * sin_s * cos_s * cos_s * x * x
        + (2.0 * g1 * cos_s * cos_s - g2) * x
    )
    if radicand < 0.0:
        raise BranchFailure(
            f"Im U1 radicand negative ({radicand!r} in units of B e^(2 sigma)) at "
            f"sigma={sigma}, delta={delta}, a_sq={a_sq}"
        )
    im_u1 = sin_s * math.sqrt(radicand)
    psi = math.atan2(im_u1, re_u1)
    return 4.0 * p * (1.0 - p) * math.sin(psi) ** 2


def _check_nondegenerate(geom: FitGeometry) -> float:
    """|t_t^2 - t_b^2|; a coincident (glancing) geometry raises DegenerateGeometry."""
    dt2 = abs(geom.t_t * geom.t_t - geom.t_b * geom.t_b)
    if abs(geom.d_sq - 1.0) < _DEGENERACY_TOL or dt2 < _DEGENERACY_TOL:
        raise DegenerateGeometry(
            f"coincident geometry: t_b={geom.t_b!r}, t_t={geom.t_t!r}, d_sq={geom.d_sq!r}"
        )
    return dt2


def _interior_minimum(f: Callable[[float], float], lo: float, hi: float, what: str) -> float:
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    if not res.success:
        raise BracketingError(f"{what}: minimizer failed on [{lo}, {hi}]: {res.message}")
    x = float(res.x)
    margin = 1e-6 * (hi - lo)
    if x - lo < margin or hi - x < margin:
        raise BracketingError(f"{what}: extremum at {x!r} sits on the interval boundary")
    return x


def fit_parameters(
    e1: Callable[[float], float],
    e2: Callable[[float], float],
    interval: tuple[float, float],
) -> tuple[FitGeometry, float, float]:
    """Fit reduced (a^2, b^2) from adiabatic curves E2 > E1 on an interval.

    a^2 = sqrt(d^2-1)/(2 V0^2 |t_t^2 - t_b^2|),
    b^2 = sqrt(d^2-1) (t_t^2 + t_b^2)/|t_t^2 - t_b^2|,
    with V0 half the minimum gap and d^2 the gap ratio at the extrema.
    Glancing-type geometries (coincident extrema, d^2 -> 1) raise
    DegenerateGeometry: the expressions above are then 0/0.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval {interval!r}")
    t_b = _interior_minimum(e2, lo, hi, "upper-level minimum")
    t_t = _interior_minimum(lambda t: -e1(t), lo, hi, "lower-level maximum")
    t_0 = _interior_minimum(lambda t: e2(t) - e1(t), lo, hi, "gap minimum")
    gap_0 = e2(t_0) - e1(t_0)
    if gap_0 <= 0.0:
        raise ValueError(f"curves are not ordered E2 > E1 at t_0={t_0!r}")
    v0 = 0.5 * gap_0
    d_sq = (e2(t_b) - e1(t_b)) * (e2(t_t) - e1(t_t)) / (gap_0 * gap_0)
    geom = FitGeometry(t_b=t_b, t_t=t_t, t_0=t_0, V0_fit=v0, d_sq=d_sq)
    dt2 = _check_nondegenerate(geom)
    if d_sq < 1.0:
        raise ValueError(f"gap ratio d_sq={d_sq!r} < 1; t_0 is not the gap minimum")
    root = math.sqrt(d_sq - 1.0)
    a_sq = root / (2.0 * v0 * v0 * dt2)
    b_sq = root * (t_t * t_t + t_b * t_b) / dt2
    return geom, a_sq, b_sq


def znt_phase_estimate(
    geom: FitGeometry,
    e1: Callable[[float], float],
    e2: Callable[[float], float],
    a_sq: float,
    b_sq: float,
) -> complex:
    """Approximate sigma + i delta from the fitted geometry.

    sigma + i delta = int_0^{t_b} E2 - int_0^{t_t} E1 + sqrt(b^2/a^2) + Delta,
    where Delta carries a 1/sqrt(d^2 - 1) factor and a quadrature along
    the straight segment from 0 to i; degenerate geometries raise.
    """
    _check_nondegenerate(geom)
    if not (a_sq > 0.0):
        raise ValueError(f"a_sq must be positive, got {a_sq!r}")
    if b_sq < 0.0:
        raise ValueError(f"b_sq must be nonnegative for this estimate, got {b_sq!r}")
    int_b = quad(e2, 0.0, geom.t_b, limit=200)[0]
    int_t = quad(e1, 0.0, geom.t_t, limit=200)[0]
    first = (
        (geom.t_0 - 0.5 * (geom.t_b + geom.t_t))
        / (cmath.sqrt(a_sq * (b_sq * b_sq + 1j)) * (geom.t_b - geom.t_t))
        * math.sqrt(geom.d_sq / (geom.d_sq - 1.0))
    )

    def segment(s: float) -> complex:
        # t = i s on the straight path 0 -> i
        return cmath.sqrt((1.0 - s * s) / (b_sq + 1j * s))

    seg_re = quad(lambda s: segment(s).real, 0.0, 1.0, limit=200)[0]
    seg_im = quad(lambda s: segment(s).imag, 0.0, 1.0, limit=200)[0]
    second = 1j * complex(seg_re, seg_im) / (2.0 * math.sqrt(a_sq))
    return int_b - int_t + math.sqrt(b_sq / a_sq) + first + second


def glancing_reduced_parameters(N: int, alpha: float) -> tuple[float, float]:
    """The reduced (a^2, b^2) = (1/(4 alpha^3), 0) that the glancing forms take.

    This is the N = 2 correspondence (eps = t^2, V = alpha is Parabolic(2, 0,
    alpha)), applied at every N; b^2 = 0 encodes the glancing geometry.  An
    a^2 that leaves the float range raises OverflowError or ZeroDivisionError.
    """
    n, alpha = check_glancing(N, alpha)
    try:
        a_sq = 1.0 / (4.0 * alpha**3)
        if not (0.0 < a_sq < math.inf):  # 4 alpha^3 or its reciprocal overflowed without raising
            raise OverflowError
    except (OverflowError, ZeroDivisionError) as exc:
        msg = f"a^2 = 1/(4 alpha^3) leaves the float range at N={n}, alpha={alpha!r}"
        raise type(exc)(msg) from exc
    return a_sq, 0.0


def glancing_double_crossing(N: int, alpha: float) -> float:
    """Double-crossing branch wired to the glancing family: (a^2, b^2) from
    glancing_reduced_parameters, sigma + i delta the dominant-zero gap integral."""
    a_sq, b_sq = glancing_reduced_parameters(N, alpha)
    d = phase_integral(N, alpha, 1)
    return double_crossing_probability(a_sq, b_sq, d.real, d.imag)


def glancing_tunneling(N: int, alpha: float) -> float:
    """Tunneling branch wired to the glancing family (b^2 = 0 is not used)."""
    a_sq, _ = glancing_reduced_parameters(N, alpha)
    d = phase_integral(N, alpha, 1)
    return tunneling_probability(a_sq, d.real, d.imag)
