"""Zhu-Nakamura closed-form transition probabilities.

Two branches of the final recommended formulas: the double-crossing
branch (effective collision energy above the crossing, b^2 >= 0) and the
tunneling branch (b^2 <= 0).  Both build on the exact functional form
P = 4 p (1 - p) sin^2(psi) with heuristic expressions for p and psi in
terms of the reduced coupling a^2 and the phase-integral parts sigma,
delta.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .ddp import phase_integral
from .errors import BranchFailure
from .models import check_glancing

__all__ = [
    "single_passage_probability",
    "arg_gamma_imag",
    "delta_psi",
    "stokes_phase",
    "double_crossing_probability",
    "tunneling_B",
    "tunneling_probability",
    "glancing_reduced_parameters",
    "glancing_double_crossing",
    "glancing_tunneling",
]


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


@functools.cache
def _loggamma() -> Callable[[complex], complex]:
    # scipy.special is imported on the first closed-form call, not with the
    # package, and bound once: every later call is a cached lookup
    from scipy.special import loggamma

    return loggamma


def arg_gamma_imag(y: float) -> float:
    """arg Gamma(iy) for y > 0, continued from the y -> 0+ limit -pi/2.

    This is Im log Gamma(iy) on the principal branch of scipy's loggamma,
    which is continuous along the imaginary axis.
    """
    if not (y > 0.0) or math.isinf(y):
        raise ValueError(f"arg_gamma_imag requires y > 0, got {y!r}")
    return float(_loggamma()(complex(0.0, y)).imag)


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
