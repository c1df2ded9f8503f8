"""Scalar special-function kernels.

Everything here operates on plain Python floats and is re-entrant; these
are the primitives behind the phase integrals and the Zhu-Nakamura
closed forms: real log-Gamma, the Beta function, arg Gamma(iy) on the
imaginary axis, and the nu_N gap-integral coefficient.
"""

from __future__ import annotations

import math

from scipy.special import loggamma

__all__ = [
    "EULER_GAMMA",
    "PARABOLIC_C",
    "log_gamma",
    "beta",
    "arg_gamma_imag",
    "nu_coefficient",
]

EULER_GAMMA = 0.5772156649015328606


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got {x!r}, {y!r}")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def arg_gamma_imag(y: float) -> float:
    """arg Gamma(iy) for y > 0, continued from the y -> 0+ limit -pi/2.

    This is Im log Gamma(iy) on the principal branch of scipy's loggamma,
    which is continuous along the imaginary axis.
    """
    if not (y > 0.0) or math.isinf(y):
        raise ValueError(f"arg_gamma_imag requires y > 0, got {y!r}")
    return float(loggamma(complex(0.0, y)).imag)


def nu_coefficient(N) -> float:
    """nu_N = integral_0^1 sqrt(1 - y^(2N)) dy = B(1/(2N), 3/2)/(2N).

    The even values N = 2, 4, ... are the glancing family; N = 1 is the
    quarter-circle sanity case (pi/4).
    """
    n = int(N) if not isinstance(N, bool) else 0
    if isinstance(N, float) and not N.is_integer():
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if n != N or n <= 0:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return beta(1.0 / (2.0 * n), 1.5) / (2.0 * n)


# Phase coefficient of the parabolic glancing model, sigma = delta = c alpha^(3/2);
# equals sqrt(2) * nu_2 (checked to 1e-10 in the tests).
PARABOLIC_C = math.sqrt(math.pi) * math.gamma(0.25) / (3.0 * math.sqrt(2.0) * math.gamma(0.75))
