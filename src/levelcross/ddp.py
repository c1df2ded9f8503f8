"""Coherent-sum transition probabilities from complex zero points.

For the glancing family eps = t^N, V = alpha the adiabatic gap vanishes
at N points on the upper-half-plane circle |t| = alpha^(1/N), and the
gap integral up to each of them is known in closed form.  The coherent
sum over all of them approximates the transition probability well into
the nonadiabatic regime; the single dominant zero reproduces the plain
adiabatic-limit exponential.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .models import check_glancing
from .specialfn import PARABOLIC_C, nu_coefficient

__all__ = [
    "ZeroPoint",
    "PhaseIntegral",
    "zero_points",
    "glancing_eta",
    "phase_integral",
    "glancing_phase",
    "ddp_probability",
    "ddp_parabolic_closed_form",
    "ddp_single_zero",
]


@dataclass(frozen=True)
class ZeroPoint:
    """k-th upper-half-plane zero of the squared adiabatic gap."""

    k: int
    t_c: complex


@dataclass(frozen=True)
class PhaseIntegral:
    """Real/imaginary split of the gap integral D(t_c^1) = sigma + i delta."""

    sigma: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta!r}")


def zero_points(N: int, alpha: float) -> list[ZeroPoint]:
    """All N upper-half-plane zeros alpha^(1/N) e^{i pi (2k-1)/(2N)}, k = 1..N."""
    check_glancing(N, alpha)
    radius = alpha ** (1.0 / N)
    return [
        ZeroPoint(k, cmath.rect(radius, math.pi * (2 * k - 1) / (2 * N)))
        for k in range(1, N + 1)
    ]


def glancing_eta(N: int, alpha: float) -> float:
    """Magnitude eta = 2 nu_N alpha^((N+1)/N) of every gap integral D(t_c^k)."""
    check_glancing(N, alpha)
    return 2.0 * nu_coefficient(int(N)) * alpha ** ((N + 1.0) / N)


def phase_integral(N: int, alpha: float, k: int) -> complex:
    """Gap integral D(t_c^k) = eta e^{i pi (2k-1)/(2N)} for the k-th zero."""
    eta = glancing_eta(N, alpha)
    if int(k) != k or not (1 <= k <= N):
        raise ValueError(f"k must be an integer in 1..{N}, got {k!r}")
    return cmath.rect(eta, math.pi * (2 * k - 1) / (2 * N))


def glancing_phase(N: int, alpha: float) -> PhaseIntegral:
    """sigma, delta of the dominant (k = 1) zero, the inputs to the ZNT formulas."""
    d1 = phase_integral(N, alpha, 1)
    return PhaseIntegral(d1.real, d1.imag)


def ddp_probability(N: int, alpha: float) -> float:
    """Coherent sum over all upper-half-plane zeros of the glancing family.

    P = 4 | sum_{k=1}^{N/2} (-1)^k e^{-eta sin th_k} sin(eta cos th_k) |^2,
    th_k = pi (2k-1)/(2N).  The value must already lie in [0, 1]; a value
    above 1 is reported as an error rather than clamped.
    """
    eta = glancing_eta(N, alpha)
    acc = 0.0
    for k in range(1, N // 2 + 1):
        th = math.pi * (2 * k - 1) / (2 * N)
        term = math.exp(-eta * math.sin(th)) * math.sin(eta * math.cos(th))
        acc += -term if k % 2 else term
    p = 4.0 * acc * acc
    if p > 1.0 + 1e-9:
        raise ValueError(f"coherent sum gave P={p!r} > 1 at N={N}, alpha={alpha}")
    return min(p, 1.0)


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
