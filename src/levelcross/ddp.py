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

from .errors import NonSimpleZero
from .models import DiabaticModel, check_glancing, nonadiabatic_coupling
from .specialfn import PARABOLIC_C, nu_coefficient

__all__ = [
    "ZeroPoint",
    "PhaseIntegral",
    "zero_points",
    "glancing_eta",
    "phase_integral",
    "glancing_phase",
    "residue_prefactor",
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


def _coupling_continued(model: DiabaticModel, z: complex) -> complex:
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
        tab.append(4j * dt * _coupling_continued(model, t_c + dt))
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
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    x = PARABOLIC_C * alpha**1.5
    return 4.0 * math.exp(-2.0 * x) * math.sin(x) ** 2


def ddp_single_zero(eta: float, N: int) -> float:
    """Dominant-zero truncation e^{-2 eta sin(pi/(2N))} (adiabatic-limit form)."""
    check_glancing(N, eta, "eta")
    return math.exp(-2.0 * eta * math.sin(math.pi / (2 * N)))
