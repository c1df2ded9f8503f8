"""Coherent-sum transition probabilities from complex zero points.

For the glancing family eps = t^N, V = alpha the adiabatic gap vanishes
at N points on the upper-half-plane circle |t| = alpha^(1/N), and the
gap integral up to each of them is known in closed form through the
coefficient nu_N.  The coherent sum over all of them approximates the
transition probability well into the nonadiabatic regime.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .models import check_glancing

__all__ = [
    "nu_coefficient",
    "ZeroPoint",
    "zero_points",
    "glancing_eta",
    "phase_integral",
    "ddp_probability",
]


def nu_coefficient(N) -> float:
    """nu_N = integral_0^1 sqrt(1 - y^(2N)) dy = B(1/(2N), 3/2)/(2N).

    The even values N = 2, 4, ... are the glancing family; N = 1 is the
    quarter-circle sanity case (pi/4).
    """
    try:
        n = 0 if isinstance(N, bool) else int(N)
    except (OverflowError, ValueError):  # inf, nan
        n = 0
    if n != N or n <= 0:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return _nu(n)


# The memos below are keyed by the validated int N, never by the caller's
# value: True == 1 and 2.0 == 2 hash alike.  Both are filled on first use.
@functools.lru_cache(maxsize=128)
def _nu(n: int) -> float:
    x = 1.0 / (2.0 * n)  # Beta(x, 3/2) through log-Gamma
    return math.exp(math.lgamma(x) + math.lgamma(1.5) - math.lgamma(x + 1.5)) / (2.0 * n)


# Zero-point tables are memoised up to this N.  A table holds N/2 entries,
# so the memo holds at most about 1 MB; for a larger N the sum reads the
# same entries as they are computed, at the same O(N) cost as the sum, a
# block of _ANGLE_BLOCK angles at a time (even, so that every block starts
# at an odd k), which bounds the memory whatever N is.
_TABLE_MEMO_N = 256
_ANGLE_BLOCK = 4096


def _zero_point_angles(n: int) -> Iterator[tuple[float, float, bool]]:
    """(sin th_k, cos th_k, k odd) for th_k = pi (2k-1)/(2n), k = 1..n/2."""

    def block(first: int) -> Iterator[tuple[float, float, bool]]:
        th = [math.pi * (2 * k - 1) / (2 * n) for k in range(first, min(first + _ANGLE_BLOCK, n // 2 + 1))]
        return zip(map(math.sin, th), map(math.cos, th), itertools.cycle((True, False)))

    return itertools.chain.from_iterable(map(block, range(1, n // 2 + 1, _ANGLE_BLOCK)))


@functools.lru_cache(maxsize=128)
def _memo_zero_point_table(n: int) -> tuple[tuple[float, float, bool], ...]:
    return tuple(_zero_point_angles(n))


def _zero_point_table(n: int) -> Iterable[tuple[float, float, bool]]:
    return _memo_zero_point_table(n) if n <= _TABLE_MEMO_N else _zero_point_angles(n)


@dataclass(frozen=True)
class ZeroPoint:
    """k-th upper-half-plane zero of the squared adiabatic gap."""

    k: int
    t_c: complex


def zero_points(N: int, alpha: float) -> list[ZeroPoint]:
    """All N upper-half-plane zeros alpha^(1/N) e^{i pi (2k-1)/(2N)}, k = 1..N."""
    n, alpha = check_glancing(N, alpha)
    radius = alpha ** (1.0 / n)
    return [
        ZeroPoint(k, cmath.rect(radius, math.pi * (2 * k - 1) / (2 * n)))
        for k in range(1, n + 1)
    ]


def glancing_eta(N: int, alpha: float) -> float:
    """Magnitude eta = 2 nu_N alpha^((N+1)/N) of every gap integral D(t_c^k)."""
    n, alpha = check_glancing(N, alpha)
    try:
        return 2.0 * _nu(n) * alpha ** ((n + 1.0) / n)
    except OverflowError as exc:
        msg = f"eta = 2 nu_N alpha^((N+1)/N) overflows at N={n}, alpha={alpha!r}"
        raise OverflowError(msg) from exc


def phase_integral(N: int, alpha: float, k: int) -> complex:
    """Gap integral D(t_c^k) = eta e^{i pi (2k-1)/(2N)} for the k-th zero.

    D(t_c^1) = sigma + i delta is what the Zhu-Nakamura forms take.
    """
    eta = glancing_eta(N, alpha)
    if k not in range(1, int(N) + 1):  # refuses nan, inf and non-integers too
        raise ValueError(f"k must be an integer in 1..{N}, got {k!r}")
    return cmath.rect(eta, math.pi * (2 * k - 1) / (2 * N))


def ddp_probability(N: int, alpha: float) -> float:
    """Coherent sum over all upper-half-plane zeros of the glancing family.

    P = 4 | sum_{k=1}^{N/2} (-1)^k e^{-eta sin th_k} sin(eta cos th_k) |^2,
    th_k = pi (2k-1)/(2N).  The value must already lie in [0, 1]; a value
    above 1 is reported as an error rather than clamped.
    """
    eta = glancing_eta(N, alpha)
    acc = 0.0
    for sin_th, cos_th, odd in _zero_point_table(int(N)):
        term = math.exp(-eta * sin_th) * math.sin(eta * cos_th)
        acc += -term if odd else term
    p = 4.0 * acc * acc
    if p > 1.0 + 1e-9:
        raise ValueError(f"coherent sum gave P={p!r} > 1 at N={N}, alpha={alpha}")
    return min(p, 1.0)
