"""Special functions behind the closed forms, against independent oracles.

arg Gamma(iy) (in znt, for the Stokes phase) is checked against the plain
truncated Weierstrass series with a rigorous tail bound, independent of
the scipy loggamma it uses; nu_N (in ddp, for the gap integral) against
quadrature of its defining integral, which also checks the Beta function
written into it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import loggamma

from levelcross.ddp import nu_coefficient
from levelcross.znt import arg_gamma_imag
from oracles import EULER_GAMMA, PARABOLIC_C


def weierstrass_arg_gamma(y: float, terms: int) -> tuple[float, float]:
    """Literal truncated series and its true remainder bound.

    Remainder = sum_{k>K} (y/k - atan(y/k)) <= (y^3/3) sum_{k>K} k^-3
    <= y^3/(6 K^2) (1 + 2/K).
    """
    k = np.arange(1, terms + 1, dtype=float)
    s = float(np.sum(y / k - np.arctan(y / k)))
    bound = y**3 / (6.0 * terms**2) * (1.0 + 2.0 / terms)
    return -0.5 * math.pi - EULER_GAMMA * y + s, bound


class TestArgGammaImag:
    def test_against_literal_series(self):
        # truncation chosen so the rigorous bound is tight at each y
        for y, terms in ((0.1, 30_000), (0.5, 100_000), (1.0, 200_000),
                         (2.0, 400_000), (5.0, 800_000), (10.0, 1_500_000)):
            ref, bound = weierstrass_arg_gamma(y, terms)
            assert abs(arg_gamma_imag(y) - ref) < bound + 1e-11

    def test_against_complex_loggamma(self):
        for y in (1e-3, 0.01, 0.3, 1.0, 3.0, 15.9, 16.0, 16.1, 40.0, 318.3, 1e3):
            ref = float(loggamma(1j * y).imag)
            assert arg_gamma_imag(y) == pytest.approx(ref, abs=5e-13, rel=1e-12)

    def test_known_value_at_one(self):
        assert arg_gamma_imag(1.0) == pytest.approx(-1.87244, abs=5e-6)
        assert arg_gamma_imag(1.0) == pytest.approx(-1.8724366472624298, abs=1e-12)

    def test_small_y_limit(self):
        assert abs(arg_gamma_imag(1e-6) + 0.5 * math.pi) < 1e-5
        # next order is -gamma*y, remainder O(y^3)
        for y in (1e-4, 1e-3):
            assert abs(arg_gamma_imag(y) + 0.5 * math.pi + EULER_GAMMA * y) < y**3

    def test_crossover_continuity(self):
        # the function itself has slope d/dy arg Gamma(iy) ~ ln y; the
        # series->Stirling handover must add nothing beyond that
        eps = 1e-9
        below = arg_gamma_imag(16.0 - eps)
        above = arg_gamma_imag(16.0 + eps)
        assert abs((above - below) - 2.0 * eps * math.log(16.0)) < 5e-12

    def test_series_asymptotic_crosscheck_at_ten(self):
        # the two internal regimes evaluated on either side of their own
        # domains must agree with the independent reference to 1e-10
        ref = float(loggamma(10j).imag)
        assert abs(arg_gamma_imag(10.0) - ref) < 1e-10

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                arg_gamma_imag(bad)


class TestNuCoefficient:
    def test_quadrature_oracle_even_grid(self):
        for n in range(2, 21, 2):
            ref, err = quad(
                lambda s, n=n: math.sqrt(1.0 - s ** (2 * n)),
                0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300,
            )
            assert abs(nu_coefficient(n) - ref) < 1e-10

    def test_closed_form_examples(self):
        assert nu_coefficient(1) == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert nu_coefficient(2) == pytest.approx(0.874019, abs=5e-7)
        # quadrature oracle value; see also test_quadrature_oracle_odd
        assert nu_coefficient(3) == pytest.approx(0.9107439929578439, abs=1e-12)

    def test_quadrature_oracle_odd(self):
        ref, _ = quad(
            lambda s: math.sqrt(1.0 - s**6), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13, limit=300,
        )
        assert abs(nu_coefficient(3) - ref) < 1e-10

    def test_monotone_below_one(self):
        vals = [nu_coefficient(n) for n in range(1, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_rejects_bad_n(self):
        for bad in (0, -2, 2.5, "4"):
            with pytest.raises((ValueError, TypeError)):
                nu_coefficient(bad)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"N must be a positive integer, got"):
                nu_coefficient(bad)


class TestParabolicConstant:
    def test_equals_sqrt2_nu2(self):
        assert abs(PARABOLIC_C - math.sqrt(2.0) * nu_coefficient(2)) < 1e-10

    def test_gamma_expression(self):
        ref = math.sqrt(math.pi) * math.gamma(0.25) / (3.0 * math.sqrt(2.0) * math.gamma(0.75))
        assert PARABOLIC_C == ref
        assert PARABOLIC_C == pytest.approx(1.2360497848675809, abs=1e-15)
