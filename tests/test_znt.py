"""Closed-form branch probabilities and their wiring to the glancing family."""

import math

import numpy as np
import pytest

from levelcross.ddp import phase_integral
from levelcross.errors import BranchFailure
from levelcross.znt import (
    arg_gamma_imag,
    delta_psi,
    double_crossing_probability,
    glancing_double_crossing,
    glancing_reduced_parameters,
    glancing_tunneling,
    single_passage_probability,
    stokes_phase,
    tunneling_B,
    tunneling_probability,
)
from oracles import PARABOLIC_C, single_passage_parabolic

C = PARABOLIC_C


class TestSinglePassage:
    def test_reference_point(self):
        p = single_passage_probability(0.25, 0.0)
        assert p == pytest.approx(0.09547523611483988, rel=1e-14)
        assert p == pytest.approx(0.0955, abs=1e-4)

    def test_matches_alpha_form(self):
        for alpha in np.linspace(0.05, 5.0, 60):
            a = float(alpha)
            assert single_passage_probability(1.0 / (4.0 * a**3), 0.0) == pytest.approx(
                single_passage_parabolic(a), rel=1e-12
            )

    def test_landau_zener_limit(self):
        a_sq, b_sq = 0.25, 1e4
        lz = math.exp(-math.pi / (4.0 * math.sqrt(a_sq) * math.sqrt(b_sq)))
        assert single_passage_probability(a_sq, b_sq) == pytest.approx(lz, rel=1e-4)

    def test_diabatic_limit(self):
        assert single_passage_probability(1e12, 0.0) > 1.0 - 1e-8

    def test_negative_b_sq_allowed(self):
        p = single_passage_probability(0.25, -5.0)
        assert 0.0 < p < 1.0

    def test_parabolic_limits(self):
        assert single_passage_parabolic(1e-6) > 1.0 - 1e-10
        assert single_passage_parabolic(100.0) < 1e-300

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            single_passage_probability(0.0, 0.0)
        with pytest.raises(ValueError):
            single_passage_parabolic(-1.0)


class TestDeltaPsi:
    def test_reference_point(self):
        val = delta_psi(0.25, C, C)
        assert val == pytest.approx(1.404432365430196, rel=1e-14)
        assert val == pytest.approx(1.40444, abs=2e-5)

    def test_large_sigma_limit(self):
        assert delta_psi(0.25, 100.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_small_coupling_limit(self):
        assert delta_psi(1e-12, 1.0, 3.0) == pytest.approx(3.0, rel=1e-3)
        assert delta_psi(1e-20, 1.0, 3.0) == pytest.approx(3.0, rel=1e-5)

    def test_always_above_delta(self):
        rng = np.random.default_rng(20240828)
        for _ in range(30):
            a_sq = float(rng.uniform(1e-3, 10.0))
            sig = float(rng.uniform(0.0, 10.0))
            dlt = float(rng.uniform(1e-3, 10.0))
            assert delta_psi(a_sq, sig, dlt) >= dlt

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            delta_psi(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            delta_psi(1.0, 1.0, 0.0)


class TestStokesPhase:
    def test_small_delta_limit(self):
        assert abs(stokes_phase(1e-8) - math.pi / 4.0) < 1e-6

    def test_at_pi(self):
        want = -1.0 - arg_gamma_imag(1.0) - math.pi / 4.0
        assert stokes_phase(math.pi) == pytest.approx(want, rel=1e-14)
        assert stokes_phase(math.pi) == pytest.approx(0.08703848386498136, rel=1e-12)
        assert stokes_phase(math.pi) == pytest.approx(0.08704, abs=2e-6)

    def test_large_delta_limit(self):
        assert abs(stokes_phase(1e3)) < 1e-2

    def test_monotone_decay_tail(self):
        vals = [abs(stokes_phase(d)) for d in (50.0, 100.0, 500.0, 1e3)]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stokes_phase(0.0)


class TestDoubleCrossing:
    def test_parabolic_glancing_pipeline(self):
        # assemble the same value step by step
        p = math.exp(-(math.pi / 2.0) * math.sqrt(2.0 / math.sqrt(0.4 * 0.25 + 0.7)))
        d_eff = (1.0 + 5.0 * 0.25**0.25 / (0.25**0.25 + 0.8) * 10.0 ** (-C)) * C
        y = d_eff / math.pi
        phi = -y + y * math.log(y) - arg_gamma_imag(y) - math.pi / 4.0
        want = 4.0 * p * (1.0 - p) * math.sin(C + phi) ** 2
        got = double_crossing_probability(0.25, 0.0, C, C)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.3395618929222485, rel=1e-13)
        assert got == pytest.approx(0.34, abs=5e-3)

    def test_envelope_bound(self):
        rng = np.random.default_rng(20240829)
        for _ in range(40):
            a_sq = float(rng.uniform(0.01, 5.0))
            sig = float(rng.uniform(0.1, 10.0))
            dlt = float(rng.uniform(0.1, 10.0))
            p = single_passage_probability(a_sq, 0.0)
            val = double_crossing_probability(a_sq, 0.0, sig, dlt)
            assert 0.0 <= val <= 4.0 * p * (1.0 - p) + 1e-15
            assert val <= 1.0

    def test_envelope_max_is_one(self):
        assert 4.0 * 0.5 * (1.0 - 0.5) == 1.0

    def test_strong_coupling_limit(self):
        assert glancing_double_crossing(2, 50.0) < 1e-100

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("index, name", list(enumerate(("a_sq", "b_sq", "sigma", "delta"))))
    def test_rejects_non_finite(self, index, name, bad):
        # the message names the argument, not a quantity derived from it
        args = [0.25, 0.0, C, C]
        args[index] = bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            double_crossing_probability(*args)


class TestTunnelingB:
    def test_exact_points(self):
        assert tunneling_B(1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert tunneling_B(0.5) == pytest.approx(2.0, rel=1e-12)
        assert tunneling_B(2.0) == pytest.approx(16.0 * math.pi, rel=1e-12)

    def test_rejects_nonpositive(self):
        # inf too: there x^(2x) / Gamma(x)^2 is inf/inf and would give nan
        for bad in (0.0, -1.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="^x must be positive and finite"):
                tunneling_B(bad)


class TestTunneling:
    def test_parabolic_glancing_pipeline(self):
        g1 = 1.8 * 0.25**0.23 * math.exp(-C)
        g2 = 3.0 / math.pi * math.log(1.2 + 0.25) - 4.0
        assert g1 == pytest.approx(0.38018, abs=1e-5)
        assert g2 == pytest.approx(-3.64518, abs=1e-5)
        big_b = tunneling_B(C / math.pi)
        e2s = math.exp(2.0 * C)
        sin_s, cos_s = math.sin(C), math.cos(C)
        p = 1.0 / (1.0 + big_b * e2s - g2 * sin_s**2)
        re_u1 = cos_s * (math.sqrt(big_b) * math.exp(C) - g1 * sin_s**2 * math.exp(-C) / math.sqrt(big_b))
        rad = big_b * e2s - g1**2 * sin_s**2 * cos_s**2 / (big_b * e2s) + 2.0 * g1 * cos_s**2 - g2
        im_u1 = sin_s * math.sqrt(rad)
        want = 4.0 * p * (1.0 - p) * math.sin(math.atan2(im_u1, re_u1)) ** 2
        got = tunneling_probability(0.25, C, C)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.1576701673254211, rel=1e-13)

    def test_vanishes_at_integer_pi_sigma(self):
        for m in (1, 2):
            assert tunneling_probability(0.25, m * math.pi, 1.0) < 1e-30

    def test_branch_failure_bands(self):
        with pytest.raises(BranchFailure):
            glancing_tunneling(10, 0.45)
        with pytest.raises(BranchFailure):
            glancing_tunneling(6, 0.36)

    def test_overflow_band_underflows_to_zero(self):
        # B e^(2 sigma) leaves the float range for alpha > ~37 at N = 2; the
        # scale-free form underflows P to 0 there instead of raising
        previous = 1.0
        for alpha in (30.0, 36.0, 37.0, 39.0, 44.0, 44.3, 50.0, 200.0):
            p = glancing_tunneling(2, alpha)
            assert 0.0 <= p <= 1.0
            assert p <= previous
            previous = p
        assert glancing_tunneling(2, 30.0) > 0.0
        assert glancing_tunneling(2, 50.0) == 0.0

    def test_small_sigma_tends_to_zero(self):
        # p -> 1 as sigma -> 0: P falls smoothly, is 0.0 once p rounds to 1,
        # and stays 0.0 where 1/(B e^(2 sigma)) would overflow (sigma < ~1e-308)
        assert 0.0 < tunneling_probability(0.25, 1e-16, 1.0) < tunneling_probability(0.25, 1e-3, 1.0)
        for sigma in (1e-17, 1e-200, 1e-300, 1e-310, 5e-324):
            assert tunneling_probability(0.25, sigma, 1.0) == 0.0

    def test_domain_failure_below_bands(self):
        with pytest.raises(ValueError):
            glancing_tunneling(10, 0.30)
        with pytest.raises(ValueError):
            glancing_tunneling(6, 0.20)

    def test_misbehaves_somewhere_for_n10(self):
        # over the sweep range the branch must either fail or deviate badly
        failed = False
        for alpha in np.linspace(0.1, 3.0, 40):
            try:
                glancing_tunneling(10, float(alpha))
            except (BranchFailure, ValueError):
                failed = True
                break
        assert failed

    def test_rejects_bad_inputs(self):
        for args in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, -2.0, 1.0)):
            with pytest.raises(ValueError):
                tunneling_probability(*args)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("index, name", list(enumerate(("a_sq", "sigma", "delta"))))
    def test_rejects_non_finite(self, index, name, bad):
        args = [0.25, 1.0, 1.0]
        args[index] = bad
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            tunneling_probability(*args)


def test_branches_disagree_at_glancing():
    # the two recommended forms are genuinely different at b^2 = 0
    diffs = []
    for alpha in np.linspace(0.3, 2.0, 18):
        try:
            diffs.append(
                abs(glancing_double_crossing(2, float(alpha)) - glancing_tunneling(2, float(alpha)))
            )
        except (BranchFailure, ValueError):
            continue
    assert diffs and max(diffs) > 1e-3


class TestGlancingWiring:
    # the glancing forms take a^2, b^2 from glancing_reduced_parameters and
    # sigma + i delta from the dominant-zero gap integral
    def test_inputs(self):
        a_sq, b_sq = glancing_reduced_parameters(2, 1.0)
        d = phase_integral(2, 1.0, 1)
        assert a_sq == pytest.approx(0.25, rel=1e-15)
        assert b_sq == 0.0
        assert d.real == pytest.approx(C, rel=1e-14)
        assert d.imag == pytest.approx(C, rel=1e-14)

    def test_composition(self):
        a_sq, b_sq = glancing_reduced_parameters(2, 1.0)
        d = phase_integral(2, 1.0, 1)
        assert glancing_double_crossing(2, 1.0) == double_crossing_probability(
            a_sq, b_sq, d.real, d.imag
        )
        assert glancing_tunneling(2, 1.0) == tunneling_probability(a_sq, d.real, d.imag)

    def test_same_a_sq_for_all_n(self):
        assert glancing_reduced_parameters(6, 0.9)[0] == glancing_reduced_parameters(2, 0.9)[0]

    @pytest.mark.parametrize(
        "alpha, error",
        [
            (1e300, OverflowError),  # alpha^3 overflows
            (5.65e102, OverflowError),
            # 4 alpha^3 overflows to inf without raising, which would give a^2 = 0
            (3.57e102, OverflowError),
            (4e102, OverflowError),
            (5.64e102, OverflowError),
            # alpha^3 is subnormal and 1/(4 alpha^3) overflows to inf without raising
            (1e-103, OverflowError),
            (1e-107, OverflowError),
            (1e-300, ZeroDivisionError),  # alpha^3 underflows to 0
        ],
    )
    def test_range_errors_are_named(self, alpha, error):
        msg = f"a^2 = 1/(4 alpha^3) leaves the float range at N=100, alpha={alpha!r}"
        for f in (glancing_reduced_parameters, glancing_double_crossing, glancing_tunneling):
            with pytest.raises(error) as info:
                f(100, alpha)
            assert str(info.value) == msg

    def test_edges_of_the_float_range(self):
        # just inside both ends a^2 is a finite positive float
        for alpha in (3.5e102, 2e-103):
            a_sq, _ = glancing_reduced_parameters(2, alpha)
            assert 0.0 < a_sq < math.inf
