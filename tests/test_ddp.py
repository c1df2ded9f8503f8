"""Zero points, phase integrals, residues, and the coherent-sum probability.

The phase-integral oracle below integrates the adiabatic gap numerically
along the straight ray from the origin to each zero point, independently
of the closed form used by the implementation.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import levelcross.ddp as ddp_mod
from levelcross.ddp import (
    ZeroPoint,
    ddp_probability,
    glancing_eta,
    nu_coefficient,
    phase_integral,
    zero_points,
)
from levelcross.models import Superparabolic, check_glancing
from levelcross.propagator import propagate
from levelcross.znt import glancing_double_crossing, glancing_reduced_parameters, glancing_tunneling
from oracles import (
    PARABOLIC_C,
    NonSimpleZero,
    coupling_continued,
    ddp_parabolic_closed_form,
    ddp_probability_unmemoised,
    ddp_single_zero,
    glancing_double_crossing_unmemoised,
    glancing_tunneling_unmemoised,
    residue_prefactor,
)


def gap_integral_oracle(n, alpha, k):
    """D(t_c^k) by complex-path quadrature of 2 sqrt(t^2N + alpha^2)."""
    t_c = alpha ** (1.0 / n) * cmath.rect(1.0, math.pi * (2 * k - 1) / (2 * n))

    def f(s):
        return 2.0 * cmath.sqrt((s * t_c) ** (2 * n) + alpha * alpha) * t_c

    re = quad(lambda s: f(s).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda s: f(s).imag, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    return complex(re, im)


class TestZeroPoints:
    def test_n2_unit_alpha(self):
        pts = zero_points(2, 1.0)
        assert [z.k for z in pts] == [1, 2]
        assert pts[0].t_c == pytest.approx(cmath.exp(0.25j * math.pi), abs=1e-15)
        assert pts[1].t_c == pytest.approx(cmath.exp(0.75j * math.pi), abs=1e-15)

    def test_n4_radius_two(self):
        pts = zero_points(4, 16.0)
        angles = [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8]
        for z, ang in zip(pts, angles):
            assert abs(z.t_c) == pytest.approx(2.0, abs=1e-12)
            assert cmath.phase(z.t_c) == pytest.approx(ang, abs=1e-12)

    def test_defining_equation(self):
        rng = np.random.default_rng(20240826)
        for _ in range(12):
            n = 2 * int(rng.integers(1, 9))
            alpha = float(rng.uniform(0.05, 5.0))
            for z in zero_points(n, alpha):
                assert z.t_c.imag > 0.0
                res = z.t_c ** (2 * n) + alpha * alpha
                assert abs(res) <= 1e-10 * max(1.0, alpha * alpha)

    def test_mirror_pairing(self):
        # k-th and (N+1-k)-th zeros share the imaginary part
        for n, alpha in ((2, 1.0), (6, 0.7), (10, 2.3)):
            pts = zero_points(n, alpha)
            for z in pts:
                mate = pts[n - z.k]
                assert mate.t_c == pytest.approx(-z.t_c.conjugate(), rel=1e-14)

    def test_rejects_bad_inputs(self):
        for n, alpha in ((3, 1.0), (0, 1.0), (2.5, 1.0), (2, 0.0), (2, -1.0), (2, math.inf),
                         (2, math.nan)):
            with pytest.raises(ValueError):
                zero_points(n, alpha)


class TestPhaseIntegral:
    def test_matches_path_quadrature(self):
        for n, alpha, k in ((2, 1.0, 1), (2, 4.0, 1), (6, 1.3, 2), (10, 0.4, 7), (4, 16.0, 3)):
            oracle = gap_integral_oracle(n, alpha, k)
            assert phase_integral(n, alpha, k) == pytest.approx(oracle, rel=1e-12, abs=1e-13)

    def test_unit_alpha_reference(self):
        d1 = phase_integral(2, 1.0, 1)
        assert d1.real == pytest.approx(PARABOLIC_C, abs=1e-10)
        assert d1.imag == pytest.approx(PARABOLIC_C, abs=1e-10)
        assert glancing_eta(2, 1.0) == pytest.approx(2.0 * nu_coefficient(2), rel=1e-15)
        assert glancing_eta(2, 1.0) == pytest.approx(1.74804, abs=1e-5)

    def test_n2_sigma_equals_delta(self):
        for alpha in (0.3, 1.0, 2.7, 4.0):
            d1 = phase_integral(2, alpha, 1)
            assert d1.real == pytest.approx(d1.imag, rel=1e-14)
        assert phase_integral(2, 4.0, 1).real == pytest.approx(8.0 * PARABOLIC_C, rel=1e-14)

    def test_magnitude_and_argument(self):
        eta = glancing_eta(6, 1.9)
        for z in zero_points(6, 1.9):
            d = phase_integral(6, 1.9, z.k)
            assert abs(d) == pytest.approx(eta, rel=1e-14)
            assert cmath.phase(d) == pytest.approx(cmath.phase(z.t_c), abs=1e-14)

    def test_rejects_bad_k(self):
        for k in (0, 3, -1, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"k must be an integer in 1\.\.2"):
                phase_integral(2, 1.0, k)


class TestResiduePrefactor:
    def test_n2_pair(self):
        m = Superparabolic(2, 1.0)
        pts = zero_points(2, 1.0)
        assert residue_prefactor(m, pts[0].t_c) == pytest.approx(-1.0, abs=1e-6)
        assert residue_prefactor(m, pts[1].t_c) == pytest.approx(1.0, abs=1e-6)

    def test_alternating_signs(self):
        for n, alpha in ((6, 0.7), (10, 0.9), (4, 2.2)):
            m = Superparabolic(n, alpha)
            for z in zero_points(n, alpha):
                want = -1.0 if z.k % 2 else 1.0
                assert residue_prefactor(m, z.t_c) == pytest.approx(want, abs=1e-6)

    def test_against_fixed_offset_limit(self):
        # single small-offset evaluation, no extrapolation
        m = Superparabolic(6, 0.7)
        z = zero_points(6, 0.7)[2]
        dt = -1e-7 * z.t_c
        crude = 4j * dt * coupling_continued(m, z.t_c + dt)
        assert residue_prefactor(m, z.t_c) == pytest.approx(crude, abs=1e-4)

    def test_perturbed_point_fails(self):
        m = Superparabolic(2, 1.0)
        z = zero_points(2, 1.0)[0].t_c
        with pytest.raises(NonSimpleZero):
            residue_prefactor(m, z * 1.001)

    def test_regular_point_gives_zero(self):
        assert abs(residue_prefactor(Superparabolic(2, 1.0), 1.0 + 1.0j)) < 1e-10

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            residue_prefactor(Superparabolic(2, 1.0), 0.0)


class TestDdpProbability:
    def test_unit_alpha_value(self):
        c = PARABOLIC_C
        oracle = 4.0 * math.exp(-2.0 * c) * math.sin(c) ** 2
        p = ddp_probability(2, 1.0)
        assert p == pytest.approx(oracle, rel=1e-12)
        assert p == pytest.approx(0.3011888124839908, rel=1e-12)
        assert round(p, 2) == 0.30

    def test_sine_node(self):
        alpha = (math.pi / PARABOLIC_C) ** (2.0 / 3.0)
        assert alpha == pytest.approx(1.8625, abs=2e-4)
        assert ddp_probability(2, alpha) < 1e-30

    def test_n2_nodes_at_multiples_of_pi(self):
        for m in (1, 2, 3):
            alpha = (m * math.pi / PARABOLIC_C) ** (2.0 / 3.0)
            assert ddp_probability(2, alpha) < 1e-28

    def test_equals_closed_form_on_grid(self):
        for alpha in np.linspace(0.05, 5.0, 100):
            a = float(alpha)
            assert ddp_probability(2, a) == pytest.approx(
                ddp_parabolic_closed_form(a), rel=1e-12, abs=1e-200
            )

    def test_rebuilt_coherent_sum(self):
        # same probability from first principles: residues at every zero,
        # phase integrals in the exponents, no pairing reduction
        for n, alpha in ((2, 1.0), (6, 0.7), (6, 1.5), (10, 0.9)):
            m = Superparabolic(n, alpha)
            acc = 0.0 + 0.0j
            for z in zero_points(n, alpha):
                g = residue_prefactor(m, z.t_c)
                g_int = round(g.real)
                assert g == pytest.approx(g_int, abs=1e-6)
                acc += g_int * cmath.exp(1j * phase_integral(n, alpha, z.k))
            assert abs(acc) ** 2 == pytest.approx(ddp_probability(n, alpha), abs=1e-10)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(20240827)
        for _ in range(60):
            n = 2 * int(rng.integers(1, 11))
            p = ddp_probability(n, float(rng.uniform(0.05, 5.0)))
            assert 0.0 <= p <= 1.0

    def test_overshoot_reported_not_clamped(self, monkeypatch):
        # force the paired terms to unit envelope so the sum exceeds 1.
        # math.exp is patched for the whole process: nu_2 is memoised
        # before the patch, and the memos are emptied before it is undone,
        # so that no value computed under it outlives this test
        eta = math.pi / (2.0 * math.cos(math.pi / 4.0))
        alpha = (eta / (2.0 * ddp_mod.nu_coefficient(2))) ** (2.0 / 3.0)
        monkeypatch.setattr(ddp_mod.math, "exp", lambda x: 1.0)
        try:
            with pytest.raises(ValueError, match="> 1"):
                ddp_probability(2, alpha)
        finally:
            ddp_mod._nu.cache_clear()
            ddp_mod._memo_zero_point_table.cache_clear()

    def test_agrees_with_propagation_in_adiabatic_regime(self):
        from levelcross.models import Superparabolic as SP

        p_num = propagate(SP(2, 2.5)).probability
        p_ddp = ddp_probability(2, 2.5)
        assert abs(p_num - p_ddp) / p_num < 0.15


class TestClosedFormAndSingleZero:
    def test_small_alpha_cubic_growth(self):
        c = PARABOLIC_C
        alpha = 1e-4
        assert ddp_parabolic_closed_form(alpha) / (4.0 * c * c * alpha**3) == pytest.approx(
            1.0, abs=1e-5
        )

    def test_vanishes_in_both_limits(self):
        assert ddp_parabolic_closed_form(100.0) == 0.0
        assert ddp_parabolic_closed_form(1e-12) < 1e-30

    def test_single_zero_reference(self):
        val = ddp_single_zero(PARABOLIC_C, 2)
        assert val == pytest.approx(math.exp(-math.sqrt(2.0) * PARABOLIC_C), rel=1e-14)
        assert val == pytest.approx(0.1741, abs=5e-5)

    def test_single_zero_decays(self):
        assert ddp_single_zero(1e6, 2) == 0.0
        etas = [0.5, 1.0, 2.0, 8.0, 20.0]
        vals = [ddp_single_zero(e, 6) for e in etas]
        assert vals == sorted(vals, reverse=True)

    def test_single_zero_envelopes_coherent_sum(self):
        # in the adiabatic regime the dominant zero bounds the full sum up
        # to subdominant corrections
        for n, slack in ((2, 1.0 + 1e-9), (6, 1.1)):
            for alpha in np.linspace(0.1, 6.0, 120):
                a = float(alpha)
                eta = glancing_eta(n, a)
                if eta < 8.0:
                    continue
                assert ddp_probability(n, a) <= 4.0 * ddp_single_zero(eta, n) * slack

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ddp_parabolic_closed_form(0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^alpha must be positive and finite"):
                ddp_parabolic_closed_form(bad)
        with pytest.raises(ValueError):
            ddp_single_zero(0.0, 2)
        with pytest.raises(ValueError):
            ddp_single_zero(1.0, 3)


def test_zero_point_is_plain_record():
    z = ZeroPoint(1, 1j)
    assert z.k == 1 and z.t_c == 1j


def _outcome(f, n, alpha):
    try:
        return f(n, alpha)
    except Exception as exc:  # the class is the outcome compared
        return type(exc)


def _outcome_and_message(f, n, alpha):
    try:
        return f(n, alpha), None
    except Exception as exc:
        return type(exc), str(exc)


class TestMemoisedConstants:
    # even N up to 100, as the closed-forms benchmark draws them, and N on
    # both sides of the table memo's bound of 256
    NS = tuple(range(2, 101, 2)) + (254, 256, 258, 1026)

    def test_closed_forms_equal_unmemoised_reference(self):
        alphas = np.geomspace(1e-3, 1e3, 19).tolist() + [1e-300, 1e300]
        pairs = ((ddp_probability, ddp_probability_unmemoised),
                 (glancing_double_crossing, glancing_double_crossing_unmemoised),
                 (glancing_tunneling, glancing_tunneling_unmemoised))
        classes = set()
        for n in self.NS:
            for alpha in alphas:
                for f, ref in pairs:
                    got, want = _outcome(f, n, alpha), _outcome(ref, n, alpha)
                    assert got == want, (f.__name__, n, alpha)
                    classes.add(got if isinstance(got, type) else float)
        # the grid reaches values and each failure the closed forms raise here
        assert classes >= {float, ValueError, OverflowError}

    def test_memo_bounds(self):
        for n in range(2, 2 * 256 + 1, 2):
            ddp_probability(n, 1.0)
        for memo in (ddp_mod._nu, ddp_mod._memo_zero_point_table):
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize == 128
        before = ddp_mod._memo_zero_point_table.cache_info()
        # past the bound the angles come a block of _ANGLE_BLOCK at a time:
        # 8194 and 20002 take two and three blocks
        for n in (258, 1026, 4096, 8194, 20002):
            assert ddp_probability(n, 1.0) == ddp_probability_unmemoised(n, 1.0)
        assert ddp_mod._memo_zero_point_table.cache_info() == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_and_numpy_n_give_the_int_values(self):
        for n, same in ((2, 2.0), (4, np.int64(4)), (6, np.float64(6.0))):
            for alpha in (0.3, 1.0, 7.0):
                assert ddp_probability(same, alpha) == ddp_probability(n, alpha)
                assert zero_points(same, alpha) == zero_points(n, alpha)
                assert glancing_eta(same, alpha) == glancing_eta(n, alpha)
                assert phase_integral(same, alpha, 1) == phase_integral(n, alpha, 1)

        def phase_1(n, alpha):
            return phase_integral(n, alpha, 1)

        # every closed form and the glancing reduction, with alpha an
        # np.float64 too: equal values, and a failure of the same class whose
        # message names the int N and the float alpha, whatever was passed,
        # with no RuntimeWarning from numpy's arithmetic on the way
        glancing = (glancing_double_crossing, glancing_tunneling, glancing_reduced_parameters)
        forms = (ddp_probability, zero_points, glancing_eta, phase_1) + glancing
        outcomes = set()
        for n, same in ((2, 2.0), (4, np.int64(4)), (6, np.float64(6.0))):
            for alpha in (0.3, 1.0, 7.0, 1e-300, 1e300):
                for f in forms:
                    want = _outcome_and_message(f, n, alpha)
                    assert _outcome_and_message(f, same, np.float64(alpha)) == want, (f, n, alpha)
                    outcomes.add(want[0] if isinstance(want[0], type) else float)
        assert outcomes >= {float, OverflowError, ZeroDivisionError}
        # what does not compare as a real number is refused by name too
        for f in forms + (check_glancing, Superparabolic):
            for bad in (2.5, True, 3.0, "4", None, 2 + 0j):
                with pytest.raises(ValueError, match="N must be an even integer"):
                    f(bad, 1.0)
            with pytest.raises(ValueError, match="^alpha must be positive and finite, got '1.0'$"):
                f(4, "1.0")
        with pytest.raises(ValueError, match="^N must be an even integer >= 2, got '4'$"):
            check_glancing("4", 1.0)
