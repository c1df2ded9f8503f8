"""Model family construction, diabatic/adiabatic quantities, reductions."""

import math

import numpy as np
import pytest

from levelcross.models import (
    Parabolic,
    Superparabolic,
    adiabatic_levels,
    model_from_params,
    nonadiabatic_coupling,
)
from levelcross.znt import glancing_reduced_parameters


def _seeded_models(rng):
    out = []
    for _ in range(8):
        n = 2 * int(rng.integers(1, 8))
        out.append(Superparabolic(n, float(rng.uniform(0.05, 5.0))))
    for _ in range(4):
        out.append(
            Parabolic(
                float(rng.uniform(0.1, 4.0)),
                float(rng.uniform(-4.0, 4.0)),
                float(rng.uniform(0.1, 3.0)),
            )
        )
    return out


class TestConstruction:
    def test_superparabolic_rejects_bad_n(self):
        for bad in (1, 3, 0, -2, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="N must be an even integer"):
                Superparabolic(bad, 1.0)

    def test_superparabolic_rejects_bad_alpha(self):
        for bad in (0.0, -1.0, -1e-300, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be positive"):
                Superparabolic(2, bad)

    def test_superparabolic_coerces_integral_float_n(self):
        m = Superparabolic(4.0, 1.5)
        assert m.N == 4 and isinstance(m.N, int)

    def test_parabolic_rejects_bad_a_v0(self):
        with pytest.raises(ValueError):
            Parabolic(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Parabolic(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Parabolic(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            Parabolic(1.0, 1.0, -0.5)

    def test_parabolic_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="A must be positive"):
                Parabolic(bad, 1.0, 1.0)
            with pytest.raises(ValueError, match="B must be finite"):
                Parabolic(1.0, bad, 1.0)
            with pytest.raises(ValueError, match="V0 must be positive"):
                Parabolic(1.0, 1.0, bad)

    def test_parabolic_b_unrestricted(self):
        for b in (-10.0, 0.0, 10.0):
            assert Parabolic(1.0, b, 1.0).B == b

    def test_models_are_frozen(self):
        with pytest.raises(Exception):
            Superparabolic(2, 1.0).alpha = 2.0
        with pytest.raises(Exception):
            Parabolic(1.0, 0.0, 1.0).B = 1.0


class TestDiabatic:
    def test_glancing_point(self):
        m = Superparabolic(2, 1.0)
        assert (m.level(0.0)[0], m.V) == (0.0, 1.0)

    def test_even_power(self):
        m = Superparabolic(6, 0.5)
        assert m.level(-1.0)[0] == 1.0
        assert m.V == 0.5

    def test_parabolic_substitution(self):
        m = Parabolic(1.0, 0.0, 0.5)
        assert (m.level(2.0)[0], m.V) == (2.0, 0.5)

    def test_superparabolic_eps_even_nonnegative(self):
        rng = np.random.default_rng(20240821)
        for m in _seeded_models(rng):
            if not isinstance(m, Superparabolic):
                continue
            for t in rng.uniform(-4.0, 4.0, size=25):
                eps_p = m.level(float(t))[0]
                eps_m = m.level(float(-t))[0]
                assert eps_p >= 0.0
                assert eps_p == pytest.approx(eps_m, rel=1e-14, abs=0.0)
        assert Superparabolic(8, 2.0).level(0.0)[0] == 0.0


class TestAdiabaticLevels:
    def test_gap_at_glancing(self):
        assert adiabatic_levels(Superparabolic(2, 1.0), 0.0) == (-1.0, 1.0)

    def test_sqrt_two(self):
        lo, up = adiabatic_levels(Superparabolic(2, 1.0), 1.0)
        assert up == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert lo == -up

    def test_parabolic_crossing_point(self):
        # eps vanishes at t = sqrt(B/A), leaving the bare coupling
        assert adiabatic_levels(Parabolic(1.0, 1.0, 0.5), 1.0) == (-0.5, 0.5)

    def test_levels_symmetric_and_gapped(self):
        rng = np.random.default_rng(20240822)
        for m in _seeded_models(rng):
            v_min = m.alpha if isinstance(m, Superparabolic) else m.V0
            for t in rng.uniform(-6.0, 6.0, size=30):
                lo, up = adiabatic_levels(m, float(t))
                assert lo == -up
                assert up - lo >= 2.0 * v_min - 1e-15


class TestNonadiabaticCoupling:
    def test_vanishes_at_symmetric_point(self):
        assert nonadiabatic_coupling(Superparabolic(2, 1.0), 0.0) == 0.0

    def test_reference_value(self):
        # V deps/dt / (2 (eps^2+V^2)) = (1*2)/(2*(1+1))
        assert nonadiabatic_coupling(Superparabolic(2, 1.0), 1.0) == pytest.approx(0.5)

    def test_decay_at_large_times(self):
        for n in (2, 6, 10):
            m = Superparabolic(n, 1.3)
            t = 50.0
            expect = n * m.alpha * t ** (n - 1) / (2.0 * t ** (2 * n))
            assert nonadiabatic_coupling(m, t) == pytest.approx(expect, rel=1e-3)
            assert abs(nonadiabatic_coupling(m, 1e4)) < 1e-8

    def test_odd_in_time_for_glancing_family(self):
        rng = np.random.default_rng(20240823)
        for m in _seeded_models(rng):
            if not isinstance(m, Superparabolic):
                continue
            for t in rng.uniform(0.01, 4.0, size=25):
                g = nonadiabatic_coupling(m, float(t))
                assert nonadiabatic_coupling(m, float(-t)) == pytest.approx(
                    -g, rel=1e-13, abs=1e-300
                )

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(20240824)
        for m in _seeded_models(rng):
            v = m.alpha if isinstance(m, Superparabolic) else m.V0
            for t in rng.uniform(-3.0, 3.0, size=12):
                t = float(t)
                h = 1e-6 * max(1.0, abs(t))
                eps = m.level(t)[0]
                deps = (m.level(t + h)[0] - m.level(t - h)[0]) / (2.0 * h)
                fd = v * deps / (2.0 * (eps * eps + v * v))
                assert nonadiabatic_coupling(m, t) == pytest.approx(fd, rel=2e-7, abs=1e-12)

    def test_degenerate_gap_guard(self):
        # unreachable through the public constructors (V > 0 always); build
        # a hollow instance to exercise the error path anyway
        m = object.__new__(Superparabolic)
        object.__setattr__(m, "N", 2)
        object.__setattr__(m, "alpha", 0.0)
        with pytest.raises(ValueError):
            nonadiabatic_coupling(m, 0.0)


class TestReducedParameters:
    def test_parabolic_identity(self):
        # (a^2, b^2) = (A/(8 V0^3), B/(2 V0)): the glancing Hamiltonian
        # eps = t^2, V = alpha written as either family gives one pair ...
        for alpha in (0.1, 0.7, 1.0, 2.5):
            assert Parabolic(2.0, 0.0, alpha).reduced_parameters() == glancing_reduced_parameters(2, alpha)
        rng = np.random.default_rng(20240825)
        for _ in range(10):
            a = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(-5.0, 5.0))
            v0 = float(rng.uniform(0.1, 2.0))
            c = float(rng.uniform(0.2, 5.0))
            # ... so does the time rescaling (A, B, V0) -> (A c^3, B c, V0 c) ...
            assert Parabolic(a * c**3, b * c, v0 * c).reduced_parameters() == pytest.approx(
                Parabolic(a, b, v0).reduced_parameters(), rel=1e-14
            )
            # ... and at V0 = 1/2 the pair is (A, B) itself
            assert Parabolic(a, b, 0.5).reduced_parameters() == (a, b)

    def test_parabolic_a_sq_in_range_when_v0_cubed_is_not(self):
        # V0^3 overflows (then underflows) while a^2 itself is representable
        a_sq, b_sq = Parabolic(1e300, 0.0, 1e110).reduced_parameters()
        assert a_sq == pytest.approx(1.25e-31, rel=1e-14) and b_sq == 0.0
        a_sq, b_sq = Parabolic(1e-300, 0.0, 1e-110).reduced_parameters()
        assert a_sq == pytest.approx(1.25e29, rel=1e-14) and b_sq == 0.0

    def test_glancing_convention(self):
        assert glancing_reduced_parameters(2, 1.0) == (0.25, 0.0)
        a_sq, b_sq = glancing_reduced_parameters(6, 2.0)
        assert a_sq == pytest.approx(1.0 / 32.0, rel=1e-15)
        assert b_sq == 0.0

    def test_same_alpha_same_a_sq_any_n(self):
        ref = glancing_reduced_parameters(2, 0.37)[0]
        for n in (4, 6, 10, 14):
            assert glancing_reduced_parameters(n, 0.37)[0] == ref

    @pytest.mark.parametrize(
        "params, error, quantity",
        [
            ((1.0, 0.0, 1e-300), ZeroDivisionError, "a^2 = A/(8 V0^3)"),  # V0^3 underflows to 0
            ((1.0, 0.0, 1e200), OverflowError, "a^2 = A/(8 V0^3)"),  # V0^3 overflows
            ((1.0, 1e300, 1e-10), OverflowError, "b^2 = B/(2 V0)"),  # b^2 would be inf
            ((1.0, 0.0, 1e110), OverflowError, "a^2 = A/(8 V0^3)"),  # a^2 underflows in steps too
        ],
    )
    def test_parabolic_range_errors_are_named(self, params, error, quantity):
        a, b, v0 = params
        with pytest.raises(error) as info:
            Parabolic(a, b, v0).reduced_parameters()
        assert str(info.value) == (
            f"{quantity} leaves the float range at A={a!r}, B={b!r}, V0={v0!r}"
        )


class TestModelFromParams:
    def test_superparabolic_roundtrip(self):
        m = model_from_params("superparabolic", N="6", alpha="0.5")
        assert m == Superparabolic(6, 0.5)

    def test_parabolic_default_b(self):
        m = model_from_params("Parabolic", A=2.0, V0=1.0)
        assert m == Parabolic(2.0, 0.0, 1.0)

    def test_case_and_whitespace_tolerant(self):
        assert isinstance(model_from_params("  SUPERPARABOLIC ", N=2, alpha=1), Superparabolic)

    def test_non_integral_n_is_refused_not_truncated(self):
        for bad in (2.5, 6.9, "6.5"):
            with pytest.raises(ValueError, match="N must be an even integer"):
                model_from_params("superparabolic", N=bad, alpha=1.0)

    def test_missing_required(self):
        with pytest.raises(ValueError):
            model_from_params("superparabolic", N=2)
        with pytest.raises(ValueError):
            model_from_params("parabolic", A=1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            model_from_params("linear", N=2, alpha=1.0)


class TestFamilyProtocol:
    MODELS = (
        Superparabolic(2, 0.7),
        Superparabolic(6, 1.3),
        Superparabolic(10, 0.4),
        Parabolic(1.3, 2.0, 0.8),
        Parabolic(0.7, -3.0, 1.1),
    )

    def test_derivatives_match_central_differences(self):
        # level_series(t, L)[k] = eps^(k)(t)/k!: orders 0 and 1 are level(t),
        # and (k + 1) times order k + 1 is a central difference of order k;
        # an array of times gives each time's series
        ts = np.array([0.9, 1.7, 3.1])
        h = 1e-5
        for m in self.MODELS:
            series = m.level_series(ts, 9)
            assert series.shape == (9, 3)
            for i, t in enumerate(ts):
                one = m.level_series(float(t), 9)
                assert one == pytest.approx(series[:, i], rel=1e-14)
                assert tuple(one[:2]) == pytest.approx(m.level(float(t)), rel=1e-14)
                fd = (m.level_series(t + h, 9) - m.level_series(t - h, 9)) / (2.0 * h)
                for k in range(8):
                    exact = (k + 1) * one[k + 1]
                    assert abs(exact - fd[k]) <= 1e-7 * max(1.0, abs(exact))

    def test_level_is_even_in_time(self):
        # eps(-t) = eps(t), so eps'(-t) = -eps'(t): with V constant, the
        # propagator's M(-t) = M(t)^T, which lets it solve only [0, T]
        for m in self.MODELS:
            for t in (0.3, 1.0, 1.7, 4.2):
                eps, deps = m.level(t)
                assert m.level(-t) == (eps, -deps)

    def test_coupling_and_floor(self):
        assert Superparabolic(6, 1.3).V == 1.3
        assert Parabolic(1.3, 2.0, 0.8).V == 0.8
        assert Superparabolic(2, 0.25).floor == pytest.approx(0.6, rel=1e-15)
        assert Parabolic(1.0, 3.0, 0.5).floor == pytest.approx(2.4, rel=1e-15)
        # B < 0 never crosses: the floor does not depend on B or A
        assert Parabolic(0.3, -5.0, 0.5).floor == pytest.approx(1.2, rel=1e-15)
