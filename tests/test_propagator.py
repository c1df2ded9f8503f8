"""Propagator tests: window/tail machinery, single window solve, trace output.

The cross-check oracle for the main integrator is a second integrator in
the plain diabatic basis (different formulation, different error
structure); the analytic tail coefficients are checked against finite
differences of the exact integrand.
"""

import cmath
import math

import numpy as np
import pytest

import levelcross.propagator as propagator
from levelcross.ddp import ddp_parabolic_closed_form
from levelcross.models import Parabolic, Superparabolic, diabatic
from levelcross.propagator import (
    PropagationResult,
    PropagatorSettings,
    _half_coupling_ratio,
    _mixing_half_angle,
    _propagate_diabatic,
    _solve_window,
    _tail_coefficient,
    _tail_point,
    propagate,
    propagate_trace,
)


@pytest.fixture(scope="module")
def result_n2_unit():
    return propagate(Superparabolic(2, 1.0))


class TestSettings:
    def test_defaults(self):
        s = PropagatorSettings()
        assert s.rel_tol == 1e-10
        assert s.abs_tol == 1e-12
        assert s.tail_cutoff == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            PropagatorSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            PropagatorSettings(abs_tol=-1e-12)
        with pytest.raises(ValueError):
            PropagatorSettings(tail_cutoff=0.0)
        with pytest.raises(ValueError):
            PropagatorSettings(tail_cutoff=0.5)

    def test_frozen(self):
        with pytest.raises(Exception):
            PropagatorSettings().rel_tol = 1e-3


class TestSpanAndTail:
    def test_half_coupling_ratio(self):
        m = Superparabolic(2, 1.0)
        t = 3.0
        eps, v = diabatic(m, t)
        w2 = eps * eps + v * v
        gamma = v * 2.0 * t / (2.0 * w2)
        assert _half_coupling_ratio(m, t) == pytest.approx(gamma / (2.0 * math.sqrt(w2)), rel=1e-14)

    def test_tail_point_meets_cutoff(self):
        for m in (Superparabolic(2, 1.0), Superparabolic(10, 3.0), Parabolic(0.5, 2.0, 1.3)):
            for cutoff in (1e-4, 1e-6, 1e-8):
                t = _tail_point(m, cutoff)
                assert _half_coupling_ratio(m, t) <= cutoff

    def test_tail_point_grows_as_cutoff_shrinks(self):
        m = Superparabolic(6, 1.0)
        assert _tail_point(m, 1e-8) > _tail_point(m, 1e-4)


def _fd_tail_coefficient(model, t):
    """-v0 + v1 - v2 with v_{m+1} = v_m'/(2iW) taken by central differences."""

    def w(x):
        eps, v = diabatic(model, x)
        return math.hypot(eps, v)

    def gamma(x):
        eps, v = diabatic(model, x)
        if isinstance(model, Superparabolic):
            deps = model.N * x ** (model.N - 1)
        else:
            deps = model.A * x
        return v * deps / (2.0 * (eps * eps + v * v))

    def v0(x):
        return gamma(x) / (2j * w(x))

    h = 1e-4 * t

    def v1(x):
        return (v0(x + h) - v0(x - h)) / (2.0 * h) / (2j * w(x))

    def v2(x):
        return (v1(x + h) - v1(x - h)) / (2.0 * h) / (2j * w(x))

    return -v0(t) + v1(t) - v2(t)


class TestTailCoefficient:
    def test_matches_finite_differences_superparabolic(self):
        for m in (Superparabolic(2, 1.0), Superparabolic(6, 0.7), Superparabolic(10, 2.0)):
            t = _tail_point(m, 1e-6)
            fd = _fd_tail_coefficient(m, t)
            assert _tail_coefficient(m, t) == pytest.approx(fd, rel=1e-5)

    def test_matches_finite_differences_parabolic(self):
        for m in (Parabolic(1.0, 0.0, 1.0), Parabolic(1.3, 2.0, 0.8), Parabolic(0.7, -3.0, 1.1)):
            t = _tail_point(m, 1e-6)
            fd = _fd_tail_coefficient(m, t)
            assert _tail_coefficient(m, t) == pytest.approx(fd, rel=1e-5)

    def test_dominated_by_leading_term(self):
        m = Superparabolic(2, 1.0)
        t = _tail_point(m, 1e-6)
        v0 = _half_coupling_ratio(m, t)
        assert abs(_tail_coefficient(m, t)) == pytest.approx(v0, rel=1e-2)


class TestPropagate:
    def test_vanishing_coupling(self):
        r = propagate(Parabolic(1.0, 0.0, 1e-9))
        assert r.probability < 1e-12

    def test_adiabatic_regime_matches_coherent_sum(self):
        p_num = propagate(Superparabolic(2, 2.5)).probability
        assert p_num == pytest.approx(2.2e-4, rel=0.1)
        assert abs(p_num - ddp_parabolic_closed_form(2.5)) / p_num < 0.15

    def test_regression_value(self, result_n2_unit):
        assert result_n2_unit.probability == pytest.approx(0.3392589574803294, rel=1e-9)

    def test_result_fields(self, result_n2_unit):
        r = result_n2_unit
        assert isinstance(r, PropagationResult)
        assert 0.0 <= r.probability <= 1.0
        assert r.final_norm_drift < 1e-9
        assert r.t_core == _tail_point(Superparabolic(2, 1.0), PropagatorSettings().tail_cutoff)

    def test_basis_agreement_grid(self):
        # the invariant grid: two formulations, error < 1e-6 (observed ~1e-9)
        for n in (2, 6, 10):
            for alpha in (0.3, 1.0, 2.0):
                m = Superparabolic(n, alpha)
                r = propagate(m)
                p_diab = _propagate_diabatic(m)
                assert abs(r.probability - p_diab) < 1e-6
                assert r.final_norm_drift < 1e-9

    def test_parabolic_both_signs_of_b(self):
        r_up = propagate(Parabolic(1.0, 4.0, 1.0))
        r_dn = propagate(Parabolic(1.0, -4.0, 1.0))
        assert r_up.probability == pytest.approx(0.47353450333929537, rel=1e-9)
        assert r_dn.probability == pytest.approx(2.9890030649184634e-6, rel=1e-8)
        assert abs(r_up.probability - _propagate_diabatic(Parabolic(1.0, 4.0, 1.0))) < 1e-6

    def test_window_sufficiency(self, result_n2_unit):
        # a later handover (longer window, smaller tail) must not move P
        r = propagate(Superparabolic(2, 1.0), PropagatorSettings(tail_cutoff=1e-7))
        assert r.t_core > result_n2_unit.t_core
        assert abs(r.probability - result_n2_unit.probability) < 1e-9

    def test_time_reversal_s_matrix(self):
        # starting on the upper level and reading the lower one must give
        # the same transition probability (two-level S-matrix symmetry)
        settings = PropagatorSettings()
        for m in (Superparabolic(2, 1.0), Superparabolic(6, 0.5)):
            t_core = _tail_point(m, settings.tail_cutoff)
            fwd = _solve_window(m, settings, t_core)
            rev = _solve_window(m, settings, t_core, start_upper=True)
            assert abs(fwd.probability - rev.probability) < 1e-8


@pytest.fixture()
def count_solves(monkeypatch):
    calls = []
    real = propagator.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(propagator, "solve_ivp", counting)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: propagate(Superparabolic(2, 1.0)),
        lambda: propagate(Parabolic(1.0, 4.0, 1.0)),
        lambda: propagate_trace(Superparabolic(2, 1.0), sample_count=8),
    ],
    ids=["superparabolic", "parabolic", "trace"],
)
def test_one_solve_per_propagation(count_solves, run):
    run()
    assert len(count_solves) == 1


class TestMixingHalfAngle:
    def test_no_cancellation_far_below_crossing(self):
        # eps = -5e5, V = 1e-3: theta sits 2e-9 below pi, cos(theta/2) = 1e-9
        c, s = _mixing_half_angle(Parabolic(1.0, 1e6, 1e-3), 0.0)
        assert c == pytest.approx(1e-9, rel=1e-12)
        assert abs(c * c + s * s - 1.0) <= 1e-15

    def test_matches_atan2_angle(self):
        for m, t in ((Superparabolic(2, 1.0), 0.3), (Parabolic(1.0, 4.0, 1.0), 0.5),
                     (Parabolic(1.0, 4.0, 1.0), 3.0)):
            eps, v = diabatic(m, t)
            half = 0.5 * math.atan2(v, eps)
            c, s = _mixing_half_angle(m, t)
            assert c == pytest.approx(math.cos(half), rel=1e-13)
            assert s == pytest.approx(math.sin(half), rel=1e-13)


@pytest.fixture(scope="module")
def trace_n2():
    return propagate_trace(Superparabolic(2, 1.0), sample_count=257)


class TestTrace:
    def test_initial_condition_row(self, trace_n2):
        t0, p1, p2, norm = trace_n2[0]
        assert t0 < 0.0
        assert p1 < 1e-4
        assert p2 > 1.0 - 1e-4
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_norm_column(self, trace_n2):
        for _, p1, p2, norm in trace_n2:
            assert norm == pytest.approx(p1 + p2, abs=1e-15)
            assert abs(norm - 1.0) < 1e-9

    def test_uniform_sampling(self, trace_n2):
        ts = [row[0] for row in trace_n2]
        assert len(ts) == 257
        steps = np.diff(ts)
        assert np.allclose(steps, steps[0], rtol=1e-12)
        assert ts[0] == pytest.approx(-ts[-1], rel=1e-12)

    def test_transfer_centered_on_glancing_point(self, trace_n2):
        # populations ring after the passage, so the curve is not pointwise
        # mirror-symmetric; the activity peak must sit at the glancing point
        ts = np.array([r[0] for r in trace_n2])
        p1 = np.array([r[1] for r in trace_n2])
        t_peak = ts[np.argmax(p1)]
        assert abs(t_peak) < 1.0
        p1_at_0 = p1[np.argmin(np.abs(ts))]
        assert p1_at_0 > 0.5 * p1.max()

    def test_endpoint_near_completed_probability(self, trace_n2, result_n2_unit):
        # the residual gap is the two-passage interference removed by the
        # analytic tail completion
        assert abs(trace_n2[-1][1] - result_n2_unit.probability) < 5e-3

    def test_two_samples(self):
        rows = propagate_trace(Superparabolic(2, 1.0), sample_count=2)
        assert len(rows) == 2
        assert rows[0][2] > 1.0 - 1e-4

    def test_rejects_short_sample_count(self):
        with pytest.raises(ValueError):
            propagate_trace(Superparabolic(2, 1.0), sample_count=1)
