"""Propagator tests: window/tail machinery, single window solve, trace output.

The cross-check oracle for the main integrator is a second integrator in
the plain diabatic basis (different formulation, different error
structure); the analytic tail coefficients are checked against finite
differences of the exact integrand.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import levelcross.propagator as propagator
from levelcross.ddp import ddp_parabolic_closed_form
from levelcross.errors import NonConvergence, ToleranceFailure
from levelcross.models import Parabolic, Superparabolic
from levelcross.propagator import (
    PropagationResult,
    PropagatorSettings,
    _mixing_half_angle,
    _tail_coefficient,
    _tail_error,
    _tail_point,
    _tail_terms,
    propagate,
    propagate_trace,
)
from oracles import interaction_rhs, phase_half, propagate_diabatic


@pytest.fixture(scope="module")
def result_n2_unit():
    return propagate(Superparabolic(2, 1.0))


class TestSettings:
    def test_defaults(self):
        s = PropagatorSettings()
        assert s.rel_tol == 1e-10
        assert s.abs_tol == 1e-12
        assert s.tail_tol == 3e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            PropagatorSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            PropagatorSettings(abs_tol=-1e-12)
        for name in ("rel_tol", "abs_tol"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be positive"):
                    PropagatorSettings(**{name: bad})
        for bad in (0.0, -1e-12, 1e-6, 0.5):
            with pytest.raises(ValueError):
                PropagatorSettings(tail_tol=bad)
        assert PropagatorSettings(tail_tol=1e-15).tail_tol == 1e-15

    def test_frozen(self):
        with pytest.raises(Exception):
            PropagatorSettings().rel_tol = 1e-3


HANDOVER_MODELS = (
    Superparabolic(2, 0.2),
    Superparabolic(2, 1.0),
    Superparabolic(2, 2.5),
    Superparabolic(6, 1.0),
    Superparabolic(10, 0.1),
    Superparabolic(10, 3.0),
    Parabolic(1.0, 4.0, 1.0),
    Parabolic(1.0, -4.0, 1.0),
    Parabolic(0.5, 2.0, 1.3),
)


class TestSpanAndTail:
    def test_tail_terms(self):
        # v0 = gamma/(2iW) from the diabatic quantities, and the estimate
        # max(|v2|^2/|v1|, |v1|^3/|v0|^2) once the terms decrease
        m = Superparabolic(2, 1.0)
        t = 3.0
        eps, v = m.level(t)[0], m.V
        w2 = eps * eps + v * v
        gamma = v * 2.0 * t / (2.0 * w2)
        v0, v1, v2 = _tail_terms(m, t)
        assert v0 == pytest.approx(gamma / (2j * math.sqrt(w2)), rel=1e-14)
        assert abs(v0) > abs(v1) > abs(v2)
        a0, a1, a2 = abs(v0), abs(v1), abs(v2)
        assert _tail_error(m, t) == max(a2 * a2 / a1, a1**3 / (a0 * a0))
        assert _tail_coefficient(m, t) == -v0 + v1 - v2

    def test_tail_error_infinite_before_terms_decrease(self):
        # at t = 0.3 the coupling still rises: |v1| > |v0|
        m = Superparabolic(2, 1.0)
        a0, a1, _ = (abs(v) for v in _tail_terms(m, 0.3))
        assert a1 > a0
        assert _tail_error(m, 0.3) == math.inf

    def test_estimate_tracks_third_term(self):
        # |v3| = |v2'|/(2W) from differences of the closed-form v2, at the
        # handover point: the estimate is within a factor 2 of it
        for m in HANDOVER_MODELS + (Parabolic(1.0, -7.6, 1.0), Parabolic(1.0, -10.0, 1.0)):
            t = _tail_point(m, PropagatorSettings().tail_tol)
            h = 1e-3 * t
            dv2 = (_tail_terms(m, t + h)[2] - _tail_terms(m, t - h)[2]) / (2.0 * h)
            v3 = abs(dv2) / (2.0 * math.hypot(m.level(t)[0], m.V))
            assert 0.5 < _tail_error(m, t) / v3 < 2.0

    def test_estimate_survives_sign_change_of_v2(self):
        # for B < 0, v2 changes sign past the floor t = 2; at B = -7.6 it
        # does so at t ~ 2, where |v2|^2/|v1| alone would read ~1.5e-11
        # although |v3| ~ 1.7e-6
        m = Parabolic(1.0, -7.6, 1.0)
        a0, a1, a2 = (abs(v) for v in _tail_terms(m, 2.0))
        assert a2 * a2 / a1 < 3e-11
        assert _tail_error(m, 2.0) > 1e-7
        assert _tail_point(m, PropagatorSettings().tail_tol) > 5.0

    def test_tail_point_meets_tolerance(self):
        for m in HANDOVER_MODELS:
            for tol in (1e-8, 3e-12, 1e-14):
                t = _tail_point(m, tol)
                assert _tail_error(m, t) <= tol

    def test_tail_point_is_first_passing_point(self):
        # at the scan point before t_core the estimate is still above the
        # tolerance, unless t_core is the floor itself; past t_core it
        # keeps falling
        tol = PropagatorSettings().tail_tol
        at_floor = 0
        for m in HANDOVER_MODELS + (Parabolic(1.0, -7.6, 1.0),):
            t = _tail_point(m, tol)
            errs = [_tail_error(m, t * (1.0 + 0.01 * k)) for k in range(6)]
            assert all(later <= earlier for earlier, later in zip(errs, errs[1:]))
            if t == max(m.floor, 1.5):
                at_floor += 1
                continue
            assert t > max(m.floor, 1.5)
            assert _tail_error(m, t / 1.01) > tol
        assert at_floor < len(HANDOVER_MODELS)

    def test_tail_point_never_below_floor(self):
        tol = PropagatorSettings().tail_tol
        for alpha in (0.1, 0.3, 1.0, 2.0, 3.0):
            m = Superparabolic(10, alpha)
            assert _tail_point(m, tol) >= max(m.floor, 1.5)
        # at alpha = 3 the floor already passes and is the handover point
        assert _tail_point(Superparabolic(10, 3.0), tol) == max(Superparabolic(10, 3.0).floor, 1.5)

    def test_tail_point_grows_as_tolerance_shrinks(self):
        m = Superparabolic(6, 1.0)
        assert _tail_point(m, 1e-14) > _tail_point(m, 1e-8)


def _fd_tail_coefficient(model, t):
    """-v0 + v1 - v2 with v_{m+1} = v_m'/(2iW) taken by central differences."""

    def w(x):
        eps, v = model.level(x)[0], model.V
        return math.hypot(eps, v)

    def gamma(x):
        eps, v = model.level(x)[0], model.V
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
            t = _tail_point(m, 1e-8)
            fd = _fd_tail_coefficient(m, t)
            assert _tail_coefficient(m, t) == pytest.approx(fd, rel=1e-5)

    def test_matches_finite_differences_parabolic(self):
        for m in (Parabolic(1.0, 0.0, 1.0), Parabolic(1.3, 2.0, 0.8), Parabolic(0.7, -3.0, 1.1)):
            t = _tail_point(m, 1e-8)
            fd = _fd_tail_coefficient(m, t)
            assert _tail_coefficient(m, t) == pytest.approx(fd, rel=1e-5)

    def test_dominated_by_leading_term(self):
        m = Superparabolic(2, 1.0)
        t = _tail_point(m, PropagatorSettings().tail_tol)
        v0 = abs(_tail_terms(m, t)[0])
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
        m = Superparabolic(2, 1.0)
        assert r.t_core == _tail_point(m, PropagatorSettings().tail_tol)
        assert r.tail_error == _tail_error(m, r.t_core)
        assert 0.0 < r.tail_error <= PropagatorSettings().tail_tol

    def test_basis_agreement_grid(self):
        # the invariant grid: two formulations, error < 1e-6 (observed ~1e-9)
        for n in (2, 6, 10):
            for alpha in (0.3, 1.0, 2.0):
                m = Superparabolic(n, alpha)
                r = propagate(m)
                p_diab = propagate_diabatic(m)
                assert abs(r.probability - p_diab) < 1e-6
                assert r.final_norm_drift < 1e-9

    def test_parabolic_both_signs_of_b(self):
        r_up = propagate(Parabolic(1.0, 4.0, 1.0))
        r_dn = propagate(Parabolic(1.0, -4.0, 1.0))
        assert r_up.probability == pytest.approx(0.47353450333929537, rel=1e-9)
        assert r_dn.probability == pytest.approx(2.9890030649184634e-6, rel=1e-8)
        assert abs(r_up.probability - propagate_diabatic(Parabolic(1.0, 4.0, 1.0))) < 1e-6

    def test_window_sufficiency(self):
        # a far later handover (longer window, smaller tail) must not move P
        for m in (
            Superparabolic(2, 1.0),
            Superparabolic(6, 0.5),
            Superparabolic(10, 0.3),
            Parabolic(1.0, 4.0, 1.0),
            Parabolic(1.0, -4.0, 1.0),
            Parabolic(1.0, -7.6, 1.0),
        ) + tuple(Parabolic(1.0, b, 1.0) for b in (-12.0, -11.0, -10.0, -9.0, -8.0, -7.0, -6.0, -5.0)):
            r = propagate(m)
            tight = propagate(m, PropagatorSettings(tail_tol=1e-15))
            assert tight.t_core > r.t_core
            assert abs(tight.probability - r.probability) < 1e-9

    def test_same_hamiltonian_from_both_families(self):
        # Superparabolic(2, a) and Parabolic(2, 0, a) are both eps = t^2,
        # V = a; only their floors differ (2 sqrt(a) against 2)
        for a in (0.3, 1.0, 2.2):
            sp, pb = Superparabolic(2, a), Parabolic(2.0, 0.0, a)
            assert sp.floor == pytest.approx(2.0 * math.sqrt(a), rel=1e-15)
            assert pb.floor == 2.0
            for t in (1.5, 2.5, 4.0):
                assert (sp.level(t)[0], sp.V) == (pb.level(t)[0], pb.V)
                for x, y in zip(_tail_terms(sp, t), _tail_terms(pb, t)):
                    assert x == pytest.approx(y, rel=1e-14)
            assert abs(propagate(sp).probability - propagate(pb).probability) < 1e-9

    def test_time_rescaling_invariance(self):
        # t -> t/c maps Parabolic(A, B, V0) onto Parabolic(A c^3, B c, V0 c):
        # window, handover and tail all move, P must not
        for m in (
            Parabolic(1.0, 4.0, 1.0),
            Parabolic(1.0, -4.0, 1.0),
            Parabolic(0.5, 2.0, 1.3),
            Parabolic(1.0, 0.0, 0.7),
        ):
            p = propagate(m).probability
            for c in (0.5, 2.0):
                scaled = Parabolic(m.A * c**3, m.B * c, m.V0 * c)
                assert abs(propagate(scaled).probability - p) < 1e-9

    @pytest.mark.parametrize(
        "m",
        [Superparabolic(2, 1.0), Superparabolic(6, 0.5), Parabolic(1.0, 4.0, 1.0), Parabolic(1.0, -4.0, 1.0)],
        ids=["n2", "n6", "b+4", "b-4"],
    )
    def test_half_window_identity(self, m):
        # the identities behind the [0, T] solve, from solves on [-T, 0]:
        # U(0, -T) = U(T, 0)^T and U(-s, 0) = conj(U(s, 0))
        t_core = _tail_point(m, PropagatorSettings().tail_tol)
        rhs = interaction_rhs(m)

        def columns(t0, t1, lam0):
            sols = [
                solve_ivp(rhs, (t0, t1), np.array([*e, lam0], dtype=complex), method="DOP853",
                          rtol=1e-12, atol=1e-14, dense_output=True)
                for e in ((1.0, 0.0), (0.0, 1.0))
            ]
            return lambda t: np.column_stack([sol.sol(t)[:2] for sol in sols])

        forward = columns(0.0, t_core, 0.0)
        u = forward(t_core)
        assert np.allclose(u[:, 1], [-u[1, 0].conjugate(), u[0, 0].conjugate()], rtol=0, atol=1e-9)
        from_left = columns(-t_core, 0.0, -phase_half(m, t_core))
        assert np.abs(from_left(0.0) - u.T).max() < 1e-9
        backward = columns(0.0, -t_core, 0.0)
        for s in np.linspace(0.0, t_core, 7):
            assert np.abs(backward(-s) - forward(s).conj()).max() < 1e-9


def test_real_state_rhs_matches_complex_form():
    # the library's (Re a, Im a, Re b, Im b, Lam) RHS is the oracle's complex one, split
    rng = np.random.default_rng(7)
    for m in (Superparabolic(2, 1.0), Superparabolic(10, 0.3), Parabolic(1.0, -4.0, 1.0)):
        real, cplx = propagator._make_rhs(m), interaction_rhs(m)
        for t, (ar, ai, br, bi, lam) in zip(rng.uniform(-3.0, 3.0, 20), rng.normal(size=(20, 5)) * 3.0):
            da, db, dlam = cplx(t, (complex(ar, ai), complex(br, bi), lam))
            want = [da.real, da.imag, db.real, db.imag, dlam]
            got = real(t, np.array([ar, ai, br, bi, lam]))
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * max(map(abs, want)))


@pytest.fixture()
def count_solves(monkeypatch):
    # one integrator run is one scipy.integrate.ode instance
    calls = []
    real = propagator.ode

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(propagator, "ode", counting)
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


def test_step_cap_raises_non_convergence(monkeypatch):
    monkeypatch.setattr(propagator, "_MAX_STEPS", 10)
    with pytest.raises(NonConvergence, match=r"step cap of 10 steps reached at t = .*, short of t_core = "):
        propagate(Superparabolic(2, 1.0))


def test_integrator_failure_is_tolerance_failure(monkeypatch):
    # any other DOP853 failure keeps scipy's message, and its warning is not shown
    monkeypatch.setattr(propagator, "_make_rhs", lambda model: lambda t, y: (math.nan,) * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailure, match=r"step controller failed: dop853: \w"):
            propagate(Superparabolic(2, 1.0))


class TestMixingHalfAngle:
    def test_no_cancellation_far_below_crossing(self):
        # eps = -5e5, V = 1e-3: theta sits 2e-9 below pi, cos(theta/2) = 1e-9
        c, s = _mixing_half_angle(Parabolic(1.0, 1e6, 1e-3), 0.0)
        assert c == pytest.approx(1e-9, rel=1e-12)
        assert abs(c * c + s * s - 1.0) <= 1e-15

    def test_matches_atan2_angle(self):
        for m, t in ((Superparabolic(2, 1.0), 0.3), (Parabolic(1.0, 4.0, 1.0), 0.5),
                     (Parabolic(1.0, 4.0, 1.0), 3.0)):
            eps, v = m.level(t)[0], m.V
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
        # the residual gap is the diabatic readout at the window end, about
        # half the mixing angle there, which the trace window bounds by 1e-2
        assert abs(trace_n2[-1][1] - result_n2_unit.probability) < 5e-3

    def test_window_ends_past_handover_and_mixing(self, trace_n2):
        m = Superparabolic(2, 1.0)
        t_end = trace_n2[-1][0]
        assert t_end >= _tail_point(m, PropagatorSettings().tail_tol)
        eps, v = m.level(t_end)[0], m.V
        assert math.atan2(v, eps) <= 1e-2 * (1.0 + 1e-12)

    def test_two_samples(self):
        rows = propagate_trace(Superparabolic(2, 1.0), sample_count=2)
        assert len(rows) == 2
        assert rows[0][2] > 1.0 - 1e-4

    def test_rejects_short_sample_count(self):
        with pytest.raises(ValueError):
            propagate_trace(Superparabolic(2, 1.0), sample_count=1)
