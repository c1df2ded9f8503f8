"""Propagator tests: window/tail machinery, single window solve, trace output.

The cross-check oracle for the main integrator is a second integrator in
the plain diabatic basis (different formulation, different error
structure).  The tail series' terms are checked against nested finite
differences in mpmath, and its sum and error against a steepest-descent
contour quadrature of the tail integral.
"""

import cmath
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import levelcross.propagator as propagator
from levelcross.ddp import ddp_probability
from levelcross.errors import NonConvergence, ToleranceFailure
from levelcross.models import Parabolic, Superparabolic
from levelcross.propagator import (
    PropagationResult,
    PropagatorSettings,
    _mixing_half_angle,
    _tail_coefficient,
    _tail_error,
    _tail_point,
    _tail_points,
    _tail_series,
    propagate,
    propagate_trace,
)
from oracles import (
    born_glancing,
    box_limit_probability,
    born_parabolic,
    contour_tail,
    ddp_parabolic_closed_form,
    interaction_rhs,
    legendre_integration_rows,
    phase_half,
    power_series,
    propagate_diabatic,
)


@pytest.fixture(scope="module")
def result_n2_unit():
    return propagate(Superparabolic(2, 1.0))


class TestSettings:
    def test_defaults(self):
        assert PropagatorSettings().tail_tol == 3e-12

    def test_validation(self):
        for bad in (0.0, -1e-12, 1e-6, 0.5, math.inf, math.nan, 1e-18, 1e-300):
            with pytest.raises(ValueError, match=r"tail_tol must lie in \[1e-17, 1e-6\)"):
                PropagatorSettings(tail_tol=bad)
        assert PropagatorSettings(tail_tol=1e-15).tail_tol == 1e-15
        assert PropagatorSettings(tail_tol=1e-17).tail_tol == 1e-17

    def test_frozen(self):
        with pytest.raises(Exception):
            PropagatorSettings().tail_tol = 1e-13


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


def _terms(model, t):
    """The tail terms u_0 .. u_7 of `model` at t (a float or an array of them)."""
    return _tail_series(model.level_series(t, propagator._EPS_ORDERS), model.V)


def _rule(model, t, tol):
    """The handover rule restated at the grid points t: the terms decrease
    up to the first omitted one, |u_0| > ... > |u_6|, and the omitted part,
    hypot(u_6, u_7), is at most tol."""
    u = _terms(model, np.asarray(t))
    size = np.abs(u[:7])
    return np.all(size[:-1] > size[1:], axis=0) & (np.hypot(u[6], u[7]) <= tol)


def _scan_grid(model, t_core):
    """The handover scan's grid from its start up to and including t_core."""
    start = max(model.floor, 1.0)
    grid = start * 1.01 ** np.arange(256)
    return grid[: int(np.flatnonzero(grid == t_core)[0]) + 1]


class TestSpanAndTail:
    def test_tail_terms(self):
        # u_0 = V eps'/(4 W^3), so that v0 = -i u_0 = gamma/(2iW); each later
        # term is the one before differentiated and divided by 2W (central
        # differences of the series' own terms); J sums i^(m+1) u_m for m < 6
        # and the error is hypot(u_6, u_7)
        m = Superparabolic(2, 1.0)
        t = 3.0
        eps, deps = m.level(t)
        w = math.hypot(eps, m.V)
        gamma = m.V * deps / (2.0 * w * w)
        u = _terms(m, t)
        assert u.shape == (8,)
        assert -1j * u[0] == pytest.approx(gamma / (2j * w), rel=1e-14, abs=0)
        h = 1e-4 * t
        du = (_terms(m, t + h) - _terms(m, t - h)) / (2.0 * h)
        for k in range(7):
            assert u[k + 1] == pytest.approx(du[k] / (2.0 * w), rel=1e-6, abs=0)
        assert _tail_coefficient(u) == pytest.approx(sum(1j ** (k + 1) * u[k] for k in range(6)), rel=1e-15, abs=0)
        assert _tail_error(u) == math.hypot(u[6], u[7])

    def test_rule_fails_before_terms_decrease(self):
        # at t = 0.3 the coupling still rises, |u_1| > |u_0|: the series is
        # not yet asymptotic, so no tolerance admits the point
        m = Superparabolic(2, 1.0)
        u = _terms(m, 0.3)
        assert abs(u[1]) > abs(u[0])
        assert not _rule(m, 0.3, 1e300)

    def test_error_term_matches_differences(self):
        # the omitted terms u_6 and u_7 at the handover point equal the
        # differentiated u_5 and u_6 over 2W, by central differences
        for m in HANDOVER_MODELS + (Parabolic(1.0, -7.6, 1.0), Parabolic(1.0, -10.0, 1.0)):
            t, u = _tail_point(m, PropagatorSettings().tail_tol)
            h = 1e-4 * t
            du = (_terms(m, t + h) - _terms(m, t - h)) / (2.0 * h)
            w = math.hypot(m.level(t)[0], m.V)
            want = math.hypot(du[5], du[6]) / (2.0 * w)
            assert _tail_error(u) == pytest.approx(want, rel=1e-4, abs=0)

    def test_error_survives_sign_change_of_u6(self):
        # for B = -7.6, u_6 changes sign past the floor, near t = 3.66, where
        # the terms already decrease: |u_6| alone reads 1.2e-12 there, below
        # tail_tol, although the series' gap to the contour integral is
        # 8.9e-12; hypot(u_6, u_7) keeps the handover past that point
        m = Parabolic(1.0, -7.6, 1.0)
        tol = PropagatorSettings().tail_tol
        grid = max(m.floor, 1.0) * 1.01 ** np.arange(256)
        u = _terms(m, grid)
        k = int(np.flatnonzero(np.diff(np.sign(u[6])) != 0)[-1])
        assert 3.5 < grid[k] < 3.8
        size = np.abs(u[:7, k])
        assert np.all(size[:-1] > size[1:]) and size[-1] < tol
        assert _tail_error(u[:, k]) > tol
        assert abs(_tail_coefficient(u[:, k]) - contour_tail(m, grid[k])) > tol
        t, terms = _tail_point(m, tol)
        assert t > 4.5
        assert abs(_tail_coefficient(terms) - contour_tail(m, t)) <= 1.1 * _tail_error(terms)

    def test_tail_point_meets_tolerance(self):
        for m in HANDOVER_MODELS:
            for tol in (1e-8, 3e-12, 1e-14):
                t, u = _tail_point(m, tol)
                assert _tail_error(u) <= tol
                assert _rule(m, t, tol)
                assert u == pytest.approx(_terms(m, t), rel=1e-14, abs=0)

    def test_tail_point_is_first_passing_point(self):
        # no grid point before t_core passes, unless t_core is the scan's
        # start; past t_core the error keeps falling
        tol = PropagatorSettings().tail_tol
        at_start = 0
        for m in HANDOVER_MODELS + (Parabolic(1.0, -7.6, 1.0),):
            t, u = _tail_point(m, tol)
            errs = [_tail_error(_terms(m, t * (1.0 + 0.01 * k))) for k in range(6)]
            assert all(later <= earlier for earlier, later in zip(errs, errs[1:]))
            grid = _scan_grid(m, t)
            assert _rule(m, grid[-1], tol)
            if len(grid) == 1:
                at_start += 1
                continue
            assert not _rule(m, grid[:-1], tol).any()
        assert at_start < len(HANDOVER_MODELS)

    def test_tail_point_never_below_floor(self):
        tol = PropagatorSettings().tail_tol
        for alpha in (0.1, 0.3, 1.0, 2.0, 3.0):
            m = Superparabolic(10, alpha)
            assert _tail_point(m, tol)[0] >= max(m.floor, 1.0)
        # at alpha = 3 the floor 1.2 alpha^(1/N) = 1.34 no longer sets the
        # window: the series first passes at 1.73, past the floor
        m = Superparabolic(10, 3.0)
        t = _tail_point(m, tol)[0]
        assert m.floor == pytest.approx(1.2 * 3.0**0.1, rel=1e-15)
        assert 1.7 < t < 1.8
        assert not _rule(m, _scan_grid(m, t)[:-1], tol).any()

    def test_tail_point_grows_as_tolerance_shrinks(self):
        m = Superparabolic(6, 1.0)
        assert _tail_point(m, 1e-14)[0] > _tail_point(m, 1e-8)[0]


class TestBatchedScan:
    def test_batch_matches_lone_scans(self):
        # one mixed batch of both families at N = 2, 6 and 50, with V^2
        # underflowing (alpha = 1e-300) and the series (alpha = 1e300,
        # B = 1e300) or the level itself (N = 200) overflowing: each member
        # gets the lone scan's handover to the bit, or its failure with the
        # same type and message, in input order
        models = [
            Superparabolic(2, 0.2), Superparabolic(6, 1.0), Superparabolic(2, 1e-300), Superparabolic(50, 5.0),
            Parabolic(1.0, -7.6, 1.0), Superparabolic(2, 1e300), Parabolic(1.0, 4.0, 1.0), Superparabolic(6, 1e300),
            Parabolic(1.0, 1e300, 1.0), Superparabolic(50, 0.3), Parabolic(0.5, 2.0, 1.3), Superparabolic(6, 1e-300),
            Superparabolic(200, 1e300), Superparabolic(2, 2.5),
        ]
        tol = PropagatorSettings().tail_tol
        handovers = {}
        for max_angle in (math.pi, propagator._TRACE_MIXING_ANGLE):
            batch = _tail_points(models, tol, max_angle)
            assert len(batch) == len(models)
            failures = []
            for m, got in zip(models, batch):
                try:
                    t, terms = _tail_point(m, tol, max_angle)
                except (ZeroDivisionError, OverflowError, NonConvergence) as exc:
                    assert type(got) is type(exc) and str(got) == str(exc)
                    failures.append(type(exc))
                else:
                    assert got[0] == t and got[1].tobytes() == terms.tobytes()
            assert failures == [ZeroDivisionError, OverflowError, OverflowError, OverflowError, ZeroDivisionError,
                                OverflowError]
            handovers[max_angle] = [h[0] for h in batch if not isinstance(h, Exception)]
        # the trace's mixing-angle test moves some handovers out, none in
        wide, narrow = handovers.values()
        assert all(a <= b for a, b in zip(wide, narrow)) and wide != narrow

    def test_pass_bound(self, monkeypatch):
        # a lone model scans 256 grid points in its first pass; a batch
        # scans a block of rows per pending member that shrinks as more
        # members pend, to 4096 points in all but never under 16 rows
        passes = []
        real = propagator._tail_series

        def recording(eps, v):
            passes.append(eps.shape[1:])
            return real(eps, v)

        monkeypatch.setattr(propagator, "_tail_series", recording)
        _tail_point(Superparabolic(2, 1.0), PropagatorSettings().tail_tol)
        assert passes == [(1, 256)]
        passes.clear()
        alphas = np.geomspace(0.1, 3.0, 512).tolist()
        models = [Superparabolic(n, a) for a in alphas for n in (2, 10)]
        batch = _tail_points(models, PropagatorSettings().tail_tol)
        assert not any(isinstance(h, Exception) for h in batch)
        assert passes[0] == (1024, 16) and len(passes) > 1
        for (pending, rows), (later, _) in zip(passes, passes[1:] + [(0, 0)]):
            assert rows == max(16, min(256, 4096 // pending)) and pending * rows <= 16 * 1024
            assert later <= pending


class TestSeriesKernels:
    @pytest.mark.parametrize("count", [1, 4, 300])
    def test_stacked_powers_match_single_exponent_recursions(self, count):
        # s = eps^2 + V^2 as the tail series forms it, for `count` models of
        # both families on a row of 7 grid points each, and at one point
        families = [Superparabolic(2, 1.0), Superparabolic(10, 0.3), Parabolic(1.0, -4.0, 1.0),
                    Parabolic(0.5, 2.0, 1.3)]
        models = [families[i % 4] for i in range(count)]
        t = 1.3 * 1.01 ** np.arange(7)
        eps = np.array([m.level_series(t * (1.0 + 0.01 * i), propagator._EPS_ORDERS) for i, m in enumerate(models)])
        v = np.array([m.V for m in models])[:, None]
        for series, coupling in ((eps.transpose(1, 0, 2), v), (eps[0, :, 0], models[0].V)):
            n = len(series) - 1
            s = propagator._mul(series[:n], series[:n])
            s[0] += coupling * coupling
            stacked = propagator._powers(s)
            for got, p in zip(stacked, (-0.5, -1.5)):
                want = power_series(s, p)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_readout_rows_match_legendre_rows(self):
        # the rows _dense_output reads a trace with: at t = 0, at every
        # step's start, on every node of one step, and between them
        m = Superparabolic(2, 1.0)
        handover = _tail_point(m, PropagatorSettings().tail_tol)
        _, starts, half, _, _, _ = propagator._resolve([(m, handover)], PropagatorSettings())
        nodes = propagator._collocation()[0]
        times = np.concatenate(([0.0], starts, starts[2] + half[2] * (1.0 + nodes),
                                np.linspace(0.0, handover[0], 101)))
        i = np.searchsorted(starts, times, side="right") - 1
        y = (times - (starts[i] + half[i])) / half[i]
        ys = np.concatenate((y, [-1.0, 1.0], nodes))
        got = propagator._integration_rows(ys)
        want = legendre_integration_rows(ys, propagator._NODES)
        assert np.abs(got - want).max() <= 1e-14
        # t = 0 and the exact node points take their point's row, not 0/0
        assert not got[0].any() and not got[-propagator._NODES - 2].any()
        assert np.array_equal(got[-propagator._NODES :], propagator._collocation()[3].T)


def _mp_tail_terms(model, t, count):
    """u_0 .. u_{count-1} at t by nested central differences in mpmath at 20
    digits: u_0 = V eps'/(4 W^3), u_{m+1} = u_m'/(2W).  Shares only
    model.level with the series."""
    v = mpmath.mpf(model.V)

    def w(x):
        return mpmath.sqrt(model.level(x)[0] ** 2 + v * v)

    def u0(x):
        return v * model.level(x)[1] / (4 * w(x) ** 3)

    terms = [u0]
    for _ in range(count - 1):
        terms.append(lambda x, f=terms[-1]: mpmath.diff(f, x) / (2 * w(x)))
    with mpmath.workdps(20):
        return [float(f(mpmath.mpf(t))) for f in terms]


class TestTailCoefficient:
    def test_matches_finite_differences_superparabolic(self):
        for m in (Superparabolic(2, 1.0), Superparabolic(10, 2.0)):
            t = _tail_point(m, 1e-8)[0]
            want = _mp_tail_terms(m, t, 8)
            assert _terms(m, t) == pytest.approx(want, rel=1e-13, abs=0)

    def test_matches_finite_differences_parabolic(self):
        for m in (Parabolic(1.3, 2.0, 0.8), Parabolic(0.7, -3.0, 1.1)):
            t = _tail_point(m, 1e-8)[0]
            want = _mp_tail_terms(m, t, 8)
            assert _terms(m, t) == pytest.approx(want, rel=1e-13, abs=0)

    def test_dominated_by_leading_term(self):
        m = Superparabolic(2, 1.0)
        t, u = _tail_point(m, PropagatorSettings().tail_tol)
        assert abs(_tail_coefficient(u)) == pytest.approx(abs(u[0]), rel=1e-2, abs=0)

    @pytest.mark.parametrize(
        "m",
        [Superparabolic(2, 0.5), Superparabolic(2, 2.0), Superparabolic(6, 1.0),
         Superparabolic(10, 2.0), Parabolic(1.0, 4.0, 0.5), Parabolic(1.0, -4.0, 0.5)],
        ids=["n2-a0.5", "n2-a2", "n6-a1", "n10-a2", "b+4", "b-4"],
    )
    def test_error_bounds_gap_to_contour_oracle(self, m):
        # the series' distance from the steepest-descent quadrature of the
        # same tail integral is its own error, not a third more; and it
        # shrinks with tail_tol
        gaps = []
        for tol in (PropagatorSettings().tail_tol, 3e-14):
            t, u = _tail_point(m, tol)
            gap = abs(_tail_coefficient(u) - contour_tail(m, t))
            assert 0.5 * _tail_error(u) <= gap <= 1.1 * _tail_error(u)
            gaps.append(gap)
        assert gaps[1] < 0.1 * gaps[0]


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
        t, u = _tail_point(Superparabolic(2, 1.0), PropagatorSettings().tail_tol)
        assert r.t_core == t
        assert r.tail_error == _tail_error(u)
        assert 0.0 < r.tail_error <= PropagatorSettings().tail_tol
        assert isinstance(r.nfev, int) and isinstance(r.n_steps, int)
        assert 0 < r.n_steps < r.nfev

    @pytest.mark.parametrize("times", [(), (0.5, 1.0, 2.0)], ids=["window", "trace-stops"])
    def test_nfev_counts_coupling_evaluations(self, times):
        # nfev is every time point the solve passes through model.level,
        # rejected steps included (320 here, with or without read-out
        # times), at _NODES per step
        m = Superparabolic(2, 1.0)
        handover = _tail_point(m, PropagatorSettings().tail_tol)
        counted = CountingModel(m)
        r, _, states = propagator._solve_window([(counted, handover)], PropagatorSettings(), times)[0]
        assert r.nfev == counted.points
        assert r.n_steps * propagator._NODES <= r.nfev < 400
        assert all(len(column) == len(times) for column in states)

    def test_basis_agreement_grid(self):
        # the invariant grid: two formulations, two integrators and two
        # tails, with the oracle run tighter than the default so that its
        # own error does not count
        for n in (2, 6, 10):
            for alpha in (0.3, 1.0, 2.0):
                m = Superparabolic(n, alpha)
                r = propagate(m)
                p_diab = propagate_diabatic(m, rtol=1e-12, atol=1e-14)
                assert abs(r.probability - p_diab) < 1e-10

    @pytest.mark.parametrize(
        "m",
        [Parabolic(1.0, 4.0, 1.0), Parabolic(1.0, -4.0, 1.0), Parabolic(1.0, 4.0, 3e-3),
         Parabolic(1.0, -4.0, 3e-3), Superparabolic(200, 1.0), Superparabolic(100, 10.0),
         Superparabolic(200, 10.0)],
        ids=["b+4", "b-4", "born-b+4", "born-b-4", "n200", "n100-a10", "n200-a10"],
    )
    def test_agrees_with_diabatic_oracle(self, m):
        # the basis agreement beyond the glancing grid (observed gaps
        # <= 2.5e-11).  At N >= 100 the window must end close to
        # alpha^(1/N), where the floor's margin 1 + 10/N puts it: the phase
        # grows like t^(N+1) and reaches 4e13 rad at t = 1.2 for N = 200
        p = propagate(m).probability
        assert abs(p - propagate_diabatic(m, rtol=1e-12, atol=1e-14)) < 1e-10

    def test_tighter_step_rule_moves_p_little(self):
        # the trailing coefficients overstate a converged step's error, so
        # on a fixed window the default tail_tol already gives P within
        # 1e-14 of steps resolved to 1e-15 (observed <= 1.3e-15); through
        # propagate a tighter tail_tol would move the window as well
        for m in (Superparabolic(2, 0.3), Superparabolic(2, 1.0), Superparabolic(2, 6.0),
                  Superparabolic(6, 1.0), Superparabolic(10, 2.0), Parabolic(1.0, 4.0, 1.0),
                  Parabolic(1.0, -4.0, 1.0), Parabolic(1.0, 4.0, 3e-3)):
            handover = _tail_point(m, 3e-12)
            ((loose, _, _),) = propagator._solve_window([(m, handover)], PropagatorSettings())
            ((tight, _, _),) = propagator._solve_window([(m, handover)], PropagatorSettings(tail_tol=1e-15))
            assert tight.nfev > loose.nfev
            assert abs(tight.probability - loose.probability) <= 1e-14

    def test_high_n_within_float_range(self):
        # N = 200: the three-term tail's eps'^3 and s^4 overflowed here; the
        # series' Taylor coefficients stay in range (P agrees with a run at
        # tail_tol 3e-14 within 2e-15)
        r = propagate(Superparabolic(200, 1.0))
        assert r.probability == pytest.approx(0.79491987, abs=1e-7)
        assert r.tail_error <= PropagatorSettings().tail_tol

    def test_parabolic_both_signs_of_b(self):
        r_up = propagate(Parabolic(1.0, 4.0, 1.0))
        r_dn = propagate(Parabolic(1.0, -4.0, 1.0))
        assert r_up.probability == pytest.approx(0.47353450333929537, rel=1e-9)
        assert r_dn.probability == pytest.approx(2.9890030649184634e-6, rel=1e-8)
        assert abs(r_up.probability - propagate_diabatic(Parabolic(1.0, 4.0, 1.0))) < 1e-8

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
        # V = a; only their floors differ (1.2 sqrt(a) against 1.2)
        for a in (0.3, 1.0, 2.2):
            sp, pb = Superparabolic(2, a), Parabolic(2.0, 0.0, a)
            assert sp.floor == pytest.approx(1.2 * math.sqrt(a), rel=1e-15)
            assert pb.floor == pytest.approx(1.2, rel=1e-15)
            for t in (1.5, 2.5, 4.0):
                assert (sp.level(t)[0], sp.V) == (pb.level(t)[0], pb.V)
                # every tail term: the six summed and the two omitted
                assert _terms(sp, t) == pytest.approx(_terms(pb, t), rel=1e-14, abs=0)
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
        t_core = _tail_point(m, PropagatorSettings().tail_tol)[0]
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


def test_window_states_match_interaction_rhs():
    # U(t, 0) (1, 0) and Lam(t) at the trace stops and at t_core, from the
    # chained collocation steps, against one solve_ivp run of the oracle's
    # complex interaction-picture equations over [0, t_core]
    for m in (Superparabolic(2, 1.0), Superparabolic(10, 0.3), Parabolic(1.0, -4.0, 1.0),
              Parabolic(1.0, 4.0, 0.05)):
        handover = _tail_point(m, PropagatorSettings().tail_tol)
        t_core = handover[0]
        times = [0.0, 0.1 * t_core, 0.5 * t_core, t_core]
        _, _, states = propagator._solve_window([(m, handover)], PropagatorSettings(), times)[0]
        sol = solve_ivp(interaction_rhs(m), (0.0, t_core), np.array([1.0, 0.0, 0.0], dtype=complex),
                        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=times)
        for a, b, lam, want in zip(*states, sol.y.T):
            assert abs(a - want[0]) < 1e-9 and abs(b - want[1]) < 1e-9
            assert lam == pytest.approx(want[2].real, rel=1e-12, abs=1e-12)


class CountingModel:
    """A model that counts the time points its level is evaluated at."""

    def __init__(self, model, fail=None):
        self.model, self.points, self.fail = model, 0, fail

    def __getattr__(self, name):
        return getattr(self.model, name)

    def __repr__(self):
        return f"CountingModel({self.model!r})"

    def level(self, t):
        self.points += np.size(t)
        if self.fail is not None and self.points > 16:
            raise self.fail
        return self.model.level(t)


@pytest.fixture()
def count_solves(monkeypatch):
    # one solve is one call of the collocation grid's refinement
    calls = []
    real = propagator._resolve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(propagator, "_resolve", counting)
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


def test_trace_solve_independent_of_sample_count():
    # the samples are read off the window's steps, not made step edges, so
    # a trace's solve is its window's whatever the sample count
    m = Parabolic(1.0, 4.0, 1.0)
    handover = _tail_point(m, PropagatorSettings().tail_tol, 1e-2)
    ((window, _, _),) = propagator._solve_window([(m, handover)], PropagatorSettings())
    for n in (8, 257, 1001):
        traced, _ = propagator._propagate_traced(m, PropagatorSettings(), n)
        assert (traced.nfev, traced.n_steps) == (window.nfev, window.n_steps)


def test_node_cap_raises_non_convergence(monkeypatch):
    # the cap is checked before a pass evaluates its nodes, so the solve
    # never evaluates more than the cap
    monkeypatch.setattr(propagator, "_MAX_NODES", 300)
    counted = CountingModel(Superparabolic(2, 1.0))
    handover = _tail_point(counted.model, PropagatorSettings().tail_tol)
    with pytest.raises(NonConvergence,
                       match=r"node cap of 300 nodes reached with \d+ steps of \[0, .*\] unresolved"):
        propagator._solve_window([(counted, handover)], PropagatorSettings())
    assert 0 < counted.points <= 300


def test_integrator_failure_is_tolerance_failure(monkeypatch):
    # a Picard iteration that has not converged within its sweeps is named
    monkeypatch.setattr(propagator, "_PICARD_ITERATIONS", 2)
    with pytest.raises(ToleranceFailure, match=r"collocation iteration did not converge in 2 sweeps"):
        propagate(Superparabolic(2, 1.0))


def test_level_exception_reaches_caller_as_itself():
    class LevelBroke(RuntimeError):
        pass

    m = CountingModel(Superparabolic(2, 1.0), fail=LevelBroke("level failed"))
    handover = _tail_point(m.model, PropagatorSettings().tail_tol)
    with pytest.raises(LevelBroke, match="level failed"):
        propagator._solve_window([(m, handover)], PropagatorSettings())


def test_non_finite_coupling_is_named_without_warnings():
    # eps^2 overflows inside the window: an OverflowError naming t, and no
    # numpy RuntimeWarning on the way
    class Steep(CountingModel):
        def level(self, t):
            return 1e200 * t, 1e200 + 0.0 * t

    m = Steep(Superparabolic(2, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"leaves the float range at t = "):
            propagator._solve_window([(m, (2.0, np.zeros(8)))], PropagatorSettings())


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
        assert t_end >= _tail_point(m, PropagatorSettings().tail_tol)[0]
        eps, v = m.level(t_end)[0], m.V
        assert math.atan2(v, eps) <= 1e-2 * (1.0 + 1e-12)

    def test_two_samples(self):
        rows = propagate_trace(Superparabolic(2, 1.0), sample_count=2)
        assert len(rows) == 2
        assert rows[0][2] > 1.0 - 1e-4

    @pytest.mark.parametrize("count", [1, 5.5, math.nan, 8.0, "8"])
    def test_rejects_short_sample_count(self, monkeypatch, count):
        # refused before the handover scan, whose stand-in would raise TypeError
        monkeypatch.setattr(propagator, "_tail_point", None)
        with pytest.raises(ValueError, match="sample_count"):
            propagate_trace(Superparabolic(2, 1.0), sample_count=count)

    @pytest.mark.parametrize("n", [256, 257])
    def test_samples_exactly_odd(self, monkeypatch, n):
        # t_i = -t_(n-1-i) to the bit, so the readout is asked for each |t|
        # once, not twice a few ulp apart, and the samples at t and -t share
        # one U(|t|, 0), conjugated for t < 0
        real, read = propagator._solve_window, []

        def reading(members, settings, times=()):
            read.append(list(times))
            return real(members, settings, times)

        monkeypatch.setattr(propagator, "_solve_window", reading)
        ts = [row[0] for row in propagate_trace(Superparabolic(2, 1.0), sample_count=n)]
        assert all(a == -b for a, b in zip(ts, ts[::-1]))
        (times,) = read
        assert len(set(times)) == len(times) == math.ceil(n / 2)
        assert times == ts[n // 2 :] == [-t for t in ts[: math.ceil(n / 2)]][::-1]

    def test_oversize_trace_refused_before_any_work(self, monkeypatch):
        # 10^7 samples are 5 x 10^6 distinct |t|, whose readout weights
        # (_NODES each) pass the node cap on their own: refused before the
        # handover scan and the sample grid
        monkeypatch.setattr(propagator, "_tail_point", None)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match=r"sample_count=10000000 .* node cap of 4194304 nodes"):
            propagate_trace(Superparabolic(2, 1.0), sample_count=10**7)
        assert time.perf_counter() - start < 0.5
        # the limit is 2 _MAX_NODES / _NODES samples: one more is refused,
        # while the limit itself passes on to the (stand-in) handover scan
        largest = 2 * propagator._MAX_NODES // propagator._NODES
        with pytest.raises(NonConvergence, match="node cap"):
            propagate_trace(Superparabolic(2, 1.0), sample_count=largest + 1)
        with pytest.raises(TypeError):
            propagate_trace(Superparabolic(2, 1.0), sample_count=largest)


class TestBornOracle:
    """Weak coupling: P tends to the first-order (Born) closed form, an
    oracle that shares no code with the tail or the ODE."""

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_glancing_limit_and_alpha_squared_slope(self, n):
        dev = {
            a: propagate(Superparabolic(n, a)).probability / born_glancing(n, a) - 1.0
            for a in (1e-3, 1e-2)
        }
        assert abs(dev[1e-3]) < 1e-5
        # P/P1 - 1 = -c alpha^2: ten times alpha, a hundred times the deviation
        assert 90.0 <= dev[1e-2] / dev[1e-3] <= 110.0

    @pytest.mark.parametrize("B", [-4.0, 0.0, 4.0])
    def test_parabolic_limit(self, B):
        p = propagate(Parabolic(1.0, B, 3e-3)).probability
        assert abs(p / born_parabolic(1.0, B, 3e-3) - 1.0) < 5e-4


class TestBoxLimit:
    """Large N: eps = t^N becomes a box, and P tends to sin^2(2 alpha), a
    limit that shares no code with any route (oracles.box_limit_probability).

    The bounds are measured: the exact P approaches the limit from one side
    for each alpha, its error shrinks by a factor of 0.57-0.65 per doubling of
    N (slower than 1/N), and the coherent DDP sum is within 1/N of the limit
    (N times its error is at most 0.84 here)."""

    NS = (50, 100, 200, 400, 800)

    @pytest.mark.parametrize("alpha, sign", [(0.3, 1.0), (1.0, -1.0), (1.3, -1.0)])
    def test_exact_and_ddp_routes_tend_to_the_box(self, alpha, sign):
        box = box_limit_probability(alpha)
        err = [propagate(Superparabolic(n, alpha)).probability - box for n in self.NS]
        assert all(sign * e > 0.0 for e in err)
        assert all(abs(e2) <= 0.66 * abs(e1) for e1, e2 in zip(err, err[1:]))
        assert abs(err[-1]) <= 0.016
        for n in self.NS:
            assert abs(ddp_probability(n, alpha) - box) <= 1.0 / n
