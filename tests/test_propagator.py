"""Propagator tests: window/tail machinery, single window solve, trace output.

The cross-check oracle for the main integrator is a second integrator in
the plain diabatic basis (different formulation, different error
structure).  The tail series' terms are checked against nested finite
differences in mpmath, and its sum and error against a steepest-descent
contour quadrature of the tail integral.
"""

import cmath
import functools
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
    step_maps_two_sided,
    tail_series_full,
)


@pytest.fixture(scope="module")
def result_n2_unit():
    return propagate(Superparabolic(2, 1.0))


class TestSettings:
    def test_defaults(self):
        assert PropagatorSettings().tail_tol == 3e-12

    def test_validation(self):
        # a string or None is refused by name, not by a bare TypeError
        for bad in (0.0, -1e-12, 1e-6, 0.5, math.inf, math.nan, 1e-18, 1e-300, "1e-12", None):
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
    return _tail_series(model.level_series(t, propagator._EPS_ORDERS), model.V, model.degree)


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


def _by_level(models):
    """The indices of `models` grouped by level, (family, level_key), in the
    order the levels first appear."""
    groups = {}
    for i, m in enumerate(models):
        groups.setdefault((type(m), m.level_key), []).append(i)
    return list(groups.values())


def _scan_by_level(models, tol):
    """_tail_points' outcome for each of `models`, in order, scanning one
    level at a time."""
    out = [None] * len(models)
    for rows in _by_level(models):
        for i, handover in zip(rows, _tail_points([models[i] for i in rows], tol)):
            out[i] = handover
    return out


def _predicted_index(models, tol):
    """The grid index k* that the scan predicts for each of `models`, one
    level at a time."""
    out = np.empty(len(models))
    for rows in _by_level(models):
        group = [models[i] for i in rows]
        starts = np.array([max(m.floor, 1.0) for m in group])
        out[rows] = propagator._handover_index(group[0], np.array([m.V for m in group]), starts, tol)
    return out


def _handover_outcomes(handovers):
    """Each handover as (t_core, bytes of its terms), or its failure as (type, message)."""
    return [(type(h), str(h)) if isinstance(h, Exception) else (h[0], h[1].tobytes()) for h in handovers]


class TestBatchedScan:
    # one mixed batch of both families at N = 2, 6 and 50, with V^2
    # underflowing (alpha = 1e-300) and the series (alpha = 1e300,
    # B = 1e300) or the level itself (N = 200) overflowing
    MIXED = (
        Superparabolic(2, 0.2), Superparabolic(6, 1.0), Superparabolic(2, 1e-300), Superparabolic(50, 5.0),
        Parabolic(1.0, -7.6, 1.0), Superparabolic(2, 1e300), Parabolic(1.0, 4.0, 1.0), Superparabolic(6, 1e300),
        Parabolic(1.0, 1e300, 1.0), Superparabolic(50, 0.3), Parabolic(0.5, 2.0, 1.3), Superparabolic(6, 1e-300),
        Superparabolic(200, 1e300), Superparabolic(2, 2.5),
    )

    def test_batch_matches_lone_scans(self):
        # each member, scanned with the others of its level, gets the lone
        # scan's handover to the bit, or its failure with the same type and
        # message
        models = list(self.MIXED)
        tol = PropagatorSettings().tail_tol
        batch = _scan_by_level(models, tol)
        assert len(batch) == len(models)
        failures = []
        for m, got in zip(models, batch):
            try:
                t, terms = _tail_point(m, tol)
            except (ZeroDivisionError, OverflowError, NonConvergence) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                failures.append(type(exc))
            else:
                assert got[0] == t and got[1].tobytes() == terms.tobytes()
        assert failures == [ZeroDivisionError, OverflowError, OverflowError, OverflowError, ZeroDivisionError,
                            OverflowError]
        # a trace's window end is a later point of the same grid, where the
        # mixing angle is small: some move out, none in
        found = [(m, h[0]) for m, h in zip(models, batch) if not isinstance(h, Exception)]
        ends = [propagator._trace_end(m, t) for m, t in found]
        assert all(t <= end for (_, t), end in zip(found, ends)) and [t for _, t in found] != ends
        for (m, _), end in zip(found, ends):
            assert end in max(m.floor, 1.0) * propagator._scan_grid()

    def test_block_size_never_changes_a_handover(self, monkeypatch):
        # a point's terms do not depend on the block that holds it: a first
        # pass of 24 points (prediction 0), today's full block (prediction
        # _SCAN_POINTS) and the real prediction give every member the same
        # handover to the bit, or the same failure
        models = list(self.MIXED)
        tol = PropagatorSettings().tail_tol
        runs = [_handover_outcomes(_scan_by_level(models, tol))]
        for predicted in (0, propagator._SCAN_POINTS):
            monkeypatch.setattr(propagator, "_handover_index",
                                lambda level, v, *args, k=predicted: np.full(len(v), float(k)))
            runs.append(_handover_outcomes(_scan_by_level(models, tol)))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_predicted_handover_is_near_the_scan(self):
        # the leading-order prediction k* lands within one grid point of the
        # handover on the glancing acceptance grids, and the first pass's
        # margin covers its shortfall on the parabolic family, so that a
        # change to the series or the floor that breaks it fails here
        # instead of costing a second pass
        tol = PropagatorSettings().tail_tol

        def indices(models):
            predicted = _predicted_index(models, tol)
            assert np.isfinite(predicted).all()
            found = []
            for m, (t, _) in zip(models, _scan_by_level(models, tol)):
                grid = max(m.floor, 1.0) * propagator._scan_grid()
                found.append(int(np.flatnonzero(grid == t)[0]))
            return np.array(found), predicted

        for n, alphas in ((2, np.linspace(0.2, 2.5, 300)), (6, np.geomspace(0.1, 3.0, 300)),
                          (10, np.geomspace(0.1, 3.0, 300))):
            k, predicted = indices([Superparabolic(n, float(a)) for a in alphas])
            assert k.min() > 0 and np.abs(k - predicted).max() <= 1
        k, predicted = indices([Parabolic(1.0, float(b), 1.0) for b in np.linspace(-12.0, 10.0, 89)])
        assert (k <= predicted + propagator._SCAN_MARGIN).all()

    def test_prediction_falls_back_without_raising(self, monkeypatch):
        # a level out of range or a non-positive leading coefficient gives
        # a NaN or infinite k*, and the scan keeps the full block
        class Flat(CountingModel):
            def level(self, t):
                return 0.0 * t, 0.0 * t

        class Falling(CountingModel):
            def level(self, t):
                return -t * t, -2.0 * t

        tol = PropagatorSettings().tail_tol
        for m in (Parabolic(1e300, 0.0, 1.0), Flat(Superparabolic(2, 1.0)), Falling(Superparabolic(2, 1.0))):
            assert not np.isfinite(_predicted_index([m], tol)).all()
        passes = []
        real = propagator._tail_series
        monkeypatch.setattr(propagator, "_tail_series", lambda eps, *args: passes.append(eps.shape) or real(eps, *args))
        with pytest.raises(OverflowError, match="tail series overflows"):
            _tail_point(Parabolic(1e300, 0.0, 1.0), tol)
        assert passes == [(propagator._EPS_ORDERS, 1, 256)]

    def test_pass_bound(self, monkeypatch):
        # the first pass ends 24 grid points past the latest predicted
        # handover (16 points at least), where that is sooner than its full
        # block, for a trace's scan too.  Later passes scan a block of rows
        # per pending member that shrinks as more members pend, to 4096
        # points in all but never under 16 rows
        passes = []
        real = propagator._tail_series

        def recording(eps, v, degree):
            passes.append(eps.shape[1:])
            return real(eps, v, degree)

        monkeypatch.setattr(propagator, "_tail_series", recording)
        tol = PropagatorSettings().tail_tol
        m = Superparabolic(2, 1.0)
        (k,) = _predicted_index([m], tol)
        _tail_point(m, tol)
        assert passes == [(1, k + 24)] and k + 24 < 256
        passes.clear()
        propagate_trace(m, sample_count=8)
        assert passes == [(1, k + 24)]
        passes.clear()
        panel = [Superparabolic(10, a) for a in (0.1, 0.3, 1.0, 3.0)]
        _tail_points(panel, tol)
        assert passes == [(4, int(_predicted_index(panel, tol).max()) + 24)]
        alphas = np.geomspace(0.1, 3.0, 1024).tolist()
        for n in (2, 10):
            passes.clear()
            batch = _tail_points([Superparabolic(n, a) for a in alphas], tol)
            assert not any(isinstance(h, Exception) for h in batch)
            assert passes[0] == (1024, 16) and len(passes) > 1
            for (pending, rows), (later, _) in zip(passes, passes[1:] + [(0, 0)]):
                assert rows == max(16, min(256, 4096 // pending)) and pending * rows <= 16 * 1024
                assert later <= pending


class LevelLog:
    """A model that logs each call of its level_series, and of its level on
    an array of times, with its level_key and the number of rows it is
    evaluated on.  The level at a single time, as the handover prediction
    reads it, is not logged."""

    def __init__(self, model, log):
        self.model, self.log = model, log

    def __getattr__(self, name):
        return getattr(self.model, name)

    def __repr__(self):
        return f"LevelLog({self.model!r})"

    def level(self, t):
        if np.ndim(t):
            self.log.append(("level", self.model.level_key, len(t)))
        return self.model.level(t)

    def level_series(self, t, L):
        self.log.append(("level_series", self.model.level_key, len(t)))
        return self.model.level_series(t, L)


class TestLevelGroups:
    # members that share levels, N = 6 and (A, B) = (1, 4), but not V
    INTERLEAVED = (
        Superparabolic(6, 0.3), Parabolic(1.0, 4.0, 1.0), Superparabolic(6, 1.7), Parabolic(1.0, 4.0, 2.5),
        Superparabolic(10, 1.0),
    )

    def test_interleaved_batch_matches_lone_propagations(self):
        # every field of each member's result is its lone solve's, to the bit
        settings = PropagatorSettings()
        batch = propagator._propagate_batch(list(self.INTERLEAVED), settings)
        for m, got in zip(self.INTERLEAVED, batch):
            assert got == propagate(m, settings), m

    def test_batch_groups_by_family_and_key(self, monkeypatch):
        # _propagate_batch scans and solves each level, (family, level_key),
        # as one batch, in the order the levels first appear: a parabolic
        # level with A = 6 is not the level N = 6
        models = list(self.INTERLEAVED) + [Parabolic(6.0, 0.0, 1.0), Superparabolic(6, 9.0)]
        scans, solves = [], []
        real_scan, real_resolve = propagator._tail_points, propagator._resolve

        def scanning(batch, tol):
            scans.append(list(batch))
            return real_scan(batch, tol)

        def resolving(windows, settings):
            solves.append([m for m, _ in windows])
            return real_resolve(windows, settings)

        monkeypatch.setattr(propagator, "_tail_points", scanning)
        monkeypatch.setattr(propagator, "_resolve", resolving)
        results = propagator._propagate_batch(models, PropagatorSettings())
        groups = [[models[i] for i in rows] for rows in ([0, 2, 6], [1, 3], [4], [5])]
        assert scans == groups and solves == groups
        assert [r.nfev for r in results] == [propagate(m).nfev for m in models]

    def test_one_level_call_per_group_per_pass(self, monkeypatch):
        # the scan calls level_series, and the solve calls level, once per
        # pass, on all its rows at once: each batch is one level
        log = []
        models = [LevelLog(m, log) for m in self.INTERLEAVED]
        real_series, real_coupling = propagator._tail_series, propagator._coupling

        def series_pass(eps, v, degree):
            log.append(("scan", None, eps.shape[1]))
            return real_series(eps, v, degree)

        def coupling_pass(model, t, v):
            out = real_coupling(model, t, v)
            log.append(("solve", None, len(t)))
            return out

        def passes(kind, marker):
            calls, out = [], []
            for name, key, rows in log:
                if name == marker:
                    out.append((calls, rows))
                    calls = []
                elif name == kind:
                    calls.append((key, rows))
            assert not calls
            return out

        monkeypatch.setattr(propagator, "_tail_series", series_pass)
        monkeypatch.setattr(propagator, "_coupling", coupling_pass)
        propagator._propagate_batch(models, PropagatorSettings())
        scan, solve = passes("level_series", "scan"), passes("level", "solve")
        assert len(scan) >= 3 and len(solve) > 3
        for calls, rows in scan + solve:
            assert len(calls) == 1 and calls[0][1] == rows
        # the levels are taken one after another, each in its own passes,
        # and each level's first pass holds all its members
        for kind in (scan, solve):
            keys = [calls[0][0] for calls, _ in kind]
            assert [k for k, j in zip(keys, [None] + keys) if k != j] == [6, (1.0, 4.0), 10]
        assert scan[0][0] == [(6, 2)]

    def test_groups_are_chunked_in_input_order(self, monkeypatch):
        # with four models a batch, a level of six models is scanned and
        # solved in two batches, and each model's result, or failure, is
        # its lone propagation's, in input order, whatever batch it is in
        monkeypatch.setattr(propagator, "_PASS_STEPS", 4 * propagator._FIRST_STEPS)
        models = [
            Superparabolic(2, 0.2), Parabolic(1.0, 4.0, 1.0), Superparabolic(6, 0.5), Superparabolic(2, 1e-300),
            Superparabolic(2, 1.0), Parabolic(1.0, 4.0, 0.3), Superparabolic(2, 1.7), Superparabolic(6, 2.0),
            Parabolic(1.0, 4.0, 2.5), Superparabolic(2, 2.5), Superparabolic(2, 0.6),
        ]
        scans = []
        real = propagator._tail_points

        def scanning(batch, tol):
            scans.append([models.index(m) for m in batch])
            return real(batch, tol)

        monkeypatch.setattr(propagator, "_tail_points", scanning)
        settings = PropagatorSettings()
        results = propagator._propagate_batch(models, settings)
        assert scans == [[0, 3, 4, 6], [9, 10], [1, 5, 8], [2, 7]]
        failures = 0
        for m, got in zip(models, results):
            try:
                want = propagate(m, settings)
            except ZeroDivisionError as exc:
                failures += 1
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                assert got == want, m
        assert failures == 1


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
        _, starts, half, _, _, _ = propagator._resolve([(m, handover[0])], PropagatorSettings())
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


class TestTrimmedKernels:
    """Each kernel that skips numpy calls gives its plain form's bits."""

    def test_tail_series_skips_only_zero_orders(self):
        # the first 256 points of each model's handover scan, one point, and
        # a batch of both families as the scan stacks it (at the largest
        # degree), with V^2 underflowing and the series or the level
        # overflowing: the same bits, non-finite ones included
        models = [
            Superparabolic(2, 0.2), Superparabolic(6, 1.0), Superparabolic(50, 0.3), Superparabolic(2, 1e-300),
            Superparabolic(2, 1e300), Superparabolic(6, 1e300), Superparabolic(200, 1e300),
            Parabolic(1.0, -7.6, 1.0), Parabolic(1.0, 4.0, 1.0), Parabolic(0.5, 2.0, 1.3),
            Parabolic(1.0, 1e300, 1.0), Parabolic(1e300, 0.0, 1e-300),
        ]
        grid = 1.01 ** np.arange(256)
        overflowed = 0
        with np.errstate(all="ignore"):
            for m in models:
                t = max(m.floor, 1.0) * grid
                for points in (float(t[0]), t):
                    eps = m.level_series(points, propagator._EPS_ORDERS)
                    got = _tail_series(eps, m.V, m.degree)
                    assert got.tobytes() == tail_series_full(eps, m.V).tobytes()
                overflowed += not np.isfinite(got).all()
            batch = [Parabolic(1.0, 4.0, 1.0), Superparabolic(6, 1.0), Superparabolic(2, 1e300)]
            eps = np.stack([m.level_series(max(m.floor, 1.0) * grid[:16], propagator._EPS_ORDERS) for m in batch], 1)
            v = np.array([m.V for m in batch])[:, None]
            got = _tail_series(eps, v, max(m.degree for m in batch))
            assert got.tobytes() == tail_series_full(eps, v).tobytes()
        assert overflowed == 5

    def test_step_maps_match_two_sided_iteration(self, monkeypatch):
        settings = PropagatorSettings()
        models = [Superparabolic(2, 1.0), Superparabolic(10, 3.0), Parabolic(1.0, 4.0, 1.0), Parabolic(1.0, -4.0, 1.0)]
        members = [(m, _tail_point(m, settings.tail_tol)[0]) for m in models]
        resolved = [propagator._resolve([member], settings) for member in members]
        for counts, _, half, f, _, _ in resolved:
            got, want = propagator._step_maps(half, f, counts), step_maps_two_sided(half, f)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        # the four members' steps stacked as one batch: each member sweeps
        # until its own change is within the tolerance, and its maps are
        # those of its steps alone
        counts = [n for r in resolved for n in r[0]]
        half, f = (np.concatenate([r[i] for r in resolved]) for i in (2, 3))
        bounds = np.cumsum([0, *counts])
        members_alone = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        got = propagator._step_maps(half, f, counts)
        want = zip(*(step_maps_two_sided(half[rows], f[rows]) for rows in members_alone))
        assert [x.tobytes() for x in got] == [np.concatenate(x).tobytes() for x in want]
        # too few sweeps to converge, or steps so wide (|h f| = 5) that even
        # 64 sweeps leave a change of 1.4e-13, where a changes the more: the
        # same failure, naming the last change of either amplitude
        wide = (np.ones(3), np.full((3, 32), 5.0 + 1.0j), [3])
        for sweeps, steps in [(2, (half, f, counts)), (3, (half, f, counts)), (5, (half, f, counts)), (2, wide),
                              (5, wide), (64, wide)]:
            monkeypatch.setattr(propagator, "_PICARD_ITERATIONS", sweeps)
            with pytest.raises(ToleranceFailure) as got:
                propagator._step_maps(*steps)
            with pytest.raises(ToleranceFailure) as want:
                step_maps_two_sided(*steps[:2])
            assert str(got.value) == str(want.value)
        monkeypatch.undo()
        # a member of more than _PASS_STEPS steps splits into near-equal
        # parts, each sweeping on its own
        monkeypatch.setattr(propagator, "_PASS_STEPS", 4)
        parts = [part for rows in members_alone for part in np.array_split(rows, -(-rows.size // 4))]
        got = propagator._step_maps(half, f, counts)
        want = zip(*(step_maps_two_sided(half[rows], f[rows]) for rows in parts))
        assert max(map(len, parts)) == 4 and [x.tobytes() for x in got] == [np.concatenate(x).tobytes() for x in want]

    def test_member_stops_on_its_own(self):
        # a member whose steps converge in few sweeps keeps its values while
        # a wider member in its pass sweeps on: sweeping a converged member
        # further can move its last bits (|h f| = 1 beside |h f| = 2)
        rng = np.random.default_rng(0)
        half = np.ones(6)
        f = np.concatenate([np.exp(1j * rng.uniform(0, 6, (3, 32))), 2.0 * np.exp(1j * rng.uniform(0, 6, (3, 32)))])
        got = propagator._step_maps(half, f, [3, 3])
        alone = zip(propagator._step_maps(half[:3], f[:3], [3]), propagator._step_maps(half[3:], f[3:], [3]))
        assert [x.tobytes() for x in got] == [np.concatenate(x).tobytes() for x in alone]

    def test_passes_hold_whole_members(self, monkeypatch):
        # a pass takes whole members up to _PASS_STEPS steps, and a longer
        # member is split into the fewest near-equal parts, so that no pass
        # holds a lone row
        monkeypatch.setattr(propagator, "_PASS_STEPS", 8)
        assert propagator._passes([3, 5, 10, 2, 17]) == [(0, [3, 5]), (8, [5]), (13, [5, 2]), (20, [6]), (26, [6]),
                                                         (32, [5])]
        assert propagator._passes([9]) == [(0, [5]), (5, [4])]

    def test_resolve_shortcuts_match_a_bisecting_batch(self, monkeypatch):
        # Superparabolic(2, 0.2) and Superparabolic(2, 0.3) accept their
        # eight first steps in one pass, whose steps are then taken as they
        # are, unsorted; Superparabolic(2, 1.0) bisects, and so sorts any
        # batch it is in.  Each member gets its lone solve's steps, to the bit
        settings = PropagatorSettings()
        one_pass, bisecting = [Superparabolic(2, 0.2), Superparabolic(2, 0.3)], Superparabolic(2, 1.0)

        def resolve(models):
            return propagator._resolve([(m, _tail_point(m, settings.tail_tol)[0]) for m in models], settings)

        lone = {m: resolve([m]) for m in one_pass + [bisecting]}
        assert [lone[m][0] for m in one_pass + [bisecting]] == [[8], [8], [9]]

        def check(models):
            counts, *columns, nfev = resolve(models)
            end = 0
            for k, m in enumerate(models):
                steps = slice(end, end + counts[k])
                end = steps.stop
                assert ([counts[k]], [nfev[k]]) == (lone[m][0], lone[m][5])
                assert [c[steps].tobytes() for c in columns] == [c.tobytes() for c in lone[m][1:5]]
            assert end == len(columns[0])

        check(one_pass + [bisecting])
        check([bisecting] + one_pass)
        # passes of 8 steps: a member a pass, each accepting every step, so
        # that several passes are joined unsorted
        monkeypatch.setattr(propagator, "_PASS_STEPS", 8)
        check(one_pass)
        check(one_pass + [bisecting])


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

    def test_single_passage_and_phase_give_p(self):
        # V = [[alpha, -beta*], [beta, alpha*]] is in SU(2), so
        # P = 4 (Im alpha beta)^2 = 4 p (1 - p) sin^2 psi with p = |beta|^2
        # and psi = arg(alpha beta), read off the same V
        models = [Superparabolic(n, a) for n in (2, 6, 10, 50) for a in (0.3, 1.0, 2.5)]
        models += [Parabolic(1.0, b, v0) for b in (-4.0, 0.0, 4.0) for v0 in (0.3, 1.0)]
        for m in models:
            r = propagate(m)
            p, psi = r.single_passage, r.phase
            assert 0.0 <= p <= 1.0 and -math.pi <= psi <= math.pi
            assert abs(4.0 * p * (1.0 - p) * math.sin(psi) ** 2 - r.probability) <= 1e-12

    @pytest.mark.parametrize("times", [(), (0.5, 1.0, 2.0)], ids=["window", "trace-stops"])
    def test_nfev_counts_coupling_evaluations(self, times):
        # nfev is every time point the solve passes through model.level,
        # rejected steps included (320 here, with or without read-out
        # times), at _NODES per step
        m = Superparabolic(2, 1.0)
        handover = _tail_point(m, PropagatorSettings().tail_tol)
        counted = CountingModel(m)
        _, states, nfev, n_steps = propagator._solve_window([(counted, handover[0])], PropagatorSettings(), times)[0]
        assert nfev == counted.points
        assert n_steps * propagator._NODES <= nfev < 400
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
            loose = propagator._solve_lone((m, handover), PropagatorSettings())
            tight = propagator._solve_lone((m, handover), PropagatorSettings(tail_tol=1e-15))
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
        _, states, _, _ = propagator._solve_window([(m, t_core)], PropagatorSettings(), times)[0]
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


@pytest.mark.parametrize(
    "models, batched",
    [
        ([Superparabolic(2, 1.0)], False),
        ([Superparabolic(10, a) for a in (0.1, 0.3, 1.0, 3.0)], True),
        (TestBatchedScan.MIXED, True),
    ],
    ids=["lone", "panel", "mixed"],
)
def test_nfev_is_the_count_of_coupling_nodes(monkeypatch, models, batched):
    # nfev is inferred from the accepted steps, as (2 n - _FIRST_STEPS)
    # _NODES: count the nodes each member's couplings are evaluated at,
    # so that a change to the first steps or to the bisection that breaks
    # the formula fails here.  A step's row is its member's by its V,
    # which is distinct within each solve here
    solves = []
    real_resolve, real_coupling = propagator._resolve, propagator._coupling

    def resolving(windows, settings):
        solves.append({m.V: [m, 0] for m, _ in windows})
        assert len(solves[-1]) == len(windows)
        return real_resolve(windows, settings)

    def counting(model, t, v):
        for member in solves[-1].values():
            member[1] += np.count_nonzero(v[:, 0] == member[0].V) * t.shape[1]
        return real_coupling(model, t, v)

    monkeypatch.setattr(propagator, "_resolve", resolving)
    monkeypatch.setattr(propagator, "_coupling", counting)
    if batched:
        results = propagator._propagate_batch(models, PropagatorSettings())
    else:
        results = [propagate(m) for m in models]
    counted = {id(m): n for solve in solves for m, n in solve.values()}
    solved = [(m, r) for m, r in zip(models, results) if not isinstance(r, Exception)]
    assert len(solved) > 0 and sum(map(len, solves)) == len(solved)
    assert [counted[id(m)] for m, _ in solved] == [r.nfev for _, r in solved]


def test_trace_solve_independent_of_sample_count(monkeypatch):
    # the samples and t_core are read off the window's steps, not made step
    # edges, so a trace's solve is that of its window [0, T] alone whatever
    # the sample count: same nfev, n_steps and U(T, 0)
    m = Parabolic(1.0, 4.0, 1.0)
    t_end = propagator._trace_end(m, _tail_point(m, PropagatorSettings().tail_tol)[0])
    ((window, _, nfev, n_steps),) = propagator._solve_window([(m, t_end)], PropagatorSettings())
    real, solves = propagator._solve_window, []

    def recording(windows, settings, times=()):
        solves.append((windows, real(windows, settings, times)))
        return solves[-1][1]

    monkeypatch.setattr(propagator, "_solve_window", recording)
    for n in (8, 257, 1001):
        propagate_trace(m, sample_count=n)
        ((windows, ((end, _, traced_nfev, traced_steps),)),) = solves
        assert windows == [(m, t_end)]
        assert (end, traced_nfev, traced_steps) == (window, nfev, n_steps)
        solves.clear()


def test_node_cap_raises_non_convergence(monkeypatch):
    # the cap is checked before a pass evaluates its nodes, so the solve
    # never evaluates more than the cap
    monkeypatch.setattr(propagator, "_MAX_NODES", 300)
    counted = CountingModel(Superparabolic(2, 1.0))
    handover = _tail_point(counted.model, PropagatorSettings().tail_tol)
    with pytest.raises(NonConvergence,
                       match=r"node cap of 300 nodes reached with \d+ steps of \[0, .*\] unresolved"):
        propagator._solve_window([(counted, handover[0])], PropagatorSettings())
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
        propagator._solve_window([(m, handover[0])], PropagatorSettings())


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
            propagator._solve_window([(m, 2.0)], PropagatorSettings())


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

    @pytest.mark.parametrize("m", [Superparabolic(2, 1.0), Superparabolic(6, 1.3), Parabolic(1.0, 4.0, 1.0),
                                   Parabolic(1.0, -4.0, 1.0)], ids=["n2", "n6", "b+4", "b-4"])
    def test_state_at_zero_is_completed_at_the_handover(self, monkeypatch, m):
        # the trace's state at t = 0 comes from propagate's handover through
        # the same readout, with U(t_core, 0) read off the trace's longer
        # solve: its P, p and psi are propagate's up to that solve's rounding
        real, read = propagator._readout, []

        def reading(*args):
            read.append(real(*args)[0])
            return real(*args)

        monkeypatch.setattr(propagator, "_readout", reading)
        propagate(m)
        propagate_trace(m, sample_count=16)
        lone, traced = read
        assert (traced.t_core, traced.tail_error) == (lone.t_core, lone.tail_error)
        for field in ("probability", "single_passage", "phase"):
            assert abs(getattr(traced, field) - getattr(lone, field)) <= 1e-13

    def test_window_end_not_found_is_non_convergence(self):
        # a level whose mixing angle never falls to 1e-2 on the grid
        # is refused once the whole grid past t_core is read
        class Falling(CountingModel):
            def level(self, t):
                self.points += np.size(t)
                return -t * t, -2.0 * t

        m = Falling(Superparabolic(2, 1.0))
        grid = m.floor * propagator._scan_grid()
        with pytest.raises(NonConvergence, match="could not locate trace window end"):
            propagator._trace_end(m, float(grid[5]))
        assert m.points == propagator._SCAN_POINTS - 5

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

        def reading(windows, settings, times=()):
            read.append(list(times))
            return real(windows, settings, times)

        monkeypatch.setattr(propagator, "_solve_window", reading)
        m = Superparabolic(2, 1.0)
        ts = [row[0] for row in propagate_trace(m, sample_count=n)]
        assert all(a == -b for a, b in zip(ts, ts[::-1]))
        # the last readout time is the handover, where the tail completes the solve
        ((*times, t_core),) = read
        assert t_core == _tail_point(m, PropagatorSettings().tail_tol)[0]
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

    @staticmethod
    @functools.cache
    def results(alpha):
        return [propagate(Superparabolic(n, alpha)) for n in TestBoxLimit.NS]

    @pytest.mark.parametrize("alpha, sign", [(0.3, 1.0), (1.0, -1.0), (1.3, -1.0)])
    def test_exact_and_ddp_routes_tend_to_the_box(self, alpha, sign):
        box = box_limit_probability(alpha)
        err = [r.probability - box for r in self.results(alpha)]
        assert all(sign * e > 0.0 for e in err)
        assert all(abs(e2) <= 0.66 * abs(e1) for e1, e2 in zip(err, err[1:]))
        assert abs(err[-1]) <= 0.016
        for n in self.NS:
            assert abs(ddp_probability(n, alpha) - box) <= 1.0 / n

    @pytest.mark.parametrize("alpha, low, high", [(0.3, 0.473, 0.487), (1.0, 1.579, 1.621), (1.3, 2.053, 2.105)])
    def test_single_passage_tends_to_one_half(self, alpha, low, high):
        # each switch at |t| = 1 is sudden, so p -> 1/2; N (1/2 - p) is
        # measured here, in [low, high] and falling as N doubles (its limit,
        # if any, awaits the Demkov-edge derivation and is not asserted)
        scaled = [n * (0.5 - r.single_passage) for n, r in zip(self.NS, self.results(alpha))]
        assert all(low <= x <= high for x in scaled)
        assert all(x2 < x1 for x1, x2 in zip(scaled, scaled[1:]))


class TestHandoverIndependence:
    """P does not depend on where the tail takes over, within the error the
    result reports: forcing the handover out from t_core to 2 t_core moves P
    by at most 2 sqrt(P) eps + eps^2, with P from the 2 t_core solve and

        eps = tail_error + 2 |u_0(t_core)|^3 + n_steps tail_tol,

    the omitted tail terms, the cubic error of the first-order tail map
    C(J), and the collocation bound.  The change reads 0.03-0.92 of that
    bound on these models; N = 2, alpha = 8 (0.98) is left out."""

    @staticmethod
    @functools.cache
    def measure(model):
        """|P(t_core) - P(2 t_core)|, P(2 t_core), and the three parts of eps."""
        settings = PropagatorSettings()
        near = propagate(model, settings)
        t_far = 2.0 * near.t_core
        far = propagator._solve_lone((model, (t_far, _terms(model, t_far))), settings)
        cubic = 2.0 * abs(_terms(model, near.t_core)[0]) ** 3
        change = abs(near.probability - far.probability)
        return change, far.probability, near.tail_error, cubic, near.n_steps * settings.tail_tol

    @staticmethod
    def bound(p, eps):
        return 2.0 * math.sqrt(p) * eps + eps * eps

    @pytest.mark.parametrize(
        "model",
        [Superparabolic(2, a) for a in (1.0, 2.5, 4.0, 5.0, 6.0, 7.0)]
        + [Superparabolic(n, a) for n in (6, 10) for a in (2.0, 3.0, 4.0)]
        + [Parabolic(1.0, 4.0, 1.0), Parabolic(1.0, -4.0, 1.0)],
        ids=repr,
    )
    def test_change_within_the_error_model(self, model):
        change, p, tail_error, cubic, collocation = self.measure(model)
        assert change <= self.bound(p, tail_error + cubic + collocation)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: tail_error omits the tail map's cubic error, and misses the change by 29-288x",
    )
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 5.0, 6.0, 7.0])
    def test_tail_error_alone_bounds_the_change(self, alpha):
        change, p, tail_error, _, _ = self.measure(Superparabolic(2, alpha))
        assert change <= self.bound(p, tail_error)
