"""Sweep grid plumbing, CSV round-trips, peak/node finding, comparisons."""

import dataclasses
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross import harness, propagator
from levelcross.ddp import ddp_probability
from levelcross.errors import LevelCrossError, MissingColumn
from levelcross.harness import (
    METHODS,
    ROUTES,
    ComparisonReport,
    SweepConfig,
    SweepRow,
    compare_methods,
    emit_sweep_csv,
    find_oscillation_nodes,
    find_oscillation_peaks,
    parse_sweep_csv,
    read_sweep_csv,
    report_to_json,
    run_sweep,
    write_sweep_csv,
)
from levelcross.models import Parabolic, Superparabolic
from levelcross.propagator import PropagatorSettings, propagate
from levelcross.znt import glancing_double_crossing, glancing_tunneling
from oracles import PARABOLIC_C, ddp_parabolic_closed_form


class TestSweepConfig:
    def test_validation(self):
        good = dict(n_values=(2,), alpha_min=0.1, alpha_max=1.0, points=5)
        SweepConfig(**good)
        for overrides in (
            dict(n_values=()),
            dict(n_values=(3,)),
            dict(n_values=(0,)),
            dict(n_values=(2.5,)),
            dict(alpha_min=0.0),
            dict(alpha_min=-1.0),
            dict(alpha_max=0.05),
            dict(alpha_max=math.inf),
            dict(alpha_min=math.nan),
            dict(points=1),
            dict(points=2.5),
            dict(spacing="cubic"),
            dict(methods=("numeric", "euler")),
            dict(methods=()),
        ):
            with pytest.raises(ValueError):
                SweepConfig(**{**good, **overrides})

    def test_non_integer_points_named(self):
        # 2.5 would otherwise reach np.linspace and fail there with a TypeError
        with pytest.raises(ValueError, match=r"points must be an integer >= 2, got 2\.5"):
            SweepConfig(n_values=(2,), alpha_min=0.1, alpha_max=1.0, points=2.5)
        assert SweepConfig(n_values=(2,), alpha_min=0.1, alpha_max=1.0, points=np.int64(3)).points == 3

    def test_methods_canonical_order(self):
        cfg = SweepConfig(
            n_values=(2,),
            alpha_min=0.1,
            alpha_max=1.0,
            points=2,
            methods=("znt-tunnel", "ddp", "numeric"),
        )
        assert cfg.methods == ("numeric", "ddp", "znt-tunnel")

    def test_n_values_sorted_unique(self):
        cfg = SweepConfig(n_values=(10, 2, 2, 6), alpha_min=0.1, alpha_max=1.0, points=2)
        assert cfg.n_values == (2, 6, 10)

    def test_linear_grid(self):
        cfg = SweepConfig(
            n_values=(2,), alpha_min=0.2, alpha_max=2.5, points=24, spacing="linear"
        )
        grid = cfg.alpha_grid()
        assert len(grid) == 24
        assert grid[0] == pytest.approx(0.2)
        assert grid[-1] == pytest.approx(2.5)
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        assert max(diffs) - min(diffs) < 1e-12

    def test_log_grid(self):
        cfg = SweepConfig(n_values=(2,), alpha_min=0.1, alpha_max=3.0, points=16)
        grid = cfg.alpha_grid()
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-12


@pytest.fixture()
def resolve_calls(monkeypatch):
    """The member counts of each call of the collocation solve."""
    calls = []
    real = propagator._resolve

    def counting(members, *args):
        calls.append(len(members))
        return real(members, *args)

    monkeypatch.setattr(propagator, "_resolve", counting)
    return calls


@pytest.fixture()
def lone_calls(monkeypatch):
    """The alphas of the lone solves that a failed batch solve redoes."""
    calls = []
    real = propagator._solve_lone

    def lone(member, settings):
        calls.append(member[0].alpha)
        return real(member, settings)

    monkeypatch.setattr(propagator, "_solve_lone", lone)
    return calls


@pytest.fixture()
def scan_calls(monkeypatch):
    """The member counts of each call of the handover scan."""
    calls = []
    real = propagator._tail_points

    def counting(models, *args):
        calls.append(len(models))
        return real(models, *args)

    monkeypatch.setattr(propagator, "_tail_points", counting)
    return calls


def _panel(n, lo, hi, spacing):
    """The glancing models of a 300-point sweep panel."""
    grid = SweepConfig(n_values=(n,), alpha_min=lo, alpha_max=hi, points=300, spacing=spacing).alpha_grid()
    return [Superparabolic(n, alpha) for alpha in grid]


class TestRunSweep:
    def test_ddp_column_delegates(self):
        cfg = SweepConfig(
            n_values=(2,),
            alpha_min=0.2,
            alpha_max=2.5,
            points=3,
            spacing="linear",
            methods=("ddp",),
        )
        rows = run_sweep(cfg)
        assert len(rows) == 3
        for row in rows:
            assert row.status == "ok"
            assert row.values["ddp"] == ddp_probability(2, row.alpha)
            assert row.values["ddp"] == pytest.approx(
                ddp_parabolic_closed_form(row.alpha), rel=1e-12
            )

    def test_tunneling_failures_become_sentinels(self):
        # a failing cell is None and named in the status, and every cell is
        # its method called on that point alone; the N=10 panel has both
        # kinds of znt-tunnel failure beside the three other methods
        direct = {"numeric": lambda n, alpha: propagate(Superparabolic(n, alpha)).probability,
                  "ddp": ddp_probability, "znt-double": glancing_double_crossing, "znt-tunnel": glancing_tunneling}
        for cfg in (SweepConfig(n_values=(6,), alpha_min=0.2, alpha_max=0.44, points=7, spacing="linear",
                                methods=("znt-tunnel",)),
                    SweepConfig(n_values=(10,), alpha_min=0.3, alpha_max=0.6, points=8)):
            rows = run_sweep(cfg)
            statuses = [r.status for r in rows]
            assert any("znt-tunnel:BranchFailure" in s for s in statuses)
            assert any("znt-tunnel:ValueError" in s for s in statuses)
            assert any(s == "ok" for s in statuses)
            for row in rows:
                failed = []
                for method in cfg.methods:
                    try:
                        want = direct[method](row.n, row.alpha)
                    except (LevelCrossError, ValueError, ArithmeticError) as exc:
                        failed.append(f"{method}:{type(exc).__name__}")
                        want = None
                    assert row.values[method] == want
                assert row.status == (";".join(failed) or "ok")

    def test_rows_ordered_by_n_then_alpha(self):
        cfg = SweepConfig(
            n_values=(6, 2), alpha_min=0.3, alpha_max=0.9, points=4, methods=("ddp",)
        )
        rows = run_sweep(cfg)
        assert [r.n for r in rows] == [2] * 4 + [6] * 4
        for group in (rows[:4], rows[4:]):
            alphas = [r.alpha for r in group]
            assert alphas == sorted(alphas)

    def test_deterministic(self):
        cfg = SweepConfig(
            n_values=(2,),
            alpha_min=0.4,
            alpha_max=1.2,
            points=3,
            methods=("numeric", "ddp"),
        )
        a = emit_sweep_csv(run_sweep(cfg), cfg.methods)
        b = emit_sweep_csv(run_sweep(cfg), cfg.methods)
        assert a == b

    @pytest.mark.parametrize("models", [
        _panel(2, 0.2, 2.5, "linear"), _panel(6, 0.1, 3.0, "log"), _panel(10, 0.1, 3.0, "log"),
        [Superparabolic(6, 0.3), Parabolic(1, 4, 1), Superparabolic(6, 1.7), Parabolic(1, 4, 2.5),
         Superparabolic(10, 1)],
    ], ids=["n2", "n6", "n10", "mixed"])
    def test_batched_column_matches_lone_propagate(self, models):
        # the three 300-point acceptance grids, and a batch whose members
        # alternate between levels: each member's result is its lone
        # propagate's, every field to the bit
        batched = propagator._propagate_batch(models, PropagatorSettings())
        for model, got in zip(models, batched, strict=True):
            assert got == propagate(model)

    @pytest.mark.parametrize("method, name", [("ddp", "ddp_probability"), ("znt-double", "glancing_double_crossing"),
                                              ("znt-tunnel", "glancing_tunneling")])
    def test_routes_call_the_module_name(self, monkeypatch, method, name):
        # a closed form is looked up when its route runs, so a wrapper set on
        # the harness module's name (as a tracer sets it) sees every call
        calls = []
        real = getattr(harness, name)

        def wrapper(n, alpha):
            calls.append((n, alpha))
            return real(n, alpha)

        monkeypatch.setattr(harness, name, wrapper)
        rows = run_sweep(SweepConfig(n_values=(6,), alpha_min=0.5, alpha_max=2.0, points=3, methods=(method,)))
        assert calls == [(6, r.alpha) for r in rows]

    def test_capped_point_fails_alone(self, monkeypatch, resolve_calls, lone_calls, scan_calls):
        # alpha = 1e6 takes the batch past the node cap; the batch is then
        # solved again one point at a time from the handovers of its one
        # scan, so only that row fails, and its neighbours get a lone
        # propagate's values
        monkeypatch.setattr(SweepConfig, "alpha_grid", lambda self: [0.5, 1e6, 2.0])
        rows = run_sweep(SweepConfig(n_values=(2,), alpha_min=0.5, alpha_max=2.0, points=3,
                                     methods=("numeric", "ddp")))
        assert lone_calls == [0.5, 1e6, 2.0]
        assert resolve_calls == [3, 1, 1, 1] and scan_calls == [3]
        assert [r.status for r in rows] == ["ok", "numeric:NonConvergence", "ok"]
        assert rows[1].values == {"numeric": None, "ddp": ddp_probability(2, 1e6)}
        for row in (rows[0], rows[2]):
            assert row.values["numeric"] == propagate(Superparabolic(2, row.alpha)).probability

    def test_batch_size_capped(self, monkeypatch):
        # a batch's first steps must fit one pass, so a 5000-point panel
        # goes to the solve in batches of at most _PASS_STEPS // _FIRST_STEPS models,
        # in grid order, and each N panel separately
        batches = []

        def recorder(windows, settings):
            batches.append([(m.N, m.alpha) for m, _ in windows])
            return [(m.alpha, None, 0, 0) for m, _ in windows]

        def readout(alpha, handover, nfev, n_steps):
            return SimpleNamespace(probability=alpha / (1.0 + alpha)), None

        scans = []

        def scanner(models, tol):
            scans.append(len(models))
            return [(1.0, None)] * len(models)

        monkeypatch.setattr(propagator, "_tail_points", scanner)
        monkeypatch.setattr(propagator, "_solve_window", recorder)
        monkeypatch.setattr(propagator, "_readout", readout)
        cfg = SweepConfig(n_values=(2, 6), alpha_min=0.1, alpha_max=3.0, points=5_000, methods=("numeric",))
        rows = run_sweep(cfg)
        assert max(map(len, batches)) == propagator._PASS_STEPS // propagator._FIRST_STEPS
        assert scans == list(map(len, batches))
        assert [point for batch in batches for point in batch] == [(r.n, r.alpha) for r in rows]
        assert all(len({n for n, _ in batch}) == 1 for batch in batches)
        assert [r.values["numeric"] for r in rows] == [r.alpha / (1.0 + r.alpha) for r in rows]

    def test_pre_solve_failures_stay_out_of_the_solve(self, monkeypatch, resolve_calls, lone_calls):
        # V^2 underflows at alpha = 1e-300 and the handover scan overflows at
        # 1e300: both fail before the solve, which the other two points share
        # without a lone retry
        monkeypatch.setattr(SweepConfig, "alpha_grid", lambda self: [1e-300, 0.5, 1e300, 2.0])
        rows = run_sweep(SweepConfig(n_values=(2,), alpha_min=1e-300, alpha_max=2.0, points=4, methods=("numeric",)))
        assert [r.status for r in rows] == ["numeric:ZeroDivisionError", "ok", "numeric:OverflowError", "ok"]
        assert resolve_calls == [2] and lone_calls == []
        assert rows[0].values["numeric"] is None and rows[2].values["numeric"] is None
        for row in (rows[1], rows[3]):
            assert row.values["numeric"] == propagate(Superparabolic(2, row.alpha)).probability

    def test_one_resolve_per_batch(self, resolve_calls, scan_calls):
        # two 4-point panels are two scans and two solves of four members
        # each; a closed-form sweep makes none
        run_sweep(SweepConfig(n_values=(2, 6), alpha_min=0.3, alpha_max=1.5, points=4))
        assert resolve_calls == [4, 4] and scan_calls == [4, 4]
        run_sweep(SweepConfig(n_values=(2,), alpha_min=0.1, alpha_max=3.0, points=300,
                              methods=("ddp", "znt-double", "znt-tunnel")))
        assert resolve_calls == [4, 4] and scan_calls == [4, 4]


def _rows_with_failure():
    return [
        SweepRow(n=6, alpha=0.2, values={"numeric": 0.5, "znt-tunnel": None},
                 status="znt-tunnel:ValueError"),
        SweepRow(n=6, alpha=0.3, values={"numeric": 1.0 / 3.0, "znt-tunnel": 0.25}, status="ok"),
        SweepRow(n=6, alpha=0.4, values={"numeric": 0.1234567890123456789,
                                         "znt-tunnel": 1e-300}, status="ok"),
    ]


_ERROR_NAMES = ("BranchFailure", "NonConvergence", "ValueError", "OverflowError")


@st.composite
def _sweep_tables(draw):
    methods = tuple(draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        values = {
            m: draw(st.none() | st.floats(min_value=0.0, max_value=1.0)) for m in methods
        }
        failures = [
            f"{m}:{draw(st.sampled_from(_ERROR_NAMES))}" for m in methods if values[m] is None
        ]
        rows.append(SweepRow(
            n=draw(st.integers(min_value=1, max_value=500)) * 2,
            alpha=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
            values=values,
            status=";".join(failures) or "ok",
        ))
    return rows, methods


class TestCsv:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(table=_sweep_tables())
    def test_round_trip_property(self, table):
        # subnormal and huge alphas, P at the ends of [0, 1], failed cells
        rows, methods = table
        assert parse_sweep_csv(emit_sweep_csv(rows, methods)) == (rows, methods)

    def test_round_trip_exact(self):
        rows = _rows_with_failure()
        methods = ("numeric", "znt-tunnel")
        back, methods_back = parse_sweep_csv(emit_sweep_csv(rows, methods))
        assert methods_back == methods
        assert back == rows

    def test_nan_token_and_status(self):
        text = emit_sweep_csv(_rows_with_failure(), ("numeric", "znt-tunnel"))
        lines = text.splitlines()
        assert lines[0] == "N,alpha,numeric,znt-tunnel,status"
        assert ",NaN," in lines[1]
        assert lines[1].endswith("znt-tunnel:ValueError")

    def test_full_precision(self):
        # 17 significant digits reproduce the double exactly
        row = SweepRow(n=2, alpha=math.pi / 3.0, values={"ddp": 1.0 / 3.0}, status="ok")
        back, _ = parse_sweep_csv(emit_sweep_csv([row], ("ddp",)))
        assert back[0].alpha == row.alpha
        assert back[0].values["ddp"] == row.values["ddp"]

    def test_file_round_trip(self, tmp_path):
        rows = _rows_with_failure()
        path = tmp_path / "x.csv"
        write_sweep_csv(rows, ("numeric", "znt-tunnel"), str(path))
        back, methods = read_sweep_csv(str(path))
        assert back == rows and methods == ("numeric", "znt-tunnel")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sweep_csv("")
        with pytest.raises(ValueError):
            parse_sweep_csv("a,b,c\n")
        with pytest.raises(ValueError):
            parse_sweep_csv("N,alpha,bogus,status\n2,1.0,0.5,ok\n")
        with pytest.raises(ValueError):
            parse_sweep_csv("N,alpha,ddp,status\n2,1.0,ok\n")


class TestPeaksAndNodes:
    def test_monotone_series_has_no_peaks(self):
        series = [(0.1 * i, 0.01 * i) for i in range(20)]
        assert find_oscillation_peaks(series, 0.0) == []

    def test_triangle(self):
        assert find_oscillation_peaks([(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)], 0.5) == [2.0]

    def test_plateau_is_not_strict(self):
        series = [(1.0, 0.0), (2.0, 1.0), (3.0, 1.0), (4.0, 0.0)]
        assert find_oscillation_peaks(series, 0.5) == []

    def test_threshold_filters(self):
        series = [(1.0, 0.0), (2.0, 0.04), (3.0, 0.0)]
        assert find_oscillation_peaks(series, 0.05) == []
        assert find_oscillation_peaks(series, 0.03) == [2.0]

    def test_closed_form_first_peak(self):
        # maximum of 4 e^{-2x} sin^2 x sits at tan x = 1, i.e. x = pi/4
        # (the envelope shifts it below the sin^2 = 1 point)
        alphas = [0.5 + 2.5 * i / 1999 for i in range(2000)]
        series = [(a, ddp_parabolic_closed_form(a)) for a in alphas]
        peaks = find_oscillation_peaks(series, 0.05)
        want = (math.pi / (4.0 * PARABOLIC_C)) ** (2.0 / 3.0)
        assert peaks
        assert peaks[0] == pytest.approx(want, abs=2.5 / 1999 * 2)

    def test_closed_form_nodes(self):
        alphas = [0.5 + 2.5 * i / 1999 for i in range(2000)]
        series = [(a, ddp_parabolic_closed_form(a)) for a in alphas]
        nodes = find_oscillation_nodes(series)
        for m, node in zip((1, 2), nodes):
            want = (m * math.pi / PARABOLIC_C) ** (2.0 / 3.0)
            assert node == pytest.approx(want, abs=2.5 / 1999 * 2)

    def test_nan_never_qualifies(self):
        series = [(1.0, 0.1), (2.0, math.nan), (3.0, 0.1), (4.0, 0.9), (5.0, 0.2)]
        assert find_oscillation_peaks(series, 0.0) == [4.0]
        # a NaN neighbor cannot vouch for a node either
        assert find_oscillation_nodes(series) == []
        clean = [(1.0, 0.5), (2.0, 0.1), (3.0, 0.4), (4.0, math.nan), (5.0, 0.3)]
        assert find_oscillation_nodes(clean) == [2.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            find_oscillation_peaks([(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)], -0.1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # no P can pass a NaN or infinite threshold, so no peak would be found
        with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
            find_oscillation_peaks([(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)], threshold)


def _vee(alphas, dip_at, scale=1.0):
    return [scale * abs(a - dip_at) + 0.01 for a in alphas]


def _compare_rows(numeric_dip, method_dip):
    alphas = [1.8 + 0.1 * i for i in range(9)]
    num = _vee(alphas, numeric_dip)
    met = _vee(alphas, method_dip)
    return [
        SweepRow(n=2, alpha=a, values={"numeric": pn, "ddp": pm}, status="ok")
        for a, pn, pm in zip(alphas, num, met)
    ]


class TestCompareMethods:
    def test_identical_columns(self):
        rows = [
            SweepRow(n=2, alpha=a, values={"numeric": p, "ddp": p}, status="ok")
            for a, p in [(0.5, 0.1), (1.0, 0.9), (1.5, 0.2), (2.0, 0.4), (2.5, 0.1)]
        ]
        rep = compare_methods(rows, threshold=0.05)
        assert isinstance(rep, ComparisonReport)
        assert rep.n_value == 2
        assert rep.max_abs_deviation["ddp"] == 0.0
        assert rep.peaks["ddp"] == rep.peaks["numeric"] == [1.0, 2.0]
        assert rep.peak_counts == {"numeric": 2, "ddp": 2}
        assert rep.frequency_agreement["ddp"] == 0.0

    def test_node_shift_measured(self):
        rep = compare_methods(_compare_rows(2.0, 2.2), threshold=0.0)
        assert rep.nodes["numeric"] == [2.0]
        assert rep.nodes["ddp"] == [2.2]
        assert rep.frequency_agreement["ddp"] == pytest.approx(0.1, rel=1e-12)

    def test_reorder_invariant(self):
        rows = _compare_rows(2.0, 2.2)
        shuffled = rows[:]
        random.Random(20240830).shuffle(shuffled)
        assert compare_methods(shuffled, 0.0) == compare_methods(rows, 0.0)

    def test_failed_cells_skipped_in_deviation(self):
        rows = _compare_rows(2.0, 2.2)
        patched = [
            SweepRow(n=2, alpha=rows[0].alpha, values={"numeric": rows[0].values["numeric"],
                                                       "ddp": None},
                     status="ddp:ValueError")
        ] + rows[1:]
        rep = compare_methods(patched, 0.0)
        finite = [
            abs(r.values["ddp"] - r.values["numeric"]) for r in rows[1:]
        ]
        assert rep.max_abs_deviation["ddp"] == pytest.approx(max(finite))

    def test_all_failed_method(self):
        rows = [
            SweepRow(n=2, alpha=a, values={"numeric": 0.1 + 0.1 * a, "znt-tunnel": None},
                     status="znt-tunnel:BranchFailure")
            for a in (0.5, 1.0, 1.5)
        ]
        rep = compare_methods(rows, 0.05)
        assert rep.max_abs_deviation["znt-tunnel"] is None
        assert rep.frequency_agreement["znt-tunnel"] is None
        assert rep.nodes["znt-tunnel"] == []

    def test_requires_numeric(self):
        rows = [
            SweepRow(n=2, alpha=a, values={"ddp": 0.1}, status="ok") for a in (0.5, 1.0)
        ]
        with pytest.raises(MissingColumn):
            compare_methods(rows, 0.05)

    def test_rejects_mixed_n(self):
        rows = _compare_rows(2.0, 2.2)
        bad = rows[:-1] + [SweepRow(n=6, alpha=9.9, values=rows[-1].values, status="ok")]
        with pytest.raises(ValueError):
            compare_methods(bad, 0.0)

    def test_rejects_inconsistent_methods(self):
        rows = _compare_rows(2.0, 2.2)
        bad = rows[:-1] + [
            SweepRow(n=2, alpha=9.9, values={"numeric": 0.5}, status="ok")
        ]
        with pytest.raises(ValueError):
            compare_methods(bad, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compare_methods([], 0.05)

    def test_json_report(self):
        rep = compare_methods(_compare_rows(2.0, 2.2), threshold=0.0)
        text = report_to_json(rep)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["n_value"] == 2
        assert data["frequency_agreement"]["ddp"] == pytest.approx(0.1)
        assert data["nodes"]["numeric"] == [2.0]

    def test_json_report_is_the_asdict_form(self):
        # report_to_json serialises the report's own field dict; the deep
        # copy that dataclasses.asdict makes is the reference it must match
        rows = [
            SweepRow(n=2, alpha=a, values={"numeric": p, "ddp": p, "znt-tunnel": None},
                     status="znt-tunnel:BranchFailure")
            for a, p in [(0.5, 0.1), (1.0, 0.9), (1.5, 0.2), (2.0, 0.4), (2.5, 0.1)]
        ]
        rep = compare_methods(rows, threshold=0.05)
        assert rep.max_abs_deviation["znt-tunnel"] is None and rep.frequency_agreement["znt-tunnel"] is None
        assert rep.peaks["numeric"] == rep.peaks["ddp"] == [1.0, 2.0]
        assert rep.nodes["numeric"] == rep.nodes["ddp"] == [1.5]
        reference = json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert report_to_json(rep) == reference


def test_method_tuple_is_exhaustive():
    assert METHODS == tuple(ROUTES) == ("numeric", "ddp", "znt-double", "znt-tunnel")
