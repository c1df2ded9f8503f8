"""Sweep grid plumbing, CSV round-trips, peak/node finding, comparisons."""

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
from levelcross.errors import MissingColumn
from levelcross.harness import (
    METHODS,
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
from levelcross.models import Superparabolic
from levelcross.propagator import PropagatorSettings, propagate
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
        cfg = SweepConfig(
            n_values=(6,),
            alpha_min=0.2,
            alpha_max=0.44,
            points=7,
            spacing="linear",
            methods=("znt-tunnel",),
        )
        rows = run_sweep(cfg)
        statuses = [r.status for r in rows]
        assert any("znt-tunnel:BranchFailure" in s for s in statuses)
        assert any("znt-tunnel:ValueError" in s for s in statuses)
        assert any(s == "ok" for s in statuses)
        for row in rows:
            failed = row.status != "ok"
            assert (row.values["znt-tunnel"] is None) == failed

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

    @pytest.mark.parametrize("n, lo, hi, spacing", [(2, 0.2, 2.5, "linear"), (6, 0.1, 3.0, "log"),
                                                    (10, 0.1, 3.0, "log")], ids=["n2", "n6", "n10"])
    def test_batched_column_matches_lone_propagate(self, n, lo, hi, spacing):
        # the three 300-point acceptance grids: each member keeps its own
        # handover, steps and counts, and P moves only by rounding
        grid = SweepConfig(n_values=(n,), alpha_min=lo, alpha_max=hi, points=300, spacing=spacing).alpha_grid()
        batched = harness._numeric_column(n, grid, PropagatorSettings())
        for alpha, got in zip(grid, batched, strict=True):
            lone = propagate(Superparabolic(n, alpha))
            assert (got.nfev, got.n_steps, got.t_core, got.tail_error) == (
                lone.nfev, lone.n_steps, lone.t_core, lone.tail_error)
            assert abs(got.probability - lone.probability) <= 1e-13
            assert abs(got.final_norm_drift - lone.final_norm_drift) <= 1e-13

    def test_capped_point_fails_alone(self, monkeypatch):
        # alpha = 1e6 takes the batch past the node cap; the panel is then
        # solved point by point, so only that row fails, and its neighbours
        # get a lone propagate's values
        lone_calls = []

        def lone(model, settings):
            lone_calls.append(model.alpha)
            return propagate(model, settings)

        monkeypatch.setattr(harness, "propagate", lone)
        monkeypatch.setattr(SweepConfig, "alpha_grid", lambda self: [0.5, 1e6, 2.0])
        rows = run_sweep(SweepConfig(n_values=(2,), alpha_min=0.5, alpha_max=2.0, points=3,
                                     methods=("numeric", "ddp")))
        assert lone_calls == [0.5, 1e6, 2.0]
        assert [r.status for r in rows] == ["ok", "numeric:NonConvergence", "ok"]
        assert rows[1].values == {"numeric": None, "ddp": ddp_probability(2, 1e6)}
        for row in (rows[0], rows[2]):
            assert row.values["numeric"] == propagate(Superparabolic(2, row.alpha)).probability

    def test_batch_size_capped(self, monkeypatch):
        # a batch's first steps must fit one pass, so a 5000-point panel
        # goes to the solve in batches of at most _PASS_STEPS // 8 models,
        # in grid order, and each N panel separately
        batches = []

        def recorder(models, settings):
            batches.append([(m.N, m.alpha) for m in models])
            return [SimpleNamespace(probability=m.alpha / (1.0 + m.alpha)) for m in models]

        monkeypatch.setattr(harness, "_propagate_batch", recorder)
        cfg = SweepConfig(n_values=(2, 6), alpha_min=0.1, alpha_max=3.0, points=5_000, methods=("numeric",))
        rows = run_sweep(cfg)
        assert max(map(len, batches)) == propagator._PASS_STEPS // 8
        assert [point for batch in batches for point in batch] == [(r.n, r.alpha) for r in rows]
        assert all(len({n for n, _ in batch}) == 1 for batch in batches)
        assert [r.values["numeric"] for r in rows] == [r.alpha / (1.0 + r.alpha) for r in rows]

    def test_one_resolve_per_batch(self, resolve_calls):
        # two 4-point panels are two solves of four members each; a
        # closed-form sweep makes none
        run_sweep(SweepConfig(n_values=(2, 6), alpha_min=0.3, alpha_max=1.5, points=4))
        assert resolve_calls == [4, 4]
        run_sweep(SweepConfig(n_values=(2,), alpha_min=0.1, alpha_max=3.0, points=300,
                              methods=("ddp", "znt-double", "znt-tunnel")))
        assert resolve_calls == [4, 4]

    def test_out_path_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = SweepConfig(
            n_values=(2,),
            alpha_min=0.5,
            alpha_max=1.0,
            points=2,
            methods=("ddp",),
            out_path=str(out),
        )
        rows = run_sweep(cfg)
        assert out.read_text(encoding="ascii") == emit_sweep_csv(rows, cfg.methods)


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


def test_method_tuple_is_exhaustive():
    assert METHODS == ("numeric", "ddp", "znt-double", "znt-tunnel")
