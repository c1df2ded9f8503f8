"""End-to-end command-line behavior, run in process through main()."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelcross.cli as cli
import levelcross.propagator as propagator
from levelcross.cli import _build_parser, main
from levelcross.ddp import ddp_probability
from levelcross.harness import (
    SPACINGS,
    SweepConfig,
    SweepRow,
    compare_methods,
    emit_sweep_csv,
    parse_sweep_csv,
    run_sweep,
    write_sweep_csv,
)
from levelcross.models import Superparabolic
from levelcross.propagator import (
    PropagationResult,
    PropagatorSettings,
    _tail_point,
    propagate,
    propagate_trace,
)
from oracles import PARABOLIC_C


def _values(out):
    """Parse 'name = value' lines into a dict."""
    got = {}
    for line in out.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            got[key.strip()] = val.strip()
    return got


class TestPropagate:
    def test_superparabolic(self, tmp_path, capsys):
        # every PropagationResult field, in declaration order, with and without a trace
        names = [f.name for f in dataclasses.fields(PropagationResult)]
        rc = main(["propagate", "--N", "2", "--alpha", "1.0", "--trace", str(tmp_path / "t.csv")])
        assert rc == 0
        assert list(_values(capsys.readouterr().out)) == names
        rc = main(["propagate", "--model", "superparabolic", "--N", "2", "--alpha", "1.0"])
        assert rc == 0
        vals = _values(capsys.readouterr().out)
        assert list(vals) == names
        assert float(vals["probability"]) == pytest.approx(0.3392589574803294, rel=1e-9)
        assert float(vals["t_core"]) == _tail_point(Superparabolic(2, 1.0), 3e-12)[0]
        assert 0.0 < float(vals["tail_error"]) <= 3e-12
        r = propagate(Superparabolic(2, 1.0))
        assert (int(vals["nfev"]), int(vals["n_steps"])) == (r.nfev, r.n_steps)

    def test_parabolic(self, capsys):
        rc = main(
            ["propagate", "--model", "parabolic", "--A", "1.0", "--B", "4.0", "--V0", "1.0"]
        )
        assert rc == 0
        vals = _values(capsys.readouterr().out)
        assert float(vals["probability"]) == pytest.approx(0.47353450333929537, rel=1e-9)

    def test_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(
            ["propagate", "--N", "2", "--alpha", "1.0", "--trace", str(trace), "--samples", "16"]
        )
        assert rc == 0
        lines = trace.read_text(encoding="ascii").splitlines()
        assert lines[0] == "t,P1,P2,norm"
        assert len(lines) == 17
        first = [float(x) for x in lines[1].split(",")]
        assert first[2] > 1.0 - 1e-4
        assert first[3] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("model", [
        ["--N", "2", "--alpha", "1.0"], ["--N", "6", "--alpha", "1.3"],
        ["--model", "parabolic", "--A", "1", "--B", "4", "--V0", "1"],
        ["--model", "parabolic", "--A", "1", "--B", "-4", "--V0", "1"],
    ], ids=["n2", "n6", "b+4", "b-4"])
    def test_trace_is_one_solve(self, tmp_path, capsys, monkeypatch, model):
        # with --trace the command prints what it prints without, byte for
        # byte, from propagate's own solve; the trace is one solve more, on
        # its window [0, T], which ends at or past the handover point
        rc = main(["propagate", *model])
        assert rc == 0
        plain = capsys.readouterr().out
        windows = []
        real = propagator._resolve

        def counting(members, settings):
            windows.append([t for _, t in members])
            return real(members, settings)

        monkeypatch.setattr(propagator, "_resolve", counting)
        trace = tmp_path / "t.csv"
        rc = main(["propagate", *model, "--trace", str(trace), "--samples", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == plain + f"trace written to {trace}\n"
        t_core = float(_values(out)["t_core"])
        ((t_end,), (t_window,)) = windows  # the trace first, so that a refused sample count prints nothing
        assert t_window == t_core <= t_end
        assert float(trace.read_text(encoding="ascii").splitlines()[-1].split(",")[0]) == t_end

    def test_settings_flags(self, capsys):
        rc = main(
            ["propagate", "--N", "2", "--alpha", "1.0", "--tail-tol", "1e-13"]
        )
        assert rc == 0
        vals = _values(capsys.readouterr().out)
        assert float(vals["probability"]) == pytest.approx(0.3392589574803294, abs=1e-7)
        assert float(vals["t_core"]) == _tail_point(Superparabolic(2, 1.0), 1e-13)[0]
        assert float(vals["tail_error"]) <= 1e-13

    def test_removed_settings_flags_rejected(self, capsys):
        for flag in (
            "--asymptotic-ratio", "--convergence-tol", "--max-span-doublings", "--tail-cutoff",
            "--rel-tol", "--abs-tol",
        ):
            with pytest.raises(SystemExit) as exc:
                main(["propagate", "--N", "2", "--alpha", "1.0", flag, "4"])
            assert exc.value.code == 2

    def test_missing_model_params(self, capsys):
        rc = main(["propagate", "--model", "superparabolic", "--alpha", "1.0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["--N", "2", "--alpha", "1", "--A", "5"], "superparabolic model takes no A"),
        (["--model", "parabolic", "--A", "1", "--B", "4", "--V0", "1", "--N", "2"],
         "parabolic model takes no N"),
    ], ids=["superparabolic-A", "parabolic-N"])
    def test_foreign_model_param_refused(self, argv, error, capsys):
        # a flag the model family does not take is bad input
        rc = main(["propagate", *argv])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: {error}\n")


class TestSmallCommands:
    def test_zeros(self, capsys):
        rc = main(["zeros", "--N", "2", "--alpha", "1.0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,re_tc,im_tc"
        assert len(lines) == 3
        k, re, im = lines[1].split(",")
        assert k == "1"
        assert float(re) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert float(im) == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_phase(self, capsys):
        rc = main(["phase", "--N", "2", "--alpha", "1.0", "--k", "1"])
        assert rc == 0
        vals = _values(capsys.readouterr().out)
        assert float(vals["sigma"]) == pytest.approx(PARABOLIC_C, rel=1e-12)
        assert float(vals["delta"]) == pytest.approx(PARABOLIC_C, rel=1e-12)
        assert float(vals["eta"]) == pytest.approx(math.sqrt(2.0) * PARABOLIC_C, rel=1e-12)

    def test_ddp(self, capsys):
        rc = main(["ddp", "--N", "2", "--alpha", "1.0"])
        assert rc == 0
        vals = _values(capsys.readouterr().out)
        assert float(vals["P"]) == pytest.approx(0.3011888124839908, rel=1e-12)

    def test_znt_double(self, capsys):
        rc = main(["znt", "--branch", "double", "--N", "2", "--alpha", "1.0"])
        assert rc == 0
        assert float(_values(capsys.readouterr().out)["P"]) == pytest.approx(
            0.3395618929222485, rel=1e-12
        )

    def test_znt_tunnel(self, capsys):
        rc = main(["znt", "--branch", "tunnel", "--N", "2", "--alpha", "1.0"])
        assert rc == 0
        assert float(_values(capsys.readouterr().out)["P"]) == pytest.approx(
            0.1576701673254211, rel=1e-12
        )

    def test_znt_branch_failure_exit_code(self, capsys):
        rc = main(["znt", "--branch", "tunnel", "--N", "10", "--alpha", "0.45"])
        assert rc == 1
        assert "BranchFailure" in capsys.readouterr().err

    def test_znt_tunnel_overflow_exit_code(self, capsys):
        # B e^(2 sigma) is beyond the float range here; P underflows to 0
        rc = main(["znt", "--branch", "tunnel", "--N", "2", "--alpha", "50"])
        assert rc == 0
        assert 0.0 <= float(_values(capsys.readouterr().out)["P"]) <= 1.0

    def test_znt_domain_failure_exit_code(self, capsys):
        rc = main(["znt", "--branch", "tunnel", "--N", "10", "--alpha", "0.30"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_ddp_rejects_odd_n(self, capsys):
        rc = main(["ddp", "--N", "3", "--alpha", "1.0"])
        assert rc == 2
        assert "even" in capsys.readouterr().err


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "1.0",
             "--points", "3", "--spacing", "linear", "--methods", "ddp,znt-double",
             "--out", str(out)]
        )
        assert rc == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        rows, methods = parse_sweep_csv(out.read_text(encoding="ascii"))
        assert methods == ("ddp", "znt-double")
        assert len(rows) == 3
        assert rows[0].values["ddp"] == ddp_probability(2, 0.5)

    def test_file_is_the_emitted_rows(self, tmp_path):
        # the file sweep writes is emit_sweep_csv of run_sweep on the same grid
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--N", "6,2", "--alpha-min", "0.5", "--alpha-max", "1.0",
                   "--points", "3", "--methods", "numeric,ddp", "--out", str(out)])
        assert rc == 0
        config = SweepConfig(n_values=(2, 6), alpha_min=0.5, alpha_max=1.0, points=3,
                             methods=("numeric", "ddp"))
        assert out.read_text(encoding="ascii") == emit_sweep_csv(run_sweep(config), config.methods)

    def test_comma_separated_n(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "--N", "6,2", "--alpha-min", "0.5", "--alpha-max", "1.0",
             "--points", "2", "--methods", "ddp", "--out", str(out)]
        )
        assert rc == 0
        rows, _ = parse_sweep_csv(out.read_text(encoding="ascii"))
        assert [r.n for r in rows] == [2, 2, 6, 6]

    def test_tunnel_overflow_cells_recorded(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "--N", "2", "--alpha-min", "1", "--alpha-max", "200", "--points", "5",
             "--methods", "ddp,znt-tunnel", "--out", str(out)]
        )
        assert rc == 0
        rows, _ = parse_sweep_csv(out.read_text(encoding="ascii"))
        assert len(rows) == 5
        assert all(r.values["ddp"] is not None for r in rows)
        overflowed = [r for r in rows if r.alpha > 50.0]
        assert overflowed
        for r in overflowed:
            assert r.status == "ok"
            assert 0.0 <= r.values["znt-tunnel"] <= 1.0

    def test_rejects_parabolic(self, tmp_path, capsys):
        # sweep covers the glancing family only and has no --model option
        for family in ("parabolic", "superparabolic"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["sweep", "--model", family, "--N", "2", "--alpha-min", "0.5",
                     "--alpha-max", "1.0", "--points", "2", "--out", str(tmp_path / "x.csv")]
                )
            assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_workers_option_removed(self, tmp_path, capsys):
        # a sweep runs in this process and has no worker setting; the old flag
        # is an unknown argument
        out = tmp_path / "s.csv"
        argv = ["sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "1.0",
                "--points", "2", "--methods", "ddp", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_unallocatable_grid_exits_2(self, tmp_path, capsys):
        # numpy refuses the 7 TiB alpha grid before allocating any of it; the
        # input is at fault, so one error line and exit 2, not a traceback
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--N", "2", "--alpha-min", "0.1", "--alpha-max", "1", "--points",
                   "1000000000000", "--methods", "ddp", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: MemoryError: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_rejects_unknown_method(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "1.0",
             "--points", "2", "--methods", "euler", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestCompareCommand:
    @pytest.fixture()
    def sweep_csv(self, tmp_path):
        rows = []
        for i in range(9):
            a = 1.8 + 0.1 * i
            rows.append(
                SweepRow(
                    n=2,
                    alpha=a,
                    values={"numeric": abs(a - 2.0) + 0.01, "ddp": abs(a - 2.2) + 0.01},
                    status="ok",
                )
            )
        path = tmp_path / "rows.csv"
        write_sweep_csv(rows, ("numeric", "ddp"), str(path))
        return path

    def test_stdout_json(self, sweep_csv, capsys):
        rc = main(["compare", str(sweep_csv), "--threshold", "0.0"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_value"] == 2
        assert data["nodes"]["numeric"] == [2.0]
        assert data["frequency_agreement"]["ddp"] == pytest.approx(0.1)

    def test_report_file(self, sweep_csv, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["compare", str(sweep_csv), "--threshold", "0.0", "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max|P_ddp - P_numeric|" in out
        assert f"report written to {report}" in out
        assert json.loads(report.read_text(encoding="ascii"))["n_value"] == 2

    def test_missing_numeric_column(self, tmp_path, capsys):
        rows = [SweepRow(n=2, alpha=a, values={"ddp": 0.1}, status="ok") for a in (0.5, 1.0)]
        path = tmp_path / "noref.csv"
        write_sweep_csv(rows, ("ddp",), str(path))
        rc = main(["compare", str(path)])
        assert rc == 1
        assert "MissingColumn" in capsys.readouterr().err

    def test_repeated_method_column(self, sweep_csv, capsys):
        # a header naming a method twice is bad input: no column is dropped
        lines = sweep_csv.read_text(encoding="ascii").splitlines()
        lines[0] = lines[0].replace(",ddp,", ",numeric,")
        sweep_csv.write_text("\n".join(lines) + "\n", encoding="ascii")
        rc = main(["compare", str(sweep_csv)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == "error: repeated method column 'numeric'\n"

    def test_end_to_end_with_numeric(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        rc = main(
            ["sweep", "--N", "2", "--alpha-min", "0.6", "--alpha-max", "1.4",
             "--points", "3", "--spacing", "linear", "--methods", "numeric,ddp",
             "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["compare", str(out)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert 0.0 < data["max_abs_deviation"]["ddp"] < 0.2

    def test_multi_n_sweep_is_refused(self, tmp_path, capsys):
        # a sweep over several N writes one CSV, and compare takes one N panel
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--N", "2,6", "--alpha-min", "0.5", "--alpha-max", "1.0",
                   "--points", "3", "--methods", "numeric,ddp", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert main(["compare", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: compare_methods needs a single N, got [2, 6]\n"


@pytest.mark.parametrize(
    "argv, param",
    [
        (["ddp", "--N", "2", "--alpha", "inf"], "alpha"),
        (["ddp", "--N", "2", "--alpha", "nan"], "alpha"),
        (["znt", "--branch", "double", "--N", "2", "--alpha", "inf"], "alpha"),
        (["zeros", "--N", "2", "--alpha", "inf"], "alpha"),
        (["propagate", "--model", "parabolic", "--A", "inf", "--B", "1", "--V0", "1"], "A"),
        (["sweep", "--N", "2", "--alpha-min", "1", "--alpha-max", "inf", "--points", "3",
          "--methods", "ddp", "--out", "{out}"], "alpha_max"),
        (["propagate", "--N", "2", "--alpha", "1", "--tail-tol", "inf"], "tail_tol"),
        (["propagate", "--N", "2", "--alpha", "1", "--tail-tol", "nan"], "tail_tol"),
        (["compare", "{csv}", "--threshold", "nan"], "threshold"),
        (["compare", "{csv}", "--threshold", "inf"], "threshold"),
    ],
)
def test_non_finite_input_exits_2(argv, param, tmp_path, capsys):
    out = tmp_path / "x.csv"
    csv = tmp_path / "rows.csv"
    csv.write_text("N,alpha,numeric,status\n2,1,0.5,ok\n", encoding="ascii")
    start = time.perf_counter()
    rc = main([tok.format(out=out, csv=csv) for tok in argv])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert elapsed < 5.0
    assert f"{param} must " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


# the quantity that a closed-form subcommand's range error names
_RANGE_QUANTITY = {
    "ddp": "eta = 2 nu_N alpha^((N+1)/N)",
    "phase": "eta = 2 nu_N alpha^((N+1)/N)",
    "znt": "a^2 = 1/(4 alpha^3)",
}


@pytest.mark.parametrize(
    "argv, error",
    [
        (["ddp", "--N", "2", "--alpha", "1e300"], "OverflowError"),
        (["phase", "--N", "2", "--alpha", "1e300"], "OverflowError"),
        (["znt", "--branch", "double", "--N", "2", "--alpha", "1e300"], "OverflowError"),
        (["znt", "--branch", "double", "--N", "2", "--alpha", "1e-300"], "ZeroDivisionError"),
        (["znt", "--branch", "tunnel", "--N", "2", "--alpha", "1e-300"], "ZeroDivisionError"),
        (["propagate", "--N", "2", "--alpha", "1e-300"], "ZeroDivisionError"),
        (["propagate", "--N", "200", "--alpha", "1e300"], "OverflowError"),
        (["propagate", "--model", "parabolic", "--A", "1", "--B", "1e300", "--V0", "1"], "OverflowError"),
        (["propagate", "--N", "2", "--alpha", "1e6"], "NonConvergence"),
        # 4 alpha^3 overflows to inf without raising; a^2 would be 0
        (["znt", "--branch", "double", "--N", "100", "--alpha", "4e102"], "OverflowError"),
        # alpha^3 is subnormal; a^2 would be inf
        (["znt", "--branch", "tunnel", "--N", "2", "--alpha", "1e-105"], "OverflowError"),
    ],
)
def test_numeric_failure_exits_1(argv, error, capsys):
    # range errors in the numerics and the collocation node cap end in exit 1, not a traceback
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {error}: ")
    assert captured.out == ""
    # a range error names what left the float range and the inputs, not an errno
    assert "out of range" not in captured.err and "division by zero" not in captured.err
    if argv[0] in _RANGE_QUANTITY:
        assert f": {_RANGE_QUANTITY[argv[0]]} " in captured.err
        assert f"at N={argv[-3]}, alpha={float(argv[-1])!r}" in captured.err


def test_sweep_records_range_errors(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--N", "2", "--alpha-min", "1e200", "--alpha-max", "1e300", "--points", "3",
               "--methods", "ddp,znt-double,znt-tunnel", "--out", str(out)])
    assert rc == 0
    rows, _ = parse_sweep_csv(out.read_text(encoding="ascii"))
    assert len(rows) == 3
    assert rows[-1].status == "ddp:OverflowError;znt-double:OverflowError;znt-tunnel:OverflowError"
    assert all(v is None for v in rows[-1].values.values())


def _assert_clean_exit(argv):
    """main exits 0, 1 or 2 (argparse: SystemExit(2)); exit 1 names the error class."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            assert exc.code == 2
            return
    assert rc in (0, 1, 2)
    if rc == 1:
        assert re.match(r"error: [A-Z]\w*: ", err.getvalue()), err.getvalue()


# the second branch draws only even N, so that the model is often valid
_N_ARG = (
    st.integers(min_value=-10, max_value=400).map(str)
    | st.integers(min_value=-5, max_value=200).map(lambda k: str(2 * k))
    | st.sampled_from(["2.5", "abc", "1e3", ""])
)
# repr covers nan, inf, subnormals and the float extremes; 1.8e308 parses as
# inf; the second branch spreads positive alphas over every decade
_ALPHA_ARG = (
    st.floats().map(repr)
    | st.floats(min_value=-323.0, max_value=308.0).map(lambda x: repr(10.0**x))
    | st.sampled_from(["5e-324", "1.8e308", "-0.0"])
)
_CLOSED_FORM_COMMANDS = (
    ["zeros"], ["phase"], ["ddp"], ["znt", "--branch", "double"], ["znt", "--branch", "tunnel"]
)


@st.composite
def _closed_form_argv(draw):
    argv = [*draw(st.sampled_from(_CLOSED_FORM_COMMANDS)),
            f"--N={draw(_N_ARG)}", f"--alpha={draw(_ALPHA_ARG)}"]
    if argv[0] == "phase":
        argv.append(f"--k={draw(st.integers(min_value=-2, max_value=12))}")
    return argv


# propagate and numeric sweeps are left out: a step-cap case takes about
# 3.5 s, and test_numeric_failure_exits_1 covers them
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=_closed_form_argv())
def test_fuzzed_closed_form_arguments_exit_cleanly(argv):
    _assert_clean_exit(argv)


# each subcommand's long flags other than --help
_SETTINGS_KEYS = {"tail-tol"}
_SUB_OPTIONS = {
    "sweep": {"N", "alpha-min", "alpha-max", "points", "spacing", "methods", "out"}
    | _SETTINGS_KEYS,
    "propagate": {"model", "N", "alpha", "A", "B", "V0", "trace", "samples"} | _SETTINGS_KEYS,
    "zeros": {"N", "alpha"},
    "phase": {"N", "alpha", "k"},
    "ddp": {"N", "alpha"},
    "znt": {"branch", "N", "alpha"},
    "compare": {"threshold", "report"},
}


@pytest.mark.parametrize("name", sorted(_SUB_OPTIONS))
def test_subcommand_help(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in _SUB_OPTIONS[name]:
        assert f"--{key}" in out


@pytest.mark.parametrize("argv, error", [
    (["ddp", "--N", "2", "--alpha", "1", "--config", "{cfg}"], "unrecognized arguments: --config {cfg}"),
    (["ddp", "--N", "2", "--alpha", "1", "--config={cfg}"], "unrecognized arguments: --config={cfg}"),
    (["--config={cfg}", "ddp", "--N", "2", "--alpha", "1"], "unrecognized arguments: --config={cfg}"),
    # ahead of the subcommand, argparse reads the file name as the subcommand
    (["--config", "{cfg}", "ddp", "--N", "2", "--alpha", "1"], "invalid choice: '{cfg}'"),
], ids=["after-flags", "after-flags-eq", "leading-eq", "leading"])
def test_config_option_removed(tmp_path, argv, error):
    # every input is a flag: --config is an unknown argument, refused by
    # argparse with exit 2 before anything runs, even when the file exists
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2\nalpha = 1.0\n", encoding="ascii")
    rc, out, err = _run([arg.format(cfg=cfg) for arg in argv])
    assert (rc, out) == (("exit", 2), "")
    assert error.format(cfg=cfg) in err


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
    return rc, out.getvalue(), err.getvalue()


def _library_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_parser_defaults_are_the_library_defaults(tmp_path, capsys):
    parser = _build_parser()
    sweep = parser.parse_args(["sweep", "--N", "2", "--alpha-min", "1", "--alpha-max", "2",
                               "--points", "2", "--out", "s.csv"])
    assert sweep.spacing == SweepConfig.spacing
    assert sweep.tail_tol == PropagatorSettings.tail_tol
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "{" + ",".join(SPACINGS) + "}" in capsys.readouterr().out
    assert parser.parse_args(["propagate"]).tail_tol == PropagatorSettings.tail_tol
    assert parser.parse_args(["compare", "s.csv"]).threshold == _library_default(compare_methods, "threshold")
    # without --samples a trace takes propagate_trace's own sample count: a header plus one line each
    trace = tmp_path / "trace.csv"
    rc, _, err = _run(["propagate", "--N", "2", "--alpha", "1", "--trace", str(trace)])
    assert rc == 0, err
    lines = trace.read_text(encoding="ascii").splitlines()
    assert len(lines) == _library_default(propagate_trace, "sample_count") + 1


@pytest.mark.parametrize("samples, rc, error", [
    ("1", 2, "error: sample_count must be an integer >= 2, got 1"),
    ("0", 2, "error: sample_count must be an integer >= 2, got 0"),
    ("262145", 1, "error: NonConvergence: sample_count=262145 reads 131073 distinct |t|"),
])
def test_samples_refused_with_or_without_trace(tmp_path, samples, rc, error):
    # a count the trace would refuse ends the command before any output,
    # whether or not a trace is asked for
    trace = tmp_path / "trace.csv"
    for extra in ([], ["--trace", str(trace)]):
        got, out, err = _run(["propagate", "--N", "2", "--alpha", "1", "--samples", samples, *extra])
        assert (got, out) == (rc, "") and err.startswith(error), err
        assert not trace.exists()


@pytest.mark.parametrize("model", [
    ["--N", "2", "--alpha", "1"],
    ["--model", "parabolic", "--A", "1", "--B", "4", "--V0", "1"],
], ids=["n2", "parabolic"])
@pytest.mark.parametrize("where, errno", [
    ("missing/t.csv", 2),  # no such directory
    (".", 21),  # a directory
    ("file/t.csv", 20),  # below a regular file
], ids=["missing-dir", "is-dir", "under-file"])
def test_unwritable_trace_prints_nothing(tmp_path, model, where, errno):
    # a trace file that cannot be opened ends the command before the result is printed
    (tmp_path / "file").write_text("", encoding="ascii")
    trace = tmp_path / where
    rc, out, err = _run(["propagate", *model, "--trace", str(trace)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: [Errno {errno}] ") and err.count("\n") == 1, err


def test_parser_builds_with_wrapped_library_names(monkeypatch):
    # a tracer may replace the names cli imports with (*args, **kwargs)
    # wrappers before main first builds its parser
    fn = cli.compare_methods
    monkeypatch.setattr(cli, "compare_methods", lambda *args, **kwargs: fn(*args, **kwargs))
    _build_parser.cache_clear()
    try:
        args = _build_parser().parse_args(["compare", "s.csv"])
        assert args.threshold == _library_default(compare_methods, "threshold")
    finally:
        _build_parser.cache_clear()


def test_cached_parser_behaves_as_fresh():
    # main builds its parser once per process; a sequence of calls with
    # different subcommands, flags set in one call and left to their
    # defaults in the next, and argparse errors gives what a fresh parser
    # gives for each call
    calls = [
        ["ddp", "--N", "6", "--alpha", "0.7"],
        ["propagate", "--N", "6", "--alpha", "0.5", "--tail-tol", "1e-13"],
        ["phase", "--N", "6", "--alpha", "0.7", "--k", "2"],
        ["ddp", "--N", "2", "--alpha", "1.0"],
        ["znt", "--N", "6", "--alpha", "0.7", "--branch", "double"],
        ["propagate", "--N", "2", "--alpha", "1.0"],
        ["znt", "--N", "6", "--alpha", "0.7"],
        ["ddp", "--N", "3", "--alpha", "1.0"],
        ["phase", "--N", "2", "--alpha", "1.0"],
    ]
    cached = [_run(argv) for argv in calls]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_run(argv))
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 0, 0, 0, ("exit", 2), 2, 0]
    assert "sigma" in cached[2][1] and "sigma" in cached[-1][1] and cached[2][1] != cached[-1][1]


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["fit", "--curves", "x.csv"], ["fit"], ["fit", "--help"],
], ids=["curves", "bare", "help"])
def test_fit_command_removed(argv, capsys):
    # fit is an unknown subcommand, refused by argparse, and the help lists no fit
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'fit'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "fit" not in capsys.readouterr().out
