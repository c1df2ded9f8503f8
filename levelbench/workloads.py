"""Workloads of the levelcross benchmark: inputs, timed calls and output checks.

Each workload turns a seed into an endless sequence of calls.  A call
times only the library entry point it drives (`run`); checking its
outputs against the frozen references happens outside the timed region
(`check`).  An op is the unit that `ops_per_s` counts: one (method, grid
point) cell of a sweep, one `propagate`/`propagate_trace` call, or one
closed-form call.

The numeric workloads draw from frozen pools (refs/*.json) so that every
op of every seed is gated against a value computed at the seed commit.
A pool is dealt into cycles with the same total cost (freeze.cycles),
each about one run long; the seed picks a cycle and where in it the run
starts, and a run ends only after whole passes over its cycle.  So every
run does the same work, whichever seed it has, and at the seed commit no
input repeats within a run.
closed-forms calls take microseconds, so a run makes hundreds of
thousands of them: it starts with the frozen pool, rotated by the seed,
and continues with fresh seeded pairs that are checked for P in [0, 1]
only.  Fresh pairs also keep a result cache from ever being hit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import traceback
from collections import Counter
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
from levelcross.models import Parabolic

REF_DIR = Path(__file__).resolve().parent / "refs"

# ROADMAP items 3 and 5 must keep numeric P within 1e-9 of today's values;
# the closed forms are plain float arithmetic and must not move at all.
NUMERIC_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
# The last trace sample sits at the end of the integration window, before
# the tail completion; at the seed it is at most 2.2e-3 from the asymptotic P.
TRACE_TOL = 1e-2
TRACE_SAMPLES = 256

METHODS = ("numeric", "ddp", "znt-double", "znt-tunnel")
CLOSED_FORMS = ("ddp", "znt-double", "znt-tunnel")


def tolerance(method: str) -> float:
    return {"numeric": NUMERIC_TOL, "trace": TRACE_TOL}.get(method, CLOSED_FORM_TOL)


class Gate:
    """Outcome of every op, checked against its frozen reference.

    An op is ok when it returns a P in [0, 1] that matches its reference
    (when it has one).  It is failed when its output is wrong: P outside
    [0, 1], P off its reference, an exception where the seed commit
    returned a number, or a CLI call that exits nonzero.  An op that
    raises where the seed commit raised too, or that has no reference,
    is neither: the library refused it, as at the seed, and it only
    lowers ok_share.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.ok_by_method: Counter[str] = Counter()
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.messages: dict[str, str] = {}
        self.max_dp: dict[str, float] = {}
        self.cell_failures: Counter[str] = Counter()
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def record(self, method: str, outcome: Any, ref: Any, where: str) -> None:
        self.attempted += 1
        if isinstance(outcome, BaseException):
            name = type(outcome).__name__
            self.messages.setdefault(name, str(outcome)[:200])
            outcome = name
        if isinstance(outcome, str):
            self.errors[outcome] += 1
            if isinstance(ref, float):
                self.fail(f"{where} {method}: raised {outcome}, reference P={ref!r}")
            return
        p = float(outcome)
        if not 0.0 <= p <= 1.0:
            self.fail(f"{where} {method}: P={p!r} outside [0, 1]")
            return
        if isinstance(ref, float):
            dp = abs(p - ref)
            self.max_dp[method] = max(self.max_dp.get(method, 0.0), dp)
            if dp > tolerance(method):
                self.fail(f"{where} {method}: |P - P_ref| = {dp:.3g} > {tolerance(method):g}")
                return
        self.ok += 1
        self.ok_by_method[method] += 1

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.ok_by_method.update(other.ok_by_method)
        self.failed += other.failed
        self.errors.update(other.errors)
        for k, v in other.messages.items():
            self.messages.setdefault(k, v)
        for k, v in other.max_dp.items():
            self.max_dp[k] = max(self.max_dp.get(k, 0.0), v)
        self.cell_failures.update(other.cell_failures)
        self.failures.extend(other.failures[: 10 - len(self.failures)])


@dataclass
class Call:
    """One closed-loop request: `run` is timed, `check` is not."""

    ops: int
    run: Callable[[Any], Any]
    check: Callable[[Any, Gate], None]
    points: int = 0  # numeric grid points or propagations the call asks for
    cycle_end: bool = True  # a run may end after this call


def load_refs(name: str) -> dict:
    with open(REF_DIR / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ref(value: Any) -> Any:
    # JSON numbers are P values, strings name the exception the seed raised
    return float(value) if isinstance(value, (int, float)) else value


def walk_cycle(seed: int, cycles: list[list]) -> Iterator[tuple[str, Any, bool]]:
    """The seed's cycle, from the seed's start, round and round.

    Yields (label, entry, whether the entry completes a pass over the cycle).
    """
    rng = np.random.default_rng(seed)
    c = int(rng.integers(len(cycles)))
    n = len(cycles[c])
    start = int(rng.integers(n))
    for i in count():
        k = (start + i) % n
        yield f"cycle {c} entry {k}", cycles[c][k], (i + 1) % n == 0


# ---------------------------------------------------------------- sweeps


def call_cli(api: Any, argv: list[str]) -> tuple[int, str]:
    """cli.main with its output captured, as the exit code and stderr.

    argparse exits become their exit codes, and an exception that escapes
    cli.main becomes exit code 1, as it would for the installed command.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = api.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the whole call fails; keep the traceback
            traceback.print_exc()
            code = 1
    return code, err.getvalue().strip()


def sweep_argv(spec: dict, out_csv: str) -> list[str]:
    return [
        "sweep", "--N", str(spec["N"]),
        "--alpha-min", spec["alpha_min"], "--alpha-max", spec["alpha_max"],
        "--points", str(spec["points"]), "--spacing", spec["spacing"],
        "--methods", ",".join(spec["methods"]), "--out", out_csv,
    ]


def read_csv_cells(path: str) -> tuple[list[str], list[dict[str, Any]]]:
    """Rows of a sweep CSV as {N, alpha, method: P or exception name}.

    Parsed here rather than with levelcross.harness so that the check
    does not depend on the code it checks.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        table = list(csv.reader(fh))
    header, body = table[0], table[1:]
    methods = header[2:-1]
    rows = []
    for cells in body:
        errors = {}
        if cells[-1] != "ok":
            for entry in cells[-1].split(";"):
                method, _, rest = entry.partition(":")
                errors[method] = rest.split(":", 1)[0].strip() or "unknown"
        row: dict[str, Any] = {"N": int(cells[0]), "alpha": float(cells[1])}
        for m, cell in zip(methods, cells[2:-1]):
            row[m] = errors.get(m, "unknown") if cell == "NaN" else float(cell)
        rows.append(row)
    return methods, rows


def _report_problem(report_path: str, n: int, rows: list[dict[str, Any]], methods: list[str]) -> str:
    """Empty if the compare report agrees with the CSV it was made from."""
    with open(report_path, "r", encoding="ascii") as fh:
        report = json.load(fh)
    if report.get("n_value") != n:
        return f"report n_value {report.get('n_value')!r} != {n}"
    for m in methods:
        if m == "numeric":
            continue
        devs = [
            abs(r[m] - r["numeric"]) for r in rows
            if isinstance(r[m], float) and isinstance(r["numeric"], float)
        ]
        want = max(devs) if devs else None
        got = report["max_abs_deviation"].get(m)
        if (want is None) != (got is None) or (want is not None and abs(got - want) > 1e-12):
            return f"report max_abs_deviation[{m}] = {got!r}, CSV gives {want!r}"
    return ""


class SweepWorkload:
    """`levelcross sweep` then `levelcross compare` through cli.main.

    A call is one round: every sweep of one pool entry, each followed by
    compare on the CSV it wrote.  Its ops are the cells of those sweeps.
    """

    def __init__(self, name: str, workdir: Path, refs: dict | None = None) -> None:
        self.name = name
        self.cycles = (refs or load_refs(name))["cycles"]
        self.workdir = workdir

    def calls(self, seed: int) -> Iterator[Call]:
        for label, rnd, cycle_end in walk_cycle(seed, self.cycles):
            call = self._call(label, rnd)
            call.cycle_end = cycle_end
            yield call

    def _call(self, label: str, rnd: list[dict]) -> Call:
        ops = sum(spec["points"] * len(spec["methods"]) for spec in rnd)
        points = sum(spec["points"] for spec in rnd if "numeric" in spec["methods"])
        files = [(str(self.workdir / f"{self.name}-{j}.csv"), str(self.workdir / f"{self.name}-{j}.json"))
                 for j in range(len(rnd))]

        def run(api: Any) -> list:
            return [
                (call_cli(api, sweep_argv(spec, csv_path)),
                 call_cli(api, ["compare", csv_path, "--report", report_path]))
                for spec, (csv_path, report_path) in zip(rnd, files)
            ]

        def check(outs: list, gate: Gate) -> None:
            for spec, paths, ((code, err), (ccode, cerr)) in zip(rnd, files, outs):
                where = f"{self.name} {label} N={spec['N']}"
                rows, problem = [], f"sweep exit {code} {err!r}, compare exit {ccode} {cerr!r}"
                if code == 0 and ccode == 0:
                    rows, problem = _read_round(spec, *paths)
                if problem:
                    # a failed CLI call or a wrong CSV/report fails every cell it covers
                    for _ in range(spec["points"] * len(spec["methods"])):
                        gate.attempted += 1
                        gate.fail(f"{where}: {problem}")
                    continue
                for row, ref in zip(rows, spec["rows"]):
                    for m in spec["methods"]:
                        if not isinstance(row[m], float):
                            gate.cell_failures[m] += 1
                        gate.record(m, row[m], _ref(ref[m]), f"{where} alpha={row['alpha']!r}")

        return Call(ops=ops, run=run, check=check, points=points)


def _read_round(spec: dict, csv_path: str, report_path: str) -> tuple[list, str]:
    """CSV rows of one sweep and a problem description, empty if none."""
    methods, rows = read_csv_cells(csv_path)
    if methods != list(spec["methods"]) or len(rows) != len(spec["rows"]):
        return rows, f"CSV has methods {methods} and {len(rows)} rows"
    for row, ref in zip(rows, spec["rows"]):
        if row["N"] != spec["N"] or abs(row["alpha"] - ref["alpha"]) > 1e-12 * ref["alpha"]:
            return rows, f"CSV row N={row['N']} alpha={row['alpha']!r}, expected alpha={ref['alpha']!r}"
    return rows, _report_problem(report_path, spec["N"], rows, methods)


# ---------------------------------------------------------------- propagate


class PropagateWorkload:
    """Direct propagate / propagate_trace calls on distinct Parabolic models."""

    name = "propagate-models"

    def __init__(self, refs: dict | None = None) -> None:
        self.cycles = (refs or load_refs(self.name))["cycles"]

    def calls(self, seed: int) -> Iterator[Call]:
        for label, item, cycle_end in walk_cycle(seed, self.cycles):
            call = self._call(label, item, Parabolic(item["A"], item["B"], item["V0"]))
            call.cycle_end = cycle_end
            yield call

    def _call(self, label: str, item: dict, model: Any) -> Call:
        ref = _ref(item["P"])
        where = f"{self.name} {label} {model!r}"
        if item["kind"] == "trace":

            def run(api: Any) -> Any:
                try:
                    return api.propagate_trace(model, sample_count=TRACE_SAMPLES)
                except Exception as exc:  # recorded as the op's outcome
                    return exc

            def check(out: Any, gate: Gate) -> None:
                problem = "" if isinstance(out, BaseException) else _trace_problem(out)
                if problem:
                    gate.attempted += 1
                    gate.fail(f"{where} trace: {problem}")
                else:
                    gate.record("trace", out if isinstance(out, BaseException) else out[-1][1], ref, where)

        else:

            def run(api: Any) -> Any:
                try:
                    return api.propagate(model).probability
                except Exception as exc:  # recorded as the op's outcome
                    return exc

            def check(out: Any, gate: Gate) -> None:
                gate.record("numeric", out, ref, where)

        return Call(ops=1, run=run, check=check, points=1)


def _trace_problem(samples: list) -> str:
    if len(samples) != TRACE_SAMPLES:
        return f"{len(samples)} samples, asked for {TRACE_SAMPLES}"
    ts = [s[0] for s in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])) or abs(ts[0] + ts[-1]) > 1e-9 * abs(ts[-1]):
        return "sample times are not increasing and symmetric"
    for t, p1, p2, norm in samples:
        if not (-1e-12 <= p1 <= 1.0 + 1e-9 and -1e-12 <= p2 <= 1.0 + 1e-9):
            return f"population outside [0, 1] at t={t!r}"
        if abs(p1 + p2 - norm) > 1e-12 or abs(norm - 1.0) > 1e-6:
            return f"norm {norm!r} at t={t!r}"
    return ""


# ---------------------------------------------------------------- closed forms


def draw_pairs(rng: np.random.Generator, size: int) -> list[tuple[int, float]]:
    """Even N uniform in [2, 100], alpha log-uniform in [1e-3, 1e3]."""
    ns = 2 * rng.integers(1, 51, size=size)
    alphas = 10.0 ** rng.uniform(-3.0, 3.0, size=size)
    return [(int(n), float(a)) for n, a in zip(ns, alphas)]


class ClosedFormWorkload:
    """ddp_probability, glancing_double_crossing and glancing_tunneling per pair."""

    name = "closed-forms"

    def __init__(self, refs: dict | None = None) -> None:
        self.pool = (refs or load_refs(self.name))["pairs"]

    def calls(self, seed: int) -> Iterator[Call]:
        rng = np.random.default_rng(seed)
        start = int(rng.integers(len(self.pool)))
        for item in self.pool[start:] + self.pool[:start]:
            yield from self._calls(item["N"], item["alpha"], item)
        while True:
            for n, alpha in draw_pairs(rng, 1000):
                yield from self._calls(n, alpha, None)

    def _calls(self, n: int, alpha: float, item: dict | None) -> Iterator[Call]:
        for method in CLOSED_FORMS:
            ref = None if item is None else _ref(item[method])
            yield Call(ops=1, run=_closed_form_run(method, n, alpha),
                       check=_closed_form_check(method, ref, f"{self.name} N={n} alpha={alpha!r}"))


_ENTRY = {"ddp": "ddp_probability", "znt-double": "glancing_double_crossing",
          "znt-tunnel": "glancing_tunneling"}


def _closed_form_run(method: str, n: int, alpha: float) -> Callable[[Any], Any]:
    entry = _ENTRY[method]

    def run(api: Any) -> Any:
        try:
            return getattr(api, entry)(n, alpha)
        except Exception as exc:  # recorded as the op's outcome
            return exc

    return run


def _closed_form_check(method: str, ref: Any, where: str) -> Callable[[Any, Gate], None]:
    def check(out: Any, gate: Gate) -> None:
        gate.record(method, out, ref, where)

    return check


def make(name: str, workdir: Path, refs: dict | None = None):
    if name in ("sweep-n2", "sweep-n10"):
        return SweepWorkload(name, workdir, refs)
    if name == "propagate-models":
        return PropagateWorkload(refs)
    if name == "closed-forms":
        return ClosedFormWorkload(refs)
    raise ValueError(f"unknown workload {name!r}")
