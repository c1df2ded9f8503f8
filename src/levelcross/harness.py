"""Parameter sweeps over the glancing family and method-comparison reports.

A sweep evaluates a chosen set of probability methods on an alpha grid
and writes one CSV row per (N, alpha) point.  Method failures (branch
breakdown, non-convergence, a float overflow or division by zero) are
recorded in a status column instead of aborting the run; the
probability cell carries the literal token NaN.
Floats are written with 17 significant digits so parse(emit(rows))
round-trips exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .ddp import ddp_probability
from .errors import MissingColumn, _attempt
from .models import PropagatorSettings, Superparabolic, check_glancing
from .znt import glancing_double_crossing, glancing_tunneling

__all__ = [
    "METHODS",
    "ROUTES",
    "SPACINGS",
    "SweepConfig",
    "SweepRow",
    "ComparisonReport",
    "run_sweep",
    "emit_sweep_csv",
    "parse_sweep_csv",
    "write_sweep_csv",
    "read_sweep_csv",
    "find_oscillation_peaks",
    "find_oscillation_nodes",
    "compare_methods",
    "report_to_json",
]


def __getattr__(name: str):
    # levelbench/spans.py's seam, which no route calls, resolved on demand: no numpy at import
    if name == "propagate":
        from .propagator import propagate

        return propagate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _numeric(models, settings):
    from .propagator import _propagate_batch

    return [r if isinstance(r, Exception) else r.probability for r in _propagate_batch(models, settings)]


# each method's route: (models, settings) -> its outcome for each model, in
# order, which is P or the failure in _FAILURES that the method raised.  The
# closed forms are looked up at call time, so a wrapper set on this module's
# name is the one called.
ROUTES = {
    "numeric": _numeric,
    "ddp": lambda models, _: [_attempt(ddp_probability, m.N, m.alpha) for m in models],
    "znt-double": lambda models, _: [_attempt(glancing_double_crossing, m.N, m.alpha) for m in models],
    "znt-tunnel": lambda models, _: [_attempt(glancing_tunneling, m.N, m.alpha) for m in models],
}
METHODS = tuple(ROUTES)
SPACINGS = ("linear", "log")

_NAN_TOKEN = "NaN"


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for run_sweep; methods are kept in canonical METHODS order."""

    n_values: tuple[int, ...]
    alpha_min: float
    alpha_max: float
    points: int
    spacing: str = "log"
    methods: tuple[str, ...] = METHODS
    settings: PropagatorSettings = field(default_factory=PropagatorSettings)

    def __post_init__(self) -> None:
        ns = set()
        for n in self.n_values:
            ns.add(check_glancing(n, self.alpha_min, "alpha_min")[0])
            check_glancing(n, self.alpha_max, "alpha_max")
        ns = tuple(sorted(ns))
        if not ns:
            raise ValueError("n_values must be nonempty")
        object.__setattr__(self, "n_values", ns)
        if not self.alpha_max >= self.alpha_min:
            raise ValueError("alpha_max must be >= alpha_min")
        if not isinstance(self.points, numbers.Integral) or self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        if self.spacing not in SPACINGS:
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        requested = set(self.methods)
        unknown = requested.difference(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not requested:
            raise ValueError("method set must be nonempty")
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in requested))

    def alpha_grid(self) -> list[float]:
        import numpy as np

        if self.spacing == "linear":
            grid = np.linspace(self.alpha_min, self.alpha_max, self.points)
        else:
            grid = np.geomspace(self.alpha_min, self.alpha_max, self.points)
        return [float(a) for a in grid]


@dataclass(frozen=True)
class SweepRow:
    """One grid point; values maps method name to P or None on failure."""

    n: int
    alpha: float
    values: dict[str, float | None]
    status: str = "ok"


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method agreement metrics against the numeric column.

    frequency_agreement is the worst relative alpha distance from a
    numeric node to the nearest node of the method, or None when either
    node list is empty.
    """

    n_value: int
    threshold: float
    max_abs_deviation: dict[str, float | None]
    peaks: dict[str, list[float]]
    nodes: dict[str, list[float]]
    peak_counts: dict[str, int]
    frequency_agreement: dict[str, float | None]


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every requested method on the grid.

    Rows come back ordered by (N, ascending alpha).  Per-point failures
    are recorded in the row status, never raised.
    """
    grid = config.alpha_grid()
    rows = []
    for n in config.n_values:  # a panel at a time, so that a failed solve redoes one N only
        models = [Superparabolic(n, alpha) for alpha in grid]
        columns = [ROUTES[m](models, config.settings) for m in config.methods]
        for alpha, outcomes in zip(grid, zip(*columns)):
            cells = list(zip(config.methods, outcomes))
            failures = [f"{m}:{type(p).__name__}" for m, p in cells if isinstance(p, Exception)]
            values = {m: None if isinstance(p, Exception) else p for m, p in cells}
            rows.append(SweepRow(n=n, alpha=alpha, values=values, status=";".join(failures) or "ok"))
    return rows


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_sweep_csv(rows: list[SweepRow], methods: tuple[str, ...]) -> str:
    lines = ["N,alpha," + ",".join(methods) + ",status"]
    for r in rows:
        cells = [str(r.n), _fmt(r.alpha)]
        for m in methods:
            v = r.values[m]
            cells.append(_NAN_TOKEN if v is None else _fmt(v))
        cells.append(r.status)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_sweep_csv(text: str) -> tuple[list[SweepRow], tuple[str, ...]]:
    """Inverse of emit_sweep_csv; returns (rows, method names)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty sweep CSV")
    header = lines[0].split(",")
    if len(header) < 4 or header[0] != "N" or header[1] != "alpha" or header[-1] != "status":
        raise ValueError(f"malformed sweep header: {lines[0]!r}")
    methods = tuple(header[2:-1])
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method column {m!r}")
        if m in methods[:i]:
            raise ValueError(f"repeated method column {m!r}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row width mismatch: {ln!r}")
        values: dict[str, float | None] = {}
        for m, cell in zip(methods, cells[2:-1]):
            values[m] = None if cell == _NAN_TOKEN else float(cell)
        rows.append(SweepRow(n=int(cells[0]), alpha=float(cells[1]), values=values, status=cells[-1]))
    return rows, methods


def write_sweep_csv(rows: list[SweepRow], methods: tuple[str, ...], path: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(emit_sweep_csv(rows, methods))


def read_sweep_csv(path: str) -> tuple[list[SweepRow], tuple[str, ...]]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_sweep_csv(fh.read())


def find_oscillation_peaks(series: list[tuple[float, float]], threshold: float) -> list[float]:
    """Alphas of strict interior local maxima with P > threshold.

    Endpoints never qualify.  Points with non-finite P (and their
    neighbors) never qualify, since comparisons against NaN are false.
    """
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    out = []
    for i in range(1, len(series) - 1):
        p = series[i][1]
        if p > series[i - 1][1] and p > series[i + 1][1] and p > threshold:
            out.append(series[i][0])
    return out


def find_oscillation_nodes(series: list[tuple[float, float]]) -> list[float]:
    """Alphas of strict interior local minima (interference nodes)."""
    out = []
    for i in range(1, len(series) - 1):
        p = series[i][1]
        if p < series[i - 1][1] and p < series[i + 1][1]:
            out.append(series[i][0])
    return out


def _series(rows: list[SweepRow], method: str) -> list[tuple[float, float]]:
    return [(r.alpha, math.nan if r.values[method] is None else r.values[method]) for r in rows]


def compare_methods(rows: list[SweepRow], threshold: float = 0.05) -> ComparisonReport:
    """Agreement metrics of every non-numeric column against numeric.

    Rows may arrive in any order (sorted internally) but must share a
    single N and a single method set.
    """
    if not rows:
        raise ValueError("no rows to compare")
    ns = {r.n for r in rows}
    if len(ns) > 1:
        raise ValueError(f"compare_methods needs a single N, got {sorted(ns)}")
    keys = tuple(m for m in METHODS if m in rows[0].values)
    for r in rows:
        if tuple(m for m in METHODS if m in r.values) != keys:
            raise ValueError("rows carry inconsistent method sets")
    if "numeric" not in keys:
        raise MissingColumn("comparison requires a numeric column")
    rows = sorted(rows, key=lambda r: r.alpha)

    numeric = _series(rows, "numeric")
    peaks = {"numeric": find_oscillation_peaks(numeric, threshold)}
    nodes = {"numeric": find_oscillation_nodes(numeric)}
    deviation: dict[str, float | None] = {}
    agreement: dict[str, float | None] = {}
    for m in keys:
        if m == "numeric":
            continue
        series = _series(rows, m)
        peaks[m] = find_oscillation_peaks(series, threshold)
        nodes[m] = find_oscillation_nodes(series)
        devs = [
            abs(pm - pn)
            for (_, pm), (_, pn) in zip(series, numeric)
            if math.isfinite(pm) and math.isfinite(pn)
        ]
        deviation[m] = max(devs) if devs else None
        if nodes["numeric"] and nodes[m]:
            agreement[m] = max(
                min(abs(am - an) / an for am in nodes[m]) for an in nodes["numeric"]
            )
        else:
            agreement[m] = None
    return ComparisonReport(
        n_value=ns.pop(),
        threshold=threshold,
        max_abs_deviation=deviation,
        peaks=peaks,
        nodes=nodes,
        peak_counts={m: len(p) for m, p in peaks.items()},
        frequency_agreement=agreement,
    )


def report_to_json(report: ComparisonReport) -> str:
    return json.dumps(vars(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
