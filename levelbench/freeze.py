"""Regenerate the frozen input pools and reference outcomes in refs/.

    python3 levelbench/freeze.py [workload ...]

The references record what the code at the commit that defined the
benchmark returns for every pool entry: P, or the name of the exception
it raised.  They are the accuracy gate, so regenerate them only on
purpose, from a commit whose values are trusted.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from levelcross import cli, ddp, propagator, znt  # noqa: E402
from spans import Tracer  # noqa: E402
from levelcross.models import Parabolic  # noqa: E402

POOL_SEED = 0
# A cycle is about one run of 20 s at the commit that defined the benchmark,
# so that every run covers one whole cycle.
MODEL_POOL, MODEL_CYCLE = 192, 64  # laid out along the R2 sequence over log A, log V0, log |B|
TRACE_EVERY = 8  # every 8th model of a cycle is traced instead of propagated
CLOSED_FORM_POOL = 1000


def _nfev(fn, *args):
    """fn(*args) and the ODE function evaluations it made."""
    tracer = Tracer()
    with tracer.installed():
        out = fn(*args)
    return out, tracer.counts["propagator.solve_ivp.nfev"]


def cycles(entries: list, costs: list[float], size: int) -> list[list]:
    """Entries dealt into cycles of `size` that spread over the same costs.

    Ranked by cost, the entries form bands of one entry per cycle; the
    bands are dealt to the cycles in alternating directions, so every
    cycle holds one entry of each band and the cycles' total costs
    nearly agree.  Within a cycle, cheap and dear entries alternate.
    """
    if len(entries) % size:
        raise ValueError(f"{len(entries)} entries do not fill cycles of {size}")
    ranked = sorted(range(len(entries)), key=costs.__getitem__)
    n_cycles = len(entries) // size
    members: list[list[int]] = [[] for _ in range(n_cycles)]
    for band in range(size):
        dealt = ranked[band * n_cycles:(band + 1) * n_cycles]
        for c, i in enumerate(dealt if band % 2 == 0 else dealt[::-1]):
            members[c].append(i)
    return [[entries[m[(j // 2) if j % 2 == 0 else -(j // 2) - 1]] for j in range(size)] for m in members]


def _sweep_rounds(n_values, lo, hi, spacing, points, methods, n_rounds, cycle, fine_points=300):
    # Round k is a sub-grid of the 300-point acceptance grid, shifted by k steps.
    fine = np.linspace(lo, hi, fine_points) if spacing == "linear" else np.geomspace(lo, hi, fine_points)
    stride = fine_points // points
    span = stride * (points - 1)
    rounds = []
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        out = str(Path(tmp) / "ref.csv")
        assert n_rounds <= fine_points - span
        for k in range(n_rounds):
            rnd = []
            for n in n_values:
                spec = {"N": n, "alpha_min": repr(float(fine[k])), "alpha_max": repr(float(fine[k + span])),
                        "points": points, "spacing": spacing, "methods": list(methods)}
                code, spec["nfev"] = _nfev(cli.main, workloads.sweep_argv(spec, out))
                if code != 0:
                    raise SystemExit(f"sweep {spec} exited {code}")
                _, rows = workloads.read_csv_cells(out)
                spec["rows"] = [{k2: v for k2, v in row.items() if k2 != "N"} for row in rows]
                rnd.append(spec)
            rounds.append(rnd)
            print(f"round {k}: {[r['alpha'] for r in rnd[0]['rows']]}", flush=True)
    return {"cycles": cycles(rounds, [sum(spec["nfev"] for spec in rnd) for rnd in rounds], cycle)}


def _r2(i: int, dim: int = 3) -> list[float]:
    # Roberts' R2 low-discrepancy sequence: any window of it is evenly spread
    phi = 1.0
    for _ in range(50):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return [math.fmod(0.5 + i / phi ** (j + 1), 1.0) for j in range(dim)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference records which exception
        return type(exc).__name__


def _models():
    models = []
    for i in range(MODEL_POOL):
        u_a, u_v, u_b = _r2(i)
        b = float(f"{10.0 ** (u_b - 0.5):.4g}") * (1, 0, -1)[i % 3]
        item = {"A": float(f"{10.0 ** u_a:.4g}"), "B": b, "V0": float(f"{10.0 ** (u_v - 1.0):.4g}")}
        result, item["nfev"] = _nfev(propagator.propagate, Parabolic(item["A"], item["B"], item["V0"]))
        item["P"] = result.probability
        models.append(item)
        print(item, flush=True)
    out = cycles(models, [item["nfev"] for item in models], MODEL_CYCLE)
    worst_trace = 0.0
    for cycle in out:
        for j, item in enumerate(cycle):
            item["kind"] = "trace" if j % TRACE_EVERY == TRACE_EVERY - 1 else "propagate"
            if item["kind"] == "trace":
                model = Parabolic(item["A"], item["B"], item["V0"])
                last = propagator.propagate_trace(model, sample_count=workloads.TRACE_SAMPLES)[-1][1]
                worst_trace = max(worst_trace, abs(last - item["P"]))
    print(f"worst |P1(t_end) - P| over traced models: {worst_trace:.3g}")
    return {"cycles": out}


def _pairs():
    entries = {"ddp": ddp.ddp_probability, "znt-double": znt.glancing_double_crossing,
               "znt-tunnel": znt.glancing_tunneling}
    pairs = []
    for n, alpha in workloads.draw_pairs(np.random.default_rng(POOL_SEED), CLOSED_FORM_POOL):
        pairs.append({"N": n, "alpha": alpha, **{m: _outcome(f, n, alpha) for m, f in entries.items()}})
    return {"pairs": pairs}


BUILDERS = {
    "sweep-n2": lambda: _sweep_rounds((2,), 0.2, 2.5, "linear", 4, ("numeric", "ddp", "znt-double"), 70, 7),
    "sweep-n10": lambda: _sweep_rounds((6, 10), 0.1, 3.0, "log", 4, workloads.METHODS, 63, 21),
    "propagate-models": _models,
    "closed-forms": _pairs,
}


def write_refs(name: str, data: dict) -> None:
    """One pool entry per line; cycles are lists of entries."""
    (key, groups), = data.items()

    def block(items: list) -> str:
        return "[\n" + ",\n".join(json.dumps(x, separators=(",", ":")) for x in items) + "\n]"

    body = block(groups) if key == "pairs" else "[\n" + ",\n".join(block(g) for g in groups) + "\n]"
    with open(workloads.REF_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"{key}": {body}}}\n')


def main(names: list[str]) -> None:
    for name in names or list(BUILDERS):
        write_refs(name, BUILDERS[name]())


if __name__ == "__main__":
    main(sys.argv[1:])
