"""levelcross benchmark: one workload, one seed, one JSON result line.

    python3 levelbench/run.py --workload sweep-n2 --seed 1 --seconds 20 --trace 0
    python3 levelbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a levelcross checkout; the package is imported from
its src/ directory.  With --trace 0 the run repeats closed-loop calls
(one in flight) for about --seconds of calibrated call time (calib.py),
in whole passes over the workload's cycle, and reports the end-to-end
metrics; with
--trace 1 it runs a fixed prefix of the same calls untraced and then
traced, repeated while time remains, and reports the per-layer metrics
(counts from the first traced pass, times as medians over passes).
The line before the result holds the run conditions, sample counts and
failures by exception class.  `--workload all` runs every workload in
its own process and prints one table.  See README.md for what each
metric and workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKDIR = BENCH / "_work"

WORKLOADS = ("sweep-n2", "sweep-n10", "propagate-models", "closed-forms")
# Tail percentile of per-call latency, fixed per workload so that a faster
# program is compared at the same percentile: the highest one with at
# least ten samples beyond it at the seed commit.  A sweep run makes only
# 7 (sweep-n2) or 21 (sweep-n10) calls, too few for a tail with ten
# samples beyond it; p75 stands in, as the slowest of so few calls mostly
# measures which host state it met.
TAIL_PERCENTILE = {"sweep-n2": 75.0, "sweep-n10": 75.0, "propagate-models": 75.0, "closed-forms": 99.9}
# Calls in the fixed prefix of a traced run, a few seconds of work each.
TRACE_PREFIX = {"sweep-n2": 2, "sweep-n10": 6, "propagate-models": 16, "closed-forms": 15000}
SETUP_REPEATS = 5
LATENCY_CAPACITY = 1 << 20  # samples kept; allocated up front so RSS does not grow with speed
CALIBRATE_EVERY_S = 0.1

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TUNNEL_ERRORS = ("ValueError", "BranchFailure", "OverflowError")


def per_layer_units() -> dict[str, str]:
    from workloads import METHODS

    units = {
        "cli.main.calls": "count",
        "cli.main.self_s": "s",
        "harness.run_sweep.self_s": "s",
        "harness.write_sweep_csv.s": "s",
        "harness.read_sweep_csv.s": "s",
        "harness.compare_methods.s": "s",
        "harness.report_to_json.s": "s",
    }
    units.update({f"harness.cells.failed.{m}": "count" for m in METHODS})
    units.update({
        "propagator.propagate.calls": "count",
        "propagator.propagate.s": "s",
        "propagator.propagate.self_s": "s",
        "propagator.propagate_trace.calls": "count",
        "propagator.propagate_trace.s": "s",
        "propagator.solve_ivp.calls": "count",
        "propagator.solve_ivp.s": "s",
        "propagator.solve_ivp.nfev": "count",
        "propagator.solve_ivp.steps": "count",
        "propagator.solve_ivp.solves_per_propagate": "ratio",
        "propagator.solve_ivp.useful_nfev_share": "ratio",
        "propagator.solve_ivp.calls_per_point": "ratio",
        "propagator.quad.calls": "count",
        "propagator.quad.s": "s",
        "propagator.quad.neval": "count",
        "ddp.ddp_probability.calls": "count",
        "ddp.ddp_probability.s": "s",
        "znt.glancing_double_crossing.calls": "count",
        "znt.glancing_double_crossing.s": "s",
        "znt.glancing_tunneling.calls": "count",
        "znt.glancing_tunneling.s": "s",
    })
    units.update({f"znt.glancing_tunneling.failed.{e}": "count" for e in (*TUNNEL_ERRORS, "other")})
    units.update({"specialfn.arg_gamma_imag.calls": "count", "specialfn.arg_gamma_imag.s": "s"})
    units.update({f"accuracy.{m}.max_abs_dP": "prob" for m in METHODS})
    units.update({"trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s"})
    return units


def bootstrap() -> None:
    """Import levelcross from this checkout's src/, never from elsewhere."""
    if not (SRC / "levelcross" / "__init__.py").is_file():
        sys.exit(f"levelbench: no levelcross package under {SRC}; run from a levelcross checkout")
    sys.path.insert(0, str(SRC))
    import levelcross

    if Path(levelcross.__file__).resolve().parent != SRC / "levelcross":
        sys.exit(f"levelbench: imported levelcross from {levelcross.__file__}, not from {SRC}")


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Times fresh interpreters take to `import levelcross.cli`, raw and calibrated.

    Each import is bracketed by fresh interpreters importing
    calib.REFERENCE_IMPORTS, and rescaled by the mean of those two times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    def import_seconds(modules: str) -> float:
        code = f"import time; t0 = time.perf_counter(); import {modules}; print(time.perf_counter() - t0)"
        return float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                    timeout=120, capture_output=True, text=True).stdout)

    refs = [import_seconds(calib.REFERENCE_IMPORTS)]
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(import_seconds("levelcross.cli"))
        refs.append(import_seconds(calib.REFERENCE_IMPORTS))
        scaled.append(raw[-1] * calib.NOMINAL_IMPORT_S / (0.5 * (refs[-2] + refs[-1])))
    return raw, scaled


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS would use, read without changing it."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def conditions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seed: int, seconds: float) -> tuple:
    """Closed loop for about `seconds` of calibrated call time.

    The calibration kernel runs about every CALIBRATE_EVERY_S, and at
    least between calls; the calls of each slice between two kernel runs
    are rescaled by the mean of those two kernel times.

    The run ends at the end of a pass over the workload's cycle: the pass
    whose end is nearest to `seconds` of calibrated time, or the first to
    end after `seconds` of wall time, which bounds the run on a slow host
    (every closed-forms call ends a pass).  So a run covers whole cycles,
    and at the seed commit which inputs it covers does not depend on the
    host's speed.
    """
    import numpy as np
    from spans import UNTRACED
    from workloads import Gate

    gate = Gate()
    latency = np.full(LATENCY_CAPACITY, np.nan)  # raw until rescaled below
    calls = 0
    slice_ends: list[int] = []  # latency samples stored when each slice closed
    slice_raw: list[float] = []  # raw call time of each slice
    pending = 0.0
    kernels = [calib.kernel_seconds()]
    elapsed = 0.0  # calibrated by the latest kernel time, to decide when to stop
    last_pass_end = 0.0
    wall_end = time.perf_counter() + seconds
    next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
    for call in workload.calls(seed):
        t0 = time.perf_counter()
        out = call.run(UNTRACED)
        dt = time.perf_counter() - t0
        if calls < LATENCY_CAPACITY:
            latency[calls] = dt
        calls += 1
        pending += dt
        elapsed += dt * calib.NOMINAL_S / kernels[-1]
        call.check(out, gate)
        done = False
        if call.cycle_end:
            # stop here unless the next pass would end nearer to `seconds`,
            # or once `seconds` of wall time have passed
            done = (elapsed + (elapsed - last_pass_end) - seconds >= seconds - elapsed
                    or time.perf_counter() >= wall_end)
            last_pass_end = elapsed
        if time.perf_counter() >= next_calibration or done:
            kernels.append(calib.kernel_seconds())
            slice_ends.append(min(calls, LATENCY_CAPACITY))
            slice_raw.append(pending)
            pending = 0.0
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        if done:
            break
    # slice j lies between kernels[j] and kernels[j + 1]
    scales = [calib.NOMINAL_S / (0.5 * (a + b)) for a, b in zip(kernels, kernels[1:])]
    start = 0
    for end, scale in zip(slice_ends, scales):
        latency[start:end] *= scale
        start = end
    busy = sum(raw * scale for raw, scale in zip(slice_raw, scales))
    return gate, latency[:start], busy, sum(slice_raw), calls, kernels


def end_to_end(name: str, seed: int, seconds: float, refs: dict | None = None,
               setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict, object]:
    import numpy as np
    import workloads

    raw_setup, setup = measure_setup(setup_repeats)
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(name, WORKDIR, refs)
    gate, latency, busy, raw_busy, calls, kernels = run_untraced(workload, seed, seconds)
    tail = TAIL_PERCENTILE[name]
    metrics = {
        "ops_per_s": metric(gate.attempted / busy, "1/s"),
        "latency_p50_s": metric(float(np.percentile(latency, 50)), "s"),
        "latency_tail_s": metric(float(np.percentile(latency, tail)), "s"),
        "ok_share": metric(gate.ok / gate.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    detail = {
        "calls": calls,
        "latency_samples": len(latency),
        "tail_percentile": tail,
        "samples_beyond_tail": int(np.sum(latency > metrics["latency_tail_s"]["value"])),
        "busy_s": busy,
        "uncalibrated": {"busy_s": raw_busy, "ops_per_s": gate.attempted / raw_busy,
                         "setup_s": statistics.median(raw_setup)},
        "calibration_kernel_s": {"nominal": calib.NOMINAL_S, "runs": len(kernels),
                                 "median": statistics.median(kernels), "min": min(kernels), "max": max(kernels)},
        "setup_runs_s": setup,
    }
    return metrics, detail, gate


def run_pass(calls: list, api, gate, tracer=None) -> float:
    busy = 0.0
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        out = call.run(api)
        busy += time.perf_counter() - t0
        call.check(out, gate)
    return busy


def layer_metrics(tracer, gate, calls: list) -> dict[str, float]:
    from workloads import METHODS

    n_calls, total, own = tracer.layer_times()
    counts = tracer.counts
    values: dict[str, float] = {
        "cli.main.calls": n_calls["cli.main"],
        "cli.main.self_s": own["cli.main"],
        "harness.run_sweep.self_s": own["harness.run_sweep"],
    }
    for fn in ("write_sweep_csv", "read_sweep_csv", "compare_methods", "report_to_json"):
        values[f"harness.{fn}.s"] = total[f"harness.{fn}"]
    for m in METHODS:
        values[f"harness.cells.failed.{m}"] = gate.cell_failures[m]
    for name in ("propagator.propagate", "propagator.propagate_trace", "propagator.solve_ivp",
                 "propagator.quad", "ddp.ddp_probability", "znt.glancing_double_crossing",
                 "znt.glancing_tunneling", "specialfn.arg_gamma_imag"):
        values[f"{name}.calls"] = n_calls[name]
        values[f"{name}.s"] = total[name]
    values["propagator.propagate.self_s"] = own["propagator.propagate"]
    solves = n_calls["propagator.solve_ivp"]
    propagations = n_calls["propagator.propagate"] + n_calls["propagator.propagate_trace"]
    points = sum(call.points for call in calls)
    values.update({
        "propagator.solve_ivp.nfev": counts["propagator.solve_ivp.nfev"],
        "propagator.solve_ivp.steps": counts["propagator.solve_ivp.steps"],
        "propagator.solve_ivp.solves_per_propagate": solves / propagations if propagations else 0.0,
        "propagator.solve_ivp.useful_nfev_share": (
            counts["propagation.useful_nfev"] / counts["propagation.nfev"] if counts["propagation.nfev"] else 0.0),
        "propagator.solve_ivp.calls_per_point": solves / points if points else 0.0,
        "propagator.quad.neval": counts["propagator.quad.neval"],
    })
    failed = {k.rsplit(".", 1)[1]: v for k, v in counts.items() if k.startswith("znt.glancing_tunneling.failed.")}
    for e in TUNNEL_ERRORS:
        values[f"znt.glancing_tunneling.failed.{e}"] = failed.pop(e, 0)
    values["znt.glancing_tunneling.failed.other"] = sum(failed.values())
    for m in METHODS:
        values[f"accuracy.{m}.max_abs_dP"] = gate.max_dp.get(m, 0.0)
    return values


def per_layer(name: str, seed: int, seconds: float, refs: dict | None = None,
              prefix: int | None = None) -> tuple[dict, dict, object]:
    import workloads
    from spans import UNTRACED, Tracer

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(name, WORKDIR, refs)
    calls = list(islice(workload.calls(seed), prefix or TRACE_PREFIX[name]))
    gate = workloads.Gate()
    passes: list[dict[str, float]] = []
    units = per_layer_units()
    spans_file = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        untraced_gate, traced_gate = workloads.Gate(), workloads.Gate()
        kernels = [calib.kernel_seconds()]
        untraced = run_pass(calls, UNTRACED, untraced_gate)
        kernels.append(calib.kernel_seconds())
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(calls, tracer.api, traced_gate, tracer)
        kernels.append(calib.kernel_seconds())
        # each pass is calibrated by the kernel times at its two ends
        untraced *= calib.NOMINAL_S / (0.5 * (kernels[0] + kernels[1]))
        scale = calib.NOMINAL_S / (0.5 * (kernels[1] + kernels[2]))
        values = {k: v * scale if units[k] == "s" else v
                  for k, v in layer_metrics(tracer, traced_gate, calls).items()}
        traced *= scale
        values.update({"trace.untraced_s": untraced, "trace.traced_s": traced, "trace.overhead_s": traced - untraced})
        passes.append(values)
        gate.merge(untraced_gate)
        gate.merge(traced_gate)
        if spans_file is None:
            spans_file = WORKDIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.dump(str(spans_file))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:  # the next pass would overrun
            break
    metrics = {}
    for key, unit in units.items():
        # counts repeat exactly from pass to pass; times are medians over passes
        value = statistics.median(p[key] for p in passes) if unit == "s" else passes[0][key]
        metrics[key] = metric(value, unit)
    detail = {"calls": len(calls), "passes": len(passes), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, detail, gate


def run_one(args: argparse.Namespace) -> int:
    bootstrap()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.trace:
        metrics, detail, gate = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, detail, gate = end_to_end(args.workload, args.seed, args.seconds)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "conditions": conditions(),
        "attempted": gate.attempted, "ok": gate.ok, "ok_by_method": dict(gate.ok_by_method),
        "failed": gate.failed,
        "errors_by_class": dict(gate.errors), "error_messages": gate.messages,
        "failures": gate.failures,
        "max_abs_dP": gate.max_dp,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak RSS is per process), one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']}")
        for key, m in results[name]["metrics"].items():
            print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
