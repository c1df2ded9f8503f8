"""Spans and counts for the traced run, recorded from outside the library.

`Tracer.installed()` temporarily replaces each public name that one
levelcross module imports from another with a wrapper that records a
span (name, start, end, parent, op id).  The benchmark's own calls into
the entry points go through `Tracer.entry`, which records the root
spans.  Nothing under src/ changes; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from levelcross import cli, ddp, harness, propagator, znt

# (module, attribute, span name): the name is the layer that defines it
SEAMS = (
    (cli, "run_sweep", "harness.run_sweep"),
    (cli, "read_sweep_csv", "harness.read_sweep_csv"),
    (cli, "compare_methods", "harness.compare_methods"),
    (cli, "report_to_json", "harness.report_to_json"),
    (harness, "propagate", "propagator.propagate"),
    (harness, "ddp_probability", "ddp.ddp_probability"),
    (harness, "glancing_double_crossing", "znt.glancing_double_crossing"),
    (harness, "glancing_tunneling", "znt.glancing_tunneling"),
    (harness, "write_sweep_csv", "harness.write_sweep_csv"),
    (propagator, "solve_ivp", "propagator.solve_ivp"),
    (propagator, "quad", "propagator.quad"),
    (znt, "arg_gamma_imag", "specialfn.arg_gamma_imag"),
)

# the entry points the workloads call directly
ENTRIES = {
    "main": (cli.main, "cli.main"),
    "propagate": (propagator.propagate, "propagator.propagate"),
    "propagate_trace": (propagator.propagate_trace, "propagator.propagate_trace"),
    "ddp_probability": (ddp.ddp_probability, "ddp.ddp_probability"),
    "glancing_double_crossing": (znt.glancing_double_crossing, "znt.glancing_double_crossing"),
    "glancing_tunneling": (znt.glancing_tunneling, "znt.glancing_tunneling"),
}

PROPAGATIONS = ("propagator.propagate", "propagator.propagate_trace")

UNTRACED = SimpleNamespace(**{key: fn for key, (fn, _) in ENTRIES.items()})


class Tracer:
    """In-memory spans plus the counts recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._solves: dict[int, list[int]] = defaultdict(list)  # propagation span -> nfev per solve
        self.api = SimpleNamespace(**{key: self.wrap(fn, name) for key, (fn, name) in ENTRIES.items()})

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            spans[idx][1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()
                if name in PROPAGATIONS:
                    nfevs = self._solves.pop(idx, [])
                    counts["propagation.nfev"] += sum(nfevs)
                    counts["propagation.useful_nfev"] += nfevs[-1] if nfevs else 0
            if name == "propagator.solve_ivp":
                counts["propagator.solve_ivp.nfev"] += out.nfev
                counts["propagator.solve_ivp.steps"] += len(out.t) - 1
                if stack and spans[stack[-1]][0] in PROPAGATIONS:
                    self._solves[stack[-1]].append(out.nfev)
            return out

        if name == "propagator.quad":

            def traced_quad(func: Callable, *args: Any, **kwargs: Any) -> Any:
                def counted(*xs: Any) -> Any:
                    counts["propagator.quad.neval"] += 1
                    return func(*xs)

                return traced(counted, *args, **kwargs)

            return traced_quad
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in SEAMS]
        try:
            for mod, attr, name in SEAMS:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds by span name."""
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        return calls, Counter({k: v * 1e-9 for k, v in total.items()}), Counter({k: v * 1e-9 for k, v in own.items()})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
