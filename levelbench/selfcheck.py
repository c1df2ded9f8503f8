"""Self-check of the benchmark at a tiny size (about half a minute).

    python3 levelbench/selfcheck.py

For every workload it makes one untraced and one traced run of a few
calls and checks that every metric named in BENCHMARK.json is emitted
with its unit and that the seed commit's outputs pass the gate.  Then it
perturbs every frozen reference P by 1e-6 and checks that each op the
gate passed before at 1e-9 or 1e-12 is now counted as failed, which
lowers ok_share.
"""

from __future__ import annotations

import json

import run

# closed-forms calls take microseconds; the other workloads run one
# pass over a cycle cut down to its first entry
TINY_SECONDS = 0.2
TRACE_PREFIX = 2
SEED = 1


def tiny(refs: dict) -> dict:
    """References with every cycle cut to its first entry."""
    return {k: [c[:1] for c in v] if k == "cycles" else v for k, v in refs.items()}


def perturbed(node, key=None):
    """Copy of a refs tree with every reference P moved by 1e-6 inside [0, 1]."""
    from workloads import METHODS

    if isinstance(node, dict):
        return {k: perturbed(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [perturbed(v, key) for v in node]
    if isinstance(node, float) and key in ("P", *METHODS):
        return node + 1e-6 if node < 0.5 else node - 1e-6
    return node


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def check_names(metrics: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    expect(got == want, f"{what}: emits exactly the {len(want)} declared metrics with their units")
    expect(all(isinstance(m["value"], (int, float)) for m in metrics.values()), f"{what}: every value is a number")


def main() -> None:
    run.bootstrap()
    import workloads

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    for name in run.WORKLOADS:
        refs = tiny(workloads.load_refs(name))
        metrics, _, gate = run.end_to_end(name, SEED, TINY_SECONDS, refs=refs, setup_repeats=1)
        check_names(metrics, bench["end_to_end"], f"{name} untraced")
        expect(gate.failed == 0 and gate.attempted > 0, f"{name}: none of {gate.attempted} ops failed")

        metrics, _, traced_gate = run.per_layer(name, SEED, 0.0, refs=refs, prefix=TRACE_PREFIX)
        check_names(metrics, bench["per_layer"], f"{name} traced")
        expect(traced_gate.failed == 0, f"{name} traced: none of {traced_gate.attempted} ops failed")

        # The traced run's fixed prefix makes the same ops with either reference
        # set.  A trace op's gate (1e-2) is wider than the perturbation.
        _, _, bad = run.per_layer(name, SEED, 0.0, refs=perturbed(refs), prefix=TRACE_PREFIX)
        gated = traced_gate.ok - traced_gate.ok_by_method["trace"]
        expect(bad.attempted == traced_gate.attempted and bad.failed == gated > 0
               and bad.ok == traced_gate.ok_by_method["trace"],
               f"{name}: with references moved by 1e-6, all {gated} ops gated at 1e-9 or 1e-12 now fail"
               f" and count against ok_share")


if __name__ == "__main__":
    main()
