"""The names that the benchmark's tracer (levelbench/spans.py) wraps.

The tracer replaces, for the length of a traced run, each name that one
levelcross module imports from another (harness.propagate,
propagator.solve_ivp, ...) by a recording wrapper, and restores it after.
Some of those names exist for that reason alone, so deleting one breaks
no library code; this test fails at once instead.  propagator.quad and
propagator.solve_ivp are no longer imported with the module: its
module-level __getattr__ resolves them from scipy.integrate on demand.
harness.propagate is resolved the same way, from the propagator, so that
importing harness loads no numpy.
"""

from pathlib import Path

from levelcross import harness, propagator


def test_tracer_installs_and_restores_every_seam(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "levelbench"))
    import spans

    before = [getattr(module, attr) for module, attr, _ in spans.SEAMS]
    with spans.Tracer().installed():
        assert harness.propagate is not propagator.propagate
    assert [getattr(module, attr) for module, attr, _ in spans.SEAMS] == before
