"""Which parts of numpy and scipy the package and each subcommand load.

Importing levelcross loads neither numpy nor scipy, nor the propagator:
numpy is imported by the code that computes with it (the propagator and a
sweep's alpha grid), and each scipy subpackage by the function that
calls it.  Every check here starts a fresh interpreter and reads its
sys.modules, so it tests what is loaded, not how long loading takes.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levelcross
from levelcross import errors, propagator, znt

SRC = Path(__file__).resolve().parents[1] / "src"

# run the subcommand in sys.argv[1:] (none: import only), then print the
# loaded numpy and scipy modules, and whether the propagator is loaded, as
# the last line of stdout
_PROBE = """
import json, sys
import levelcross, levelcross.cli
if sys.argv[1:]:
    try:
        assert levelcross.cli.main(sys.argv[1:]) == 0
    except SystemExit as exc:  # --help
        assert exc.code == 0
print(json.dumps([sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")),
                  "levelcross.propagator" in sys.modules]))
"""


def _loaded(*argv: str) -> tuple[set[str], set[str], bool]:
    """The numpy modules, the scipy modules, and whether levelcross.propagator
    is loaded, after running `levelcross *argv` in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules, propagator_loaded = json.loads(done.stdout.splitlines()[-1])
    numpy = {m for m in modules if m.partition(".")[0] == "numpy"}
    return numpy, set(modules) - numpy, propagator_loaded


def test_import_loads_no_numpy_scipy_or_propagator():
    assert _loaded() == (set(), set(), False)


@pytest.mark.parametrize("argv", [
    ["ddp", "--N", "2", "--alpha", "1"],
    ["zeros", "--N", "2", "--alpha", "1"],
    ["phase", "--N", "2", "--alpha", "1"],
    ["--help"],
], ids=lambda argv: argv[0])
def test_closed_form_commands_load_no_numpy(argv):
    assert _loaded(*argv) == (set(), set(), False)


def test_propagate_loads_numpy_and_no_scipy():
    numpy, scipy, propagator_loaded = _loaded("propagate", "--N", "2", "--alpha", "1")
    assert "numpy" in numpy and propagator_loaded
    assert scipy == set()


def test_sweep_loads_numpy_and_compare_loads_none(tmp_path):
    csv = str(tmp_path / "sweep.csv")
    numpy, scipy, _ = _loaded("sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "2",
                              "--points", "3", "--methods", "numeric,ddp", "--out", csv)
    assert "numpy" in numpy
    assert scipy == set()
    assert _loaded("compare", csv) == (set(), set(), False)


def test_znt_loads_scipy_special_only():
    import scipy

    _, loaded, _ = _loaded("znt", "--branch", "double", "--N", "2", "--alpha", "1")
    # of scipy's public subpackages, special alone is loaded
    assert {m.split(".")[1] for m in loaded if "." in m} & set(scipy.__all__) == {"special"}


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "2", "--points", "3", "--out", "{tmp}/s.csv"],
    ["propagate", "--N", "2", "--alpha", "1", "--trace", "{tmp}/t.csv"],
    ["propagate", "--model", "parabolic", "--A", "1", "--B", "4", "--V0", "1"],
    ["znt", "--branch", "tunnel", "--N", "2", "--alpha", "1"],
], ids=["sweep-all-methods", "propagate-trace", "propagate-parabolic", "znt-tunnel"])
def test_no_command_loads_scipy_beyond_special(argv, tmp_path):
    import scipy

    _, loaded, _ = _loaded(*(arg.format(tmp=tmp_path) for arg in argv))
    # of scipy's public subpackages, none but special is loaded
    assert {m.split(".")[1] for m in loaded if "." in m} & set(scipy.__all__) <= {"special"}


@pytest.mark.parametrize("module, name", [
    (levelcross, "FitGeometry"), (levelcross, "fit_parameters"), (levelcross, "znt_phase_estimate"),
    (levelcross, "DegenerateGeometry"), (levelcross, "BracketingError"),
    (znt, "FitGeometry"), (znt, "fit_parameters"), (znt, "znt_phase_estimate"),
    (errors, "DegenerateGeometry"), (errors, "BracketingError"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_adiabatic_curve_fit_removed(module, name):
    # the fit of (a^2, b^2) to a pair of adiabatic curves is gone: it is 0/0
    # on every model here, whose curves are -W and +W
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())


def test_package_names_are_the_propagator_names():
    assert levelcross.propagate is propagator.propagate
    assert levelcross.propagate_trace is propagator.propagate_trace
    assert levelcross.PropagatorSettings is propagator.PropagatorSettings
    assert levelcross.PropagationResult is propagator.PropagationResult
    with pytest.raises(AttributeError, match="no_such_name"):
        levelcross.no_such_name


def test_star_import_and_dir_include_the_lazy_names():
    # dir() lists propagate and propagate_trace without loading numpy, and
    # the star import binds them, loading the propagator then
    probe = """
import sys
import levelcross
assert "numpy" not in sys.modules
assert {"propagate", "propagate_trace"} <= set(dir(levelcross))
assert "numpy" not in sys.modules
from levelcross import *
from levelcross import propagator
assert propagate is propagator.propagate and propagate_trace is propagator.propagate_trace
"""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_names_every_public_name():
    # __all__ lists each public name of the package but its submodules
    public = {n for n, v in vars(levelcross).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(levelcross.__all__) == public | {"propagate", "propagate_trace"}
    assert len(levelcross.__all__) == len(set(levelcross.__all__))


def test_propagator_seam_names_resolve_on_demand():
    import scipy.integrate

    assert propagator.quad is scipy.integrate.quad
    assert propagator.solve_ivp is scipy.integrate.solve_ivp
    with pytest.raises(AttributeError, match="no_such_name"):
        propagator.no_such_name
