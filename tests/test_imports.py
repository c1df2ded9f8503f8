"""Which parts of scipy the package and each subcommand load.

Importing levelcross loads numpy and nothing from scipy: each scipy
subpackage is imported by the function that calls it.  Every check here
starts a fresh interpreter and reads its sys.modules, so it tests what
is loaded, not how long loading takes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levelcross import propagator

SRC = Path(__file__).resolve().parents[1] / "src"

# run the subcommand in sys.argv[1:] (none: import only), then print the
# loaded scipy modules as the last line of stdout
_PROBE = """
import json, sys
import levelcross, levelcross.cli
if sys.argv[1:]:
    assert levelcross.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def _scipy_loaded(*argv: str) -> set[str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert _scipy_loaded() == set()


@pytest.mark.parametrize("command", ["ddp", "propagate"])
def test_commands_load_no_scipy(command):
    assert _scipy_loaded(command, "--N", "2", "--alpha", "1") == set()


def test_sweep_and_compare_load_no_scipy(tmp_path):
    csv = str(tmp_path / "sweep.csv")
    assert _scipy_loaded("sweep", "--N", "2", "--alpha-min", "0.5", "--alpha-max", "2",
                         "--points", "3", "--methods", "numeric,ddp", "--out", csv) == set()
    assert _scipy_loaded("compare", csv) == set()


def test_znt_loads_scipy_special_only():
    loaded = _scipy_loaded("znt", "--branch", "double", "--N", "2", "--alpha", "1")
    assert "scipy.special" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize", "scipy.interpolate"}


def test_propagator_seam_names_resolve_on_demand():
    import scipy.integrate

    assert propagator.quad is scipy.integrate.quad
    assert propagator.solve_ivp is scipy.integrate.solve_ivp
    with pytest.raises(AttributeError, match="no_such_name"):
        propagator.no_such_name
