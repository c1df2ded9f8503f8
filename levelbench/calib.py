"""Calibration kernel: fixed work whose time tracks the speed of the core.

On a shared host the speed of one core moves by up to a third within
seconds, as other tenants load it, and these states last seconds to
minutes: the same propagate call takes 0.07 s in one state and 0.11 s
in the next.  Every call the benchmark times is therefore rescaled by
NOMINAL_S / (time of this kernel measured next to it), that is,
expressed in seconds of a core on which the kernel takes NOMINAL_S.

The kernel mixes plain Python complex arithmetic with a small DOP853
solve through scipy, the two kinds of work levelcross does; the host's
states slow the two kinds by different amounts, so the mix tracks the
workloads better than either part.  It touches no levelcross code, so
no change to the package moves it.
"""

from __future__ import annotations

import cmath
import math
import time

# the kernel's time on the machine the benchmark was defined on, in a
# slow state; the scale only sets the unit of the reported seconds
NOMINAL_S = 0.005

# Import work (file reads, unmarshalling, loading shared libraries) is
# not tracked by the kernel.  Set-up is calibrated instead by the time a
# fresh interpreter takes to import these standard-library modules, and
# reported in seconds of a host on which that takes NOMINAL_IMPORT_S.
REFERENCE_IMPORTS = ("asyncio, xml.dom.minidom, xml.etree.ElementTree, sqlite3, tarfile, mailbox, "
                     "xmlrpc.client, http.server, email.parser, concurrent.futures")
NOMINAL_IMPORT_S = 0.08


def _python_part() -> float:
    z, s = 0.3 + 0.1j, 0.0
    for i in range(6000):
        z = z * z * 0.5 + cmath.exp(1j * (i * 1e-3)) * 0.1
        s += math.sqrt(abs(z) + 1.0)
    return s


def _ode_part() -> float:
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: (y[1], -y[0] - 0.1 * math.sin(y[0])), (0.0, 6.0), [1.0, 0.0],
                    method="DOP853", rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1])


def kernel_seconds(repeats: int = 2) -> float:
    """Fastest of a few runs of the kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python_part()
        _ode_part()
        best = min(best, time.perf_counter() - t0)
    return best
