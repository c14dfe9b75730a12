"""A cold `import sbmre.cli` loads none of scipy's integrate, optimize, spatial or special.

Each run of the `sbmre` command is a fresh interpreter, so what the CLI imports
is paid on every run.  scipy.integrate (with scipy.optimize) and scipy.special
are imported by the one routine that needs each, on first use; this test runs
in a fresh process, since other test modules import those subpackages
themselves and would hide a broken deferred import.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.special")

PROBE = f"""
import math
import sys

import sbmre.cli

loaded = [name for name in {DEFERRED!r} if name in sys.modules]
assert not loaded, f"import sbmre.cli loaded {{loaded}}"

from sbmre import feynmankac, heatkernel
from sbmre.covariance import ScaledTheta
from sbmre.grids import Grid

theta = heatkernel.riesz_potential_sup(ScaledTheta(0.5), 3)
assert abs(theta - math.pi) < 1e-8, theta
estimate = feynmankac.lyapunov_estimate(ScaledTheta(0.5), Grid(1, 4.0, 8), T=0.2, dt=0.01,
                                        seed=3, n_replicas=4)
assert math.isfinite(estimate.median), estimate.median
assert "scipy.integrate" in sys.modules and "scipy.special" in sys.modules
print("ok")
"""


def test_cli_import_defers_scipy_subpackages_and_they_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
