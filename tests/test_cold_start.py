"""A cold `import sbmre.cli` loads no scipy module, and neither does sampling.

Each run of the `sbmre` command is a fresh interpreter, so what the CLI imports
is paid on every run.  Every covariance factor is a numpy pivoted Cholesky, so
building and sampling grid and site factors needs no LAPACK from scipy, and
the plateau verdict of lyapunov_estimate takes its p-value from a
standard-library Student-t CDF (feynmankac._t_centered_cdf), not from
scipy.special.  Only the potential quadratures import scipy.integrate (with
scipy.optimize), on first use.  The probe samples and runs lyapunov_estimate before any
quadrature, since scipy.integrate may itself import scipy.special.  It runs
in a fresh process, since other test modules import scipy themselves and
would hide a broken deferred import.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import math
import sys

import sbmre.cli

loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, f"import sbmre.cli loaded {loaded}"

import numpy as np

from sbmre import feynmankac, heatkernel
from sbmre.covariance import ScaledTheta, grid_covariance_factor, points_covariance_factor
from sbmre.grids import Grid

rng = np.random.default_rng(1)
for factor in (grid_covariance_factor(ScaledTheta(0.8), Grid(1, 8.0, 64)),
               grid_covariance_factor(ScaledTheta(1.0, 0.7), Grid(3, 4.0, 16)),
               points_covariance_factor(ScaledTheta(1.0), rng.normal(size=(200, 2)))):
    assert np.all(np.isfinite(factor.sample(rng, dt=0.01, batch=3)))
estimate = feynmankac.lyapunov_estimate(ScaledTheta(0.5), Grid(1, 4.0, 8), T=0.2, dt=0.01,
                                        seed=3, n_replicas=4)
assert math.isfinite(estimate.median), estimate.median
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, f"sampling and lyapunov_estimate loaded {loaded}"

theta = heatkernel.riesz_potential_sup(ScaledTheta(0.5), 3)
assert abs(theta - math.pi) < 1e-8, theta
assert "scipy.integrate" in sys.modules
print("ok")
"""


def test_cli_import_defers_scipy_subpackages_and_they_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
