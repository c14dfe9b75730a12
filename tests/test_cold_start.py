"""No run loads a scipy module, and no serial run loads multiprocessing.

Each run of the `sbmre` command is a fresh interpreter, so what the CLI imports
is paid on every run.  Every covariance factor is a numpy pivoted Cholesky, so
building and sampling grid and site factors needs no LAPACK from scipy; the
plateau verdict of lyapunov_estimate takes its p-value from a
standard-library Student-t CDF (feynmankac._t_centered_cdf), not from
scipy.special; and every potential supremum is a kernel's closed form
(CovarianceKernel.radial_moment), not a scipy.integrate quadrature.  A
process pool's executor is imported when a pool first starts, so a run at
one worker never loads multiprocessing.  The probe samples, runs
lyapunov_estimate and a potential, then runs the two configs that read
potentials through cli.main.  It runs in a fresh process, since other test
modules import scipy themselves and would hide a stray import.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE = """
import math
import sys
import tempfile


def loaded(package):
    return [name for name in sys.modules if name.split(".")[0] == package]


import sbmre.cli

for package in ("scipy", "multiprocessing"):
    assert not loaded(package), f"import sbmre.cli loaded {loaded(package)}"

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
theta = heatkernel.riesz_potential_sup(ScaledTheta(0.5), 3)
assert abs(theta - math.pi) < 1e-12, theta

for name in ("persistence-scan", "threshold-table"):
    with tempfile.TemporaryDirectory() as out:
        code = sbmre.cli.main([name, "--config", f"configs/{name}.ini", "--out", out])
    assert code == 0, (name, code)
for package in ("scipy", "multiprocessing"):
    assert not loaded(package), f"the runs loaded {loaded(package)}"
print("ok")
"""


def test_no_run_loads_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "ok"
