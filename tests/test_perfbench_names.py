"""The benchmark's tracer wraps sbmre functions by name; every name must resolve.

perfbench/tracing.py is loaded by path and only read: the tracer is never
installed, so no sbmre function is patched.  A rename or deletion in the
library that the tracer still names fails here instead of in a traced pass;
likewise a signature change that breaks the calls of the frozen library
segment in perfbench/workloads.py.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from sbmre import covariance, dual, particles, spde

ROOT = Path(__file__).resolve().parents[1]
# the modules perfbench/passrun.py hands to Tracer.install
INSTALLED = ("covariance", "heatkernel", "spde", "particles", "feynmankac", "dual", "cli")
# (module, function or Class.method, parameters a counter of tracing.py reads)
COUNTED_PARAMETERS = (
    ("particles", "points_covariance_factor", ("points",)),
    ("covariance", "GaussianFieldFactor.sample", ("self", "batch")),
    ("heatkernel", "apply_spectral_multiplier", ("values",)),
    ("particles", "step_epoch", ("pop",)),
    ("feynmankac", "qtc", ("F", "mc", "t")),
    ("dual", "evolve_dual", ("t", "dt")),
)


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"sbmre.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_function_and_method_resolves():
    tracing = _perfbench("tracing")
    for _, module, attr, bound_in in tracing._FUNCTIONS:
        assert module in INSTALLED and set(bound_in) <= set(INSTALLED)
        assert callable(_resolve(module, attr)), f"{module}.{attr}"
    for _, module, cls, attr in tracing._METHODS:
        assert module in INSTALLED
        assert callable(_resolve(module, f"{cls}.{attr}")), f"{module}.{cls}.{attr}"
    # particles only imports the site factor for the tracer to wrap; it must
    # stay the library's own function, not a local helper of the same name
    assert particles.points_covariance_factor is covariance.points_covariance_factor


def test_counted_parameters_and_results_exist():
    for module, dotted, names in COUNTED_PARAMETERS:
        params = inspect.signature(_resolve(module, dotted)).parameters
        assert set(names) <= set(params), f"{module}.{dotted} lacks {names}"
    # the frozen library segment's calls in perfbench/workloads.py, argument for argument
    p = _perfbench("workloads").LIBRARY
    inspect.signature(covariance.ScaledTheta).bind(p["amplitude"])
    inspect.signature(spde.ensemble_noise).bind(None, None, p["dt"], 0, p["replicas"],
                                                batch_size=p["batch"])
    assert isinstance(inspect.getattr_static(dual.DualState, "jump_count"), property)
