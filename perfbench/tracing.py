"""Spans and counts around calls into the sbmre layers, from outside the program.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent) and update counters.  Modules
that bound a function by name at import time (`from .spde import solve_pam`)
keep their own reference, so every such binding is patched as well.  Spans
stay in memory and are written out once at the end of the pass.

Tracing is for the traced pass only; end-to-end timings come from untraced
passes, and the difference is reported as the tracing overhead.
"""

import functools
import inspect
import json
import time
from collections import defaultdict

# (span name, module, attribute, modules that bound the attribute by name).
# covariance.points_covariance_factor is deliberately not patched inside
# covariance itself: grid_covariance_factor calls it through covariance's
# globals, and that call is part of the grid factor build.
_FUNCTIONS = (
    ("covariance.grid_factor", "covariance", "grid_covariance_factor", ("spde", "dual")),
    ("covariance.points_factor", "particles", "points_covariance_factor", ("feynmankac",)),
    ("heatkernel.spectral", "heatkernel", "apply_spectral_multiplier", ("spde", "dual")),
    ("heatkernel.quadrature", "heatkernel", "heat_at_points", ("cli", "feynmankac")),
    ("heatkernel.semigroup", "heatkernel", "apply_heat_semigroup", ("cli",)),
    ("spde.solve", "spde", "solve_pam", ("cli", "feynmankac")),
    ("spde.solve", "spde", "solve_log_laplace", ("cli", "dual")),
    ("spde.solve", "spde", "solve_stratonovich_pam", ("cli",)),
    ("spde.solve", "spde", "derivative_quotient", ("cli",)),
    ("spde.solve", "spde", "pam_log_max_series", ("feynmankac",)),
    ("spde.ensemble_noise", "spde", "ensemble_noise", ()),
    ("particles.epoch", "particles", "step_epoch", ()),
    ("particles.ensemble", "particles", "run_ensemble", ("cli",)),
    ("feynmankac.pairpath", "feynmankac", "qtc", ()),
    ("feynmankac.pairpath", "feynmankac", "second_moment_rhs", ("cli",)),
    ("feynmankac.pairpath", "feynmankac", "pam_second_moment_oracle", ("cli",)),
    ("feynmankac.growth", "feynmankac", "lyapunov_estimate", ("cli",)),
    ("feynmankac.growth", "feynmankac", "ldp_tail_probe", ("cli",)),
    ("dual.evolve", "dual", "evolve_dual", ("cli",)),
    ("dual.scan", "dual", "third_moment_scan", ("cli",)),
    ("cli.experiment", "cli", "run_experiment", ()),
)
_METHODS = (
    ("covariance.sample", "covariance", "GaussianFieldFactor", "sample"),
    ("spde.noise", "spde", "NoisePath", "increment"),
)


class Tracer:
    """In-memory span recorder with per-name nesting depth and counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, outermost of its name]
        self.counts = defaultdict(float)
        self.depth = defaultdict(int)
        self._stack = [-1]  # indices of open spans; -1 is the root

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; count(tracer, arguments, result) runs on success.

        `arguments` maps every parameter name to its value, defaults included.
        """
        params = inspect.signature(fn).parameters
        names = tuple(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}

        spans, stack, depth, clock = self.spans, self._stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], depth[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if count is not None:
                count(self, {**defaults, **dict(zip(names, args)), **kwargs}, result)
            return result

        return traced

    def install(self, modules: dict):
        """Patch every traced function and method in the given sbmre modules.

        The patches stay for the life of the process, which ends with the pass.
        """
        for name, module, attr, bound_in in _FUNCTIONS:
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original, _COUNTERS.get(name))
            for where in (module,) + bound_in:
                setattr(modules[where], attr, traced)
        for name, module, cls, attr in _METHODS:
            owner = getattr(modules[module], cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), _COUNTERS.get(name)))

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "outermost"],
                       "spans": self.spans, "counts": self.counts}, handle)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit); ratios over no work are 0.

        busy_s is the time inside the outermost spans of a name, self_s the
        time inside its spans minus the time inside their child spans (which
        leaves the tracer's own per-call cost of the children in the parent).
        calls counts every span of the name, nested ones included.
        """
        self_s = defaultdict(float)
        busy = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, outermost in self.spans:
            calls[name] += 1
            if outermost:
                busy[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "covariance.grid_factor.calls": (calls["covariance.grid_factor"], "count"),
            "covariance.grid_factor.busy_s": (busy["covariance.grid_factor"], "s"),
            "covariance.points_factor.calls": (calls["covariance.points_factor"], "count"),
            "covariance.points_factor.busy_s": (busy["covariance.points_factor"], "s"),
            "covariance.points_factor.sites": (c["points_factor.sites"], "count"),
            "covariance.factor.jittered": (c["factor.jittered"], "count"),
            "covariance.factor.rank_mean": (ratio(c["factor.rank"], c["factor.builds"]), "count"),
            "covariance.sample.calls": (calls["covariance.sample"], "count"),
            "covariance.sample.busy_s": (busy["covariance.sample"], "s"),
            "covariance.sample.values": (c["sample.values"], "count"),
            "covariance.sample.flop_computed": (c["sample.flop"], "flop"),
            "heatkernel.spectral.calls": (calls["heatkernel.spectral"], "count"),
            "heatkernel.spectral.busy_s": (busy["heatkernel.spectral"], "s"),
            "heatkernel.spectral.values_per_call": (
                ratio(c["spectral.values"], calls["heatkernel.spectral"]), "count"),
            "heatkernel.quadrature.busy_s": (busy["heatkernel.quadrature"], "s"),
            "spde.solve.calls": (calls["spde.solve"], "count"),
            "spde.solve.busy_s": (busy["spde.solve"], "s"),
            "spde.solve.self_s": (self_s["spde.solve"], "s"),
            "spde.cell_steps": (c["noise.values_used"], "count"),
            "spde.cell_steps_per_s": (ratio(c["noise.values_used"], busy["spde.solve"]), "1/s"),
            "spde.noise.values_used": (c["noise.values_used"], "count"),
            "spde.noise.useful_ratio": (
                ratio(c["noise.values_used"], c["noise.values_drawn"]), "ratio"),
            "particles.epoch.calls": (calls["particles.epoch"], "count"),
            "particles.epoch.busy_s": (busy["particles.epoch"], "s"),
            "particles.epoch.self_s": (self_s["particles.epoch"], "s"),
            "particles.epoch.particles": (c["epoch.particles"], "count"),
            "particles.blowups": (c["particles.blowups"], "count"),
            "feynmankac.pairpath.calls": (calls["feynmankac.pairpath"], "count"),
            "feynmankac.pairpath.busy_s": (busy["feynmankac.pairpath"], "s"),
            "feynmankac.pairpath.path_steps": (c["pairpath.path_steps"], "count"),
            "feynmankac.growth.self_s": (self_s["feynmankac.growth"], "s"),
            "dual.evolve.calls": (calls["dual.evolve"], "count"),
            "dual.evolve.busy_s": (busy["dual.evolve"], "s"),
            "dual.evolve.self_s": (self_s["dual.evolve"], "s"),
            "dual.steps": (c["dual.steps"], "count"),
            "dual.jumps": (c["dual.jumps"], "count"),
            "dual.factor_builds_per_call": (
                ratio(c["dual.factor_builds"], calls["dual.evolve"]), "count"),
            "cli.run.busy_s": (busy["cli.run"], "s"),
            "cli.self_s": (self_s["cli.run"] + self_s["cli.experiment"], "s"),
            "cli.checks": (c["cli.checks"], "count"),
            "cli.checks_failed": (c["cli.checks_failed"], "count"),
        }


# ------------------------------------------------------------------ counters
# Each runs after a successful call with the bound arguments and the result.


def _count_factor(tracer, args, factor):
    tracer.counts["factor.builds"] += 1
    tracer.counts["factor.rank"] += factor.root.shape[1]
    tracer.counts["factor.jittered"] += factor.jitter > 0
    if tracer.depth["dual.evolve"]:
        tracer.counts["dual.factor_builds"] += 1


def _count_points_factor(tracer, args, factor):
    tracer.counts["points_factor.sites"] += len(args["points"])
    _count_factor(tracer, args, factor)


def _count_sample(tracer, args, values):
    m, rank = args["self"].root.shape
    cols = 1 if args["batch"] is None else int(args["batch"])
    tracer.counts["sample.values"] += values.size
    tracer.counts["sample.flop"] += 2 * m * rank * cols  # root @ z, as computed
    if tracer.depth["spde.noise"]:
        tracer.counts["noise.values_drawn"] += values.size


def _count_increment(tracer, args, values):
    tracer.counts["noise.values_used"] += values.size


def _count_spectral(tracer, args, values):
    tracer.counts["spectral.values"] += args["values"].size


def _count_epoch(tracer, args, pop):
    tracer.counts["epoch.particles"] += args["pop"].count


def _count_ensemble(tracer, args, result):
    tracer.counts["particles.blowups"] += len(result[1])


def _count_pairpath(tracer, args, result):
    if "mc" in args and "F" in args:  # qtc: the pair-path sampler itself
        tracer.counts["pairpath.path_steps"] += args["mc"].n_paths * args["mc"].steps_for(args["t"])


def _count_dual(tracer, args, state):
    tracer.counts["dual.steps"] += int(round(args["t"] / args["dt"]))
    tracer.counts["dual.jumps"] += state.jump_count


def _count_checks(tracer, args, report):
    tracer.counts["cli.checks"] += len(report.rows)
    tracer.counts["cli.checks_failed"] += sum(not row.passed for row in report.rows)


_COUNTERS = {
    "covariance.grid_factor": _count_factor,
    "covariance.points_factor": _count_points_factor,
    "covariance.sample": _count_sample,
    "spde.noise": _count_increment,
    "heatkernel.spectral": _count_spectral,
    "particles.epoch": _count_epoch,
    "particles.ensemble": _count_ensemble,
    "feynmankac.pairpath": _count_pairpath,
    "dual.evolve": _count_dual,
    "cli.experiment": _count_checks,
}
