"""The shipped experiments: one function per `configs/*.ini` entry.

An experiment takes a parsed config (sbmre.cli.ExperimentConfig) and the
run's WorkerPool and returns CheckRows, one per summary-statistic check, in a
fixed order.  Every independent unit of work runs on that pool as an
ensemble job: replica batches keyed by batch index, the pair-path oracle's
chunks and strata (the feynmankac and dual routes take the pool as
`workers`), and whole marches that share nothing with the rest of the
experiment, handed to ensemble.run_jobs together with its batches.  Results
come back in job order, so the rows depend only on (config, seed), never on
the worker count.  The job functions live at module level so a process pool
can pickle them.

Each experiment declares at registration the kind of every `[params]` key
it reads (PARAMS): `float`, `int` (a count) or `tuple` (a list of floats),
or a Time, a float or tuple of times that must be whole numbers of steps,
declared with its default.  The runner converts each key to its kind at load
and refuses any key the experiment does not declare, so an experiment reads
`cfg.params.get(key, default)` and gets a value of that kind; a Time left
out is filled in with its default at load, so the body reads
`cfg.params[key]`.  The runner also calls check_runnable at load, which
refuses (ConfigError, exit 2) a kernel or grid an experiment cannot run
(every experiment but threshold-table and persistence-scan samples its
kernel, so that kernel must be positive definite) and a time, given or
default, that is not a whole number of its steps, so no experiment body
checks them.

Each experiment calls the layers through their modules (`spde.solve_pam`,
`dual.third_moment_scan`, ...), never through names bound at import, so a
wrapper put on a layer's module sees every call.  Anything an experiment
raises is the runner's ExperimentError (exit 3).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dual, feynmankac, heatkernel, particles, spde
from .covariance import (Constant, CovarianceKernel, IndicatorBall, ScaledTheta, StationaryPower,
                         require_grid_size, require_positive_definite)
from .ensemble import WorkerPool, batch_jobs, map_batches, mean_se, run_jobs
from .grids import GridFunction
from .readouts import ConstantReadout

# derived sub-streams so the independent estimators inside one experiment
# never share draws with each other or with the solver ensembles
_SEED_FK = 101
_SEED_ORACLE = 202
_SEED_LEFT = 11
_SEED_RIGHT = 22
_GUARD = 1e-9  # roundoff allowance added to k*SE gates (SE can be exactly 0)
MC_DT = 0.0125  # the pair-path step when [params] mc_dt is absent
# closed-form persistence thresholds 8(d-2)pi^(d/2) / (d 2^d Gamma(d/2-1))
_THRESHOLD_TARGETS = {3: math.pi / 3.0, 4: math.pi**2 / 4.0, 5: 3.0 * math.pi**2 / 10.0}


class ConfigError(ValueError):
    """Config file missing, malformed, or failing validation, including a
    kernel or grid its experiment cannot run (check_runnable)."""


@dataclass(frozen=True)
class CheckRow:
    """One summary-statistic check: dispersion is an SE or a tolerance."""

    name: str
    estimate: float
    dispersion: float
    passed: bool


def _gate(gap: float, scale: float, k: float) -> bool:
    return abs(gap) <= k * scale + _GUARD


@dataclass(frozen=True)
class Time:
    """The kind of a [params] time.  `default` is the value a config that
    leaves the key out runs: a float, or a tuple for a list of times, and
    `kind` follows it.  Each value is a whole number of steps of every step
    named in `steps`: "dt" for [scheme] dt, "mc_dt" for the pair-path step."""

    default: object
    steps: tuple = ("dt",)

    @property
    def kind(self) -> type:
        return tuple if isinstance(self.default, tuple) else float


EXPERIMENTS = {}  # experiment name -> fn(cfg, pool) -> list of CheckRow
PARAMS = {}  # experiment name -> {[params] key it reads: float, int (a count), tuple or Time}


def _experiment(name, **kinds):
    def register(fn):
        EXPERIMENTS[name] = fn
        PARAMS[name] = kinds
        return fn

    return register


def check_runnable(cfg):
    """Raise ConfigError if cfg's experiment cannot run its kernel, grid or times."""
    if cfg.experiment not in ("threshold-table", "persistence-scan"):  # these sample no field
        try:
            require_positive_definite(cfg.kernel)
            if cfg.experiment != "moments-triangle":  # its particles read only the grid's d
                require_grid_size(cfg.kernel, cfg.grid)
        except ValueError as err:
            raise ConfigError(f"{cfg.experiment}: {err}") from err
    for key, kind in PARAMS[cfg.experiment].items():
        if not isinstance(kind, Time):
            continue
        values = cfg.params[key] if kind.kind is tuple else (cfg.params[key],)
        for step in kind.steps:
            dt = cfg.dt if step == "dt" else cfg.params.get("mc_dt", MC_DT)
            for value in values:
                try:
                    spde._resolve_steps(value, dt)
                except ValueError as err:
                    raise ConfigError(f"[params] {key}: {err}") from err
    if cfg.experiment == "persistence-scan":
        if cfg.grid.dim < 3:
            raise ConfigError("persistence-scan requires grid dimension >= 3")
        if not isinstance(cfg.kernel, (StationaryPower, IndicatorBall)):
            raise ConfigError("persistence-scan needs an amplitude-scalable kernel "
                              "(power or indicator)")
    if cfg.experiment == "lyapunov-ladder" and not isinstance(cfg.kernel, ScaledTheta):
        raise ConfigError("lyapunov-ladder needs a scaled kernel")


@_experiment("threshold-table")
def _threshold_table(cfg, pool: WorkerPool) -> list:
    rows = []
    for d, target in _THRESHOLD_TARGETS.items():
        est = heatkernel.persistence_threshold(d)
        rows.append(CheckRow(f"threshold-d{d}", est, 1e-12, abs(est - target) <= 1e-12))
    theta = heatkernel.riesz_potential_sup(IndicatorBall(radius=1.0, height=1.0), 3)
    rows.append(CheckRow("theta-unit-ball-d3", theta, 1e-6,
                         abs(theta - 2.0 * math.pi) <= 1e-6))
    return rows


class _PairingStat:
    """Snapshot reducer: final-time (<f, X>, <f, X>^2)."""

    def __init__(self, readout):
        self.readout = readout

    def __call__(self, snapshots):
        first, second = particles.empirical_pairing(snapshots[-1], self.readout)
        return np.array([first, second])


def _particle_batch(bc, t, readout, seed, b, lo, hi):
    rows, blowups = particles.run_ensemble(bc, [t], seed, hi - lo, _PairingStat(readout),
                                           first_replica=lo)
    return rows, len(blowups)


@_experiment("moments-triangle", t=Time(1.0, steps=("mc_dt",)), n=int, cap=int, mc_dt=float)
def _moments_triangle(cfg, pool: WorkerPool) -> list:
    t = cfg.params["t"]
    scale_n = cfg.params.get("n", 200)
    f = cfg.readout
    d = cfg.grid.dim
    # unit point mass at the origin is n particles at branching scale n
    bc = particles.BranchingConfig(n=scale_n, dim=d, kernel=cfg.kernel,
                                   initial=np.zeros((scale_n, d)), horizon=t,
                                   max_population=cfg.params.get("cap", 2_000_000))
    parts = map_batches(_particle_batch, cfg.replicas, (bc, t, f, cfg.seed), pool)
    stats = np.concatenate([rows for rows, _ in parts], axis=0)
    breaches = sum(b for _, b in parts)
    m1, se1 = mean_se(stats[:, 0])
    m2, se2 = mean_se(stats[:, 1])

    delta = feynmankac.AtomicMeasure.delta(np.zeros(d))
    mc = feynmankac.MCConfig(n_paths=cfg.paths, dt=cfg.params.get("mc_dt", MC_DT),
                             seed=cfg.seed + _SEED_FK)
    rhs1 = feynmankac.first_moment_rhs(f, delta, t)
    rhs2, rhs2_se = feynmankac.second_moment_rhs(f, delta, t, cfg.kernel, mc, pool)

    rows = [
        CheckRow("particle-cap-breaches", float(breaches), 0.0, breaches == 0),
        CheckRow("particle-first-moment", m1, se1, _gate(m1 - rhs1, se1, 3.0)),
        CheckRow("pair-integral-second-moment", rhs2, rhs2_se, True),
        CheckRow("triangle-particle-vs-pair-integral", abs(m2 - rhs2),
                 math.hypot(se2, rhs2_se), _gate(m2 - rhs2, math.hypot(se2, rhs2_se), 5.0)),
    ]
    if isinstance(cfg.kernel, Constant) and isinstance(f, ConstantReadout) and cfg.kernel.level > 0:
        c, kappa = cfg.kernel.level, f.value
        closed = kappa**2 * (math.exp(c * t) + (math.exp(c * t) - 1.0) / c)
        rows.append(CheckRow("pair-integral-vs-closed-form", abs(rhs2 - closed),
                             rhs2_se, _gate(rhs2 - closed, rhs2_se, 3.0)))
        rows.append(CheckRow("particle-second-vs-closed-form", m2, se2,
                             _gate(m2 - closed, se2, 5.0)))
    else:
        rows.append(CheckRow("particle-second-moment", m2, se2, True))
    return rows


def _pam_center_batch(f, kernel, t, dt, seed, b, lo, hi):
    noise = spde.batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    sol = spde.solve_pam(f, t, noise)
    origin = np.zeros(f.grid.dim)
    vals = np.array([GridFunction(f.grid, v).at(origin) for v in sol.values[-1]])
    return np.stack([vals, vals * vals], axis=1)


@_experiment("pam-oracle", t=Time(1.0, steps=("dt", "mc_dt")), mc_dt=float)
def _pam_oracle(cfg, pool: WorkerPool) -> list:
    t = cfg.params["t"]
    f = GridFunction.from_callable(cfg.grid, cfg.readout)
    args = (f, cfg.kernel, t, cfg.dt, cfg.seed)
    stats = np.concatenate(map_batches(_pam_center_batch, cfg.replicas, args, pool), axis=0)
    m1, se1 = mean_se(stats[:, 0])
    m2, se2 = mean_se(stats[:, 1])
    origin = np.zeros(cfg.grid.dim)
    target1 = float(heatkernel.heat_at_points(cfg.readout, t, origin, cfg.grid.dim)[0])
    mc = feynmankac.MCConfig(n_paths=cfg.paths, dt=cfg.params.get("mc_dt", MC_DT),
                             seed=cfg.seed + _SEED_ORACLE)
    oracle, oracle_se = feynmankac.pam_second_moment_oracle(cfg.readout, t, origin, origin,
                                                            cfg.kernel, mc, pool)
    rows = [
        CheckRow("ensemble-mean", m1, se1, _gate(m1 - target1, se1, 3.0)),
        CheckRow("pair-oracle", oracle, oracle_se, True),
        CheckRow("ensemble-vs-oracle", abs(m2 - oracle), math.hypot(se2, oracle_se),
                 _gate(m2 - oracle, math.hypot(se2, oracle_se), 5.0)),
    ]
    if isinstance(cfg.kernel, Constant):
        closed = math.exp(cfg.kernel.level * t) * target1**2
        rows.insert(1, CheckRow("ensemble-second-moment", m2, se2,
                                _gate(m2 - closed, se2, 3.0)))
        rows.append(CheckRow("pair-oracle-vs-closed-form", abs(oracle - closed),
                             oracle_se, _gate(oracle - closed, oracle_se, 3.0)))
    else:
        rows.insert(1, CheckRow("ensemble-second-moment", m2, se2, True))
    return rows


def _comparison_batch(f, kernel, t, dt, seed, lambdas, delta, save_every, b, lo, hi):
    noise = spde.batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    agg = []
    for lam, pair in zip(lambdas, spde.derivative_quotients(f, lambdas, delta, t, noise,
                                                            save_every)):
        w_low, w_high = pair.sandwich_margins()
        agg.append([
            float(pair.lower.values.min()),
            float((lam * pair.pam.values - pair.lower.values).min()),
            float((pair.upper.values - pair.lower.values).min()),
            w_low,
            w_high,
        ])
    return np.array(agg)


def _zero_kernel_gap(f, t, dt, seed):
    """Largest gap between the noise-off march and the heat semigroup."""
    quiet = spde.NoisePath(f.grid, Constant(0.0), dt, seed, n_replicas=1)
    flow = spde.solve_pam(f, t, quiet).values[-1][0]
    heat = heatkernel.apply_heat_semigroup(f, t).values
    return float(np.max(np.abs(flow - heat)))


def _stratonovich_gap(f, kernel, t, dt, seed):
    noise = spde.NoisePath(f.grid, kernel, dt, seed, n_replicas=1)
    return spde.solve_stratonovich_pam(f, kernel, t, noise).route_gap


@_experiment("comparison-suite", t=Time(1.0), lambdas=tuple, delta=float)
def _comparison_suite(cfg, pool: WorkerPool) -> list:
    t = cfg.params["t"]
    lambdas = cfg.params.get("lambdas", (0.5, 1.0))
    delta = cfg.params.get("delta", 0.1)
    save_every = max(1, round(t / cfg.dt / 8))
    f = GridFunction.from_callable(cfg.grid, cfg.readout)
    args = (f, cfg.kernel, t, cfg.dt, cfg.seed, lambdas, delta, save_every)
    batches = batch_jobs(_comparison_batch, cfg.replicas, args)
    marches = [(_zero_kernel_gap, f, t, cfg.dt, cfg.seed)]
    if isinstance(cfg.kernel, ScaledTheta) and cfg.kernel.a > 0:
        marches.append((_stratonovich_gap, f, cfg.kernel, t, cfg.dt, cfg.seed + 1))
    results = run_jobs(batches + marches, pool)
    margins = np.min(results[:len(batches)], axis=0)
    names = ("u-nonnegative", "u-below-lambda-linear", "u-monotone-in-lambda",
             "quotient-nonnegative", "quotient-below-linear")
    rows = []
    for i, lam in enumerate(lambdas):
        for j, name in enumerate(names):
            est = margins[i, j]
            rows.append(CheckRow(f"{name}-lam{lam:g}", est, 1e-12, est >= -1e-12))

    gap, *strat = results[len(batches):]
    rows.append(CheckRow("zero-kernel-matches-heat-flow", gap, 1e-8, gap <= 1e-8))
    for route_gap in strat:
        rows.append(CheckRow("stratonovich-route-gap", route_gap, 1e-3, route_gap <= 1e-3))
    return rows


def _log_laplace_mean_batch(f, kernel, routes, t, dt, seed, b, lo, hi):
    """Final spatial means per route and replica; the routes share the batch's noise path."""
    noise = spde.batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    _, vals = spde.solve_routes(f, t, noise, routes)
    axes = tuple(range(1, f.grid.dim + 1))
    return np.stack([v[-1].mean(axis=axes) for v in vals])


def _noise_off_routes(f, routes, t, dt, seed, save_every):
    """solve_routes from f with the noise off: the closed-form march."""
    quiet = spde.NoisePath(f.grid, Constant(0.0), dt, seed, n_replicas=1)
    return spde.solve_routes(f, t, quiet, routes, save_every=save_every)


@_experiment("extinction-scan", t=Time(4.0), ks=tuple)
def _extinction_scan(cfg, pool: WorkerPool) -> list:
    t = cfg.params["t"]
    ks = cfg.params.get("ks", (1.0, 10.0))
    rows = []
    save_every = max(1, round(t / cfg.dt / 16))
    routes = [spde.Route(k, reaction=True) for k in ks]
    ones = GridFunction.constant(cfg.grid, 1.0)
    args = (ones, cfg.kernel, routes, t, cfg.dt, cfg.seed)
    (times, vals), *parts = run_jobs(
        [(_noise_off_routes, ones, routes, t, cfg.dt, cfg.seed, save_every)]
        + batch_jobs(_log_laplace_mean_batch, cfg.replicas, args), pool)
    for k, values in zip(ks, vals):
        closed = 1.0 / (times / 2.0 + 1.0 / k)
        closed = closed.reshape((-1,) + (1,) * cfg.grid.dim)
        err = float(np.max(np.abs(values[:, 0] - closed)))
        rows.append(CheckRow(f"absorbing-closed-form-k{k:g}", err, 1e-6, err <= 1e-6))
    all_means = np.concatenate(parts, axis=1)
    for k, means in zip(ks, all_means):
        mean, se = mean_se(means)
        bound = 1.0 / (t / 2.0 + 1.0 / k)
        rows.append(CheckRow(f"jensen-bound-k{k:g}", mean, se,
                             mean <= bound + 3.0 * se + _GUARD))
    return rows


def _scale_kernel(kernel: CovarianceKernel, s: float) -> CovarianceKernel:
    """The power or indicator kernel (check_runnable admits no other) at s times its amplitude."""
    if isinstance(kernel, StationaryPower):
        return StationaryPower(s * kernel.eps, kernel.alpha)
    return IndicatorBall(radius=kernel.radius, height=s * kernel.height)


@_experiment("persistence-scan", strengths=tuple)
def _persistence_scan(cfg, pool: WorkerPool) -> list:
    d = cfg.grid.dim
    strengths = cfg.params.get("strengths", (0.5, 1.0, 2.0, 4.0))
    threshold = heatkernel.persistence_threshold(d)
    rows = []
    if d in _THRESHOLD_TARGETS:
        rows.append(CheckRow(f"threshold-d{d}", threshold, 1e-12,
                             abs(threshold - _THRESHOLD_TARGETS[d]) <= 1e-12))
    base = heatkernel.riesz_potential_sup(_scale_kernel(cfg.kernel, 1.0), d)
    rows.append(CheckRow("theta-base", base, 0.0, np.isfinite(base) and base > 0))
    worst_rel = 0.0
    verdicts = []
    for s in strengths:
        theta = heatkernel.riesz_potential_sup(_scale_kernel(cfg.kernel, s), d)
        worst_rel = max(worst_rel, abs(theta - s * base) / max(1.0, s * base))
        verdict = 1.0 if theta < threshold else 0.0
        verdicts.append(verdict)
        rows.append(CheckRow(f"persists-strength-{s:g}", verdict, 0.0, True))
    rows.append(CheckRow("theta-linear-in-amplitude", worst_rel, 1e-6, worst_rel <= 1e-6))
    monotone = all(a >= b for a, b in zip(verdicts, verdicts[1:]))
    rows.append(CheckRow("persistence-monotone-in-amplitude",
                         float(monotone), 0.0, monotone))
    return rows


@_experiment("duality-ladder", t=Time(0.5), n_ladder=tuple, tm_replicas=int, rho=float)
def _duality_ladder(cfg, pool: WorkerPool) -> list:
    t = cfg.params["t"]
    ladder = cfg.params.get("n_ladder", (10.0, 40.0, 160.0))
    tm_replicas = cfg.params.get("tm_replicas", min(cfg.replicas, 40))
    phi = GridFunction.from_callable(cfg.grid, cfg.readout)
    mu = (np.array([1.0]), np.zeros((1, cfg.grid.dim)))
    left_seed, right_seed = cfg.seed + _SEED_LEFT, cfg.seed + _SEED_RIGHT
    rows = []

    zero = GridFunction.constant(cfg.grid, float(np.max(phi.values)))
    (l0, l0_se), (r0, r0_se) = run_jobs([
        (dual.laplace_via_log_laplace, zero, mu, t, Constant(0.0), left_seed, 8, cfg.dt),
        (dual.laplace_via_dual, zero, mu, t, ladder[0], Constant(0.0), right_seed, 8, cfg.dt),
    ], pool)
    gap0, gap0_se = abs(l0 - r0), math.hypot(l0_se, r0_se)
    rows.append(CheckRow("zero-kernel-gap", gap0, gap0_se,
                         gap0 <= 2.0 * gap0_se + 1e-12))

    l_mean, l_se = dual.laplace_via_log_laplace(phi, mu, t, cfg.kernel, left_seed,
                                                cfg.replicas, cfg.dt, pool)
    rows.append(CheckRow("laplace-route", l_mean, l_se, True))

    gaps = []
    for n in ladder:
        right, counts = dual.dual_route_samples(phi, mu, t, n, cfg.kernel, right_seed,
                                                cfg.replicas, cfg.dt, pool)
        r_mean, r_se = mean_se(right)
        gaps.append((abs(l_mean - r_mean), math.hypot(l_se, r_se)))
        rows.append(CheckRow(f"gap-n{n:g}", gaps[-1][0], gaps[-1][1], True))
        c_mean, c_se = mean_se(counts)
        rows.append(CheckRow(f"jump-count-mean-n{n:g}", c_mean, c_se,
                             _gate(c_mean - n * t, c_se, 3.0)))

    worst = 0.0
    ok = True
    for (g_lo, s_lo), (g_hi, s_hi) in zip(gaps, gaps[1:]):
        worst = max(worst, g_hi - g_lo)
        ok = ok and g_hi <= g_lo + math.hypot(s_lo, s_hi) + _GUARD
    rows.append(CheckRow("gap-ladder-non-increasing", worst,
                         math.hypot(gaps[0][1], gaps[-1][1]), ok))

    probes = np.zeros((2, cfg.grid.dim))
    probes[1, 0] = 1.0
    report = dual.third_moment_scan(phi, [t], ladder, cfg.kernel, probes,
                                    rho=cfg.params.get("rho", 2.0), seed=right_seed,
                                    n_replicas=tm_replicas, dt=cfg.dt, workers=pool)
    rows.append(CheckRow("third-moment-spread", report.spread(), 0.5,
                         report.spread() < 0.5))
    return rows


@_experiment("lyapunov-ladder", t=Time(6.0), a_ladder=tuple, tail_a=tuple,
             tail_t=Time((0.5, 6.0)), tail_replicas=int, window=float)
def _lyapunov_ladder(cfg, pool: WorkerPool) -> list:
    a_ladder = cfg.params.get("a_ladder", (1.0, 4.0, 16.0, 64.0))
    T = cfg.params["t"]
    tail_reps = cfg.params.get("tail_replicas", cfg.replicas)
    tail_a = cfg.params.get("tail_a", (2.0, 32.0))
    tail_t = cfg.params["tail_t"]
    L = cfg.params.get("window", 2.0)
    # every growth-rate march and every tail march is one job
    marches = run_jobs(
        [(feynmankac.lyapunov_estimate, ScaledTheta(a, cfg.kernel.width), cfg.grid, T,
          cfg.dt, cfg.seed, cfg.replicas) for a in a_ladder]
        + [(feynmankac.ldp_tail_probes, ScaledTheta(a, cfg.kernel.width), cfg.grid, tail_t,
            L, cfg.dt, cfg.seed, tail_reps) for a in tail_a], pool)
    rows = []
    slope_sets = []
    for a, est in zip(a_ladder, marches):
        slope_sets.append(est.slopes - a / 2.0)
        rows.append(CheckRow(f"strat-slope-median-a{a:g}", est.median,
                             est.band[1] - est.band[0], True))
        rows.append(CheckRow(f"plateau-conclusive-a{a:g}", float(est.conclusive),
                             0.0, True))
    decreases = slope_sets[-1] < slope_sets[0]
    frac = float(np.mean(decreases))
    lo, hi = feynmankac.wilson_interval(int(decreases.sum()), decreases.size)
    rows.append(CheckRow("quenched-slope-decrease-fraction", frac, hi - lo,
                         frac >= 0.9))

    probes = {}
    for a, tail in zip(tail_a, marches[len(a_ladder):]):
        for s, probe in zip(tail_t, tail):
            probes[a, s] = probe
            rows.append(CheckRow(f"tail-fraction-a{a:g}-t{s:g}", probe.fraction,
                                 0.5 * (probe.interval[1] - probe.interval[0]),
                                 True))
    dec_a = all(probes[tail_a[i + 1], s].fraction <= probes[tail_a[i], s].fraction
                for s in tail_t for i in range(len(tail_a) - 1))
    dec_t = all(probes[a, tail_t[i + 1]].fraction <= probes[a, tail_t[i]].fraction
                for a in tail_a for i in range(len(tail_t) - 1))
    rows.append(CheckRow("tail-decreasing-in-a", float(dec_a), 0.0, dec_a))
    rows.append(CheckRow("tail-decreasing-in-t", float(dec_t), 0.0, dec_t))
    first = probes[tail_a[0], tail_t[0]].interval
    last = probes[tail_a[-1], tail_t[-1]].interval
    sep = first[0] - last[1]
    rows.append(CheckRow("tail-extremes-wilson-separated", sep, 0.0, sep > 0))
    return rows
