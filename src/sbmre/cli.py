"""Batch experiment runner.

Each experiment reads a sectioned key-value config, fans its replicas out to
a worker pool in fixed-size index batches, and writes a long-format CSV (one
row per check: name, estimate, SE or tolerance, pass/fail) plus a JSON
manifest; both go to temp files first and are renamed into place together.
Every random draw derives from per-replica or per-batch streams spawned off
the root seed, and reductions happen in batch-index order, so the CSV bytes
depend only on (config, seed), never on the worker count.  The
manifest embeds the canonical config text and its hash; `replay` recomputes
the CSV from the manifest alone and refuses to run across version or config
drift.

Exit codes: 0 all checks pass, 1 any check fails, 2 config or replay error,
3 an experiment raised (ExperimentError: a solver or sampler failed).
"""

import argparse
import configparser
import difflib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .covariance import (
    Constant,
    CovarianceKernel,
    GaussianProfile,
    IndicatorBall,
    ScaledTheta,
    StationaryPower,
    gaussian_profile,
)
from .dual import dual_route_samples, laplace_via_dual, laplace_via_log_laplace, third_moment_scan
from .ensemble import WorkerPool, map_batches, mean_se
from .feynmankac import (
    AtomicMeasure,
    MCConfig,
    first_moment_rhs,
    ldp_tail_probes,
    lyapunov_estimate,
    pam_second_moment_oracle,
    second_moment_rhs,
    wilson_interval,
)
from .grids import Grid, GridFunction
from .heatkernel import (
    apply_heat_semigroup,
    heat_at_points,
    persistence_threshold,
    riesz_potential_sup,
)
from .particles import BranchingConfig, empirical_pairing, run_ensemble
from .readouts import ConstantReadout, parse_readout
from .spde import (NoisePath, Route, batch_noise, derivative_quotients, solve_pam,
                   solve_routes, solve_stratonovich_pam)

__all__ = [
    "ConfigError",
    "ReplayRefusal",
    "ExperimentError",
    "ExperimentConfig",
    "CheckRow",
    "RunReport",
    "load_config",
    "run_experiment",
    "replay",
    "main",
]

_REQUIRED_SECTIONS = ("experiment", "kernel", "grid", "scheme", "mc", "readouts", "output")
_CSV_HEADER = "experiment,check,estimate,dispersion,passed,seed,config_hash"
# derived sub-streams so the independent estimators inside one experiment
# never share draws with each other or with the solver ensembles
_SEED_FK = 101
_SEED_ORACLE = 202
_SEED_LEFT = 11
_SEED_RIGHT = 22
_GUARD = 1e-9  # roundoff allowance added to k*SE gates (SE can be exactly 0)
# closed-form persistence thresholds 8(d-2)pi^(d/2) / (d 2^d Gamma(d/2-1))
_THRESHOLD_TARGETS = {3: math.pi / 3.0, 4: math.pi**2 / 4.0, 5: 3.0 * math.pi**2 / 10.0}


class ConfigError(ValueError):
    """Config file missing, malformed, or failing validation."""


class ReplayRefusal(RuntimeError):
    """Replay declined: the recorded run is not reproducible as stated."""


class ExperimentError(RuntimeError):
    """A module raised during an experiment; the cause carries the detail."""


@dataclass(frozen=True)
class CheckRow:
    """One summary-statistic check: dispersion is an SE or a tolerance."""

    name: str
    estimate: float
    dispersion: float
    passed: bool


@dataclass(frozen=True)
class RunReport:
    experiment: str
    config_hash: str
    seed: int
    workers: int
    rows: tuple
    wall_clock: float
    versions: dict
    csv_path: str = None
    manifest_path: str = None
    csv_sha256: str = None

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    kernel: CovarianceKernel
    grid: Grid
    dt: float
    replicas: int
    paths: int
    seed: int
    readouts: tuple  # ((name, readout), ...) in file order
    params: dict
    outdir: str
    text: str
    digest: str

    @property
    def readout(self):
        return self.readouts[0][1]

    def param(self, key: str, default: float) -> float:
        value = self.params.get(key, default)
        if isinstance(value, tuple):
            raise ConfigError(f"param {key} must be a single number")
        return float(value)

    def param_tuple(self, key: str, default: tuple) -> tuple:
        value = self.params.get(key, default)
        if not isinstance(value, tuple):
            value = (value,)
        return tuple(float(v) for v in value)


def _versions() -> dict:
    out = {"python": platform.python_version(), "sbmre": __version__}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = "unknown"
    return out


def _canonical_text(parser: configparser.ConfigParser) -> str:
    """Sorted sections/keys, [output] excluded: the replay-relevant content."""
    lines = []
    for section in sorted(s for s in parser.sections() if s != "output"):
        lines.append(f"[{section}]")
        for key in sorted(parser.options(section)):
            lines.append(f"{key} = {parser.get(section, key).strip()}")
    return "\n".join(lines) + "\n"


def _positive(parser, section, key, cast=float):
    try:
        value = cast(parser.get(section, key))
    except (configparser.NoOptionError, ValueError) as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err
    if value <= 0:
        raise ConfigError(f"[{section}] {key} must be positive, got {value}")
    return value


def _build_kernel(parser) -> CovarianceKernel:
    kind = parser.get("kernel", "type", fallback="").strip()
    if kind == "constant":
        level = parser.getfloat("kernel", "level", fallback=1.0)
        if level < 0:
            raise ConfigError("[kernel] level must be nonnegative")
        return Constant(level)
    if kind == "power":
        return StationaryPower(_positive(parser, "kernel", "eps"),
                               _positive(parser, "kernel", "alpha"))
    if kind == "scaled":
        a = _positive(parser, "kernel", "a")
        width = parser.getfloat("kernel", "width", fallback=1.0)
        if width <= 0:
            raise ConfigError("[kernel] width must be positive")
        profile = gaussian_profile if width == 1.0 else GaussianProfile(width)
        return ScaledTheta(a, profile)
    if kind == "indicator":
        return IndicatorBall(radius=_positive(parser, "kernel", "radius"),
                             height=_positive(parser, "kernel", "height"))
    raise ConfigError(f"[kernel] type must be constant|power|scaled|indicator, got {kind!r}")


def _build_grid(parser) -> Grid:
    d = _positive(parser, "grid", "d", cast=int)
    extent = _positive(parser, "grid", "l")
    h = _positive(parser, "grid", "h")
    cells = extent / h
    if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
        raise ConfigError(f"[grid] h must divide L, got L/h = {cells}")
    cells = int(round(cells))
    if cells % 2:
        raise ConfigError(f"[grid] L/h must be even, got {cells}")
    return Grid(dim=d, extent=extent, cells=cells)


def _parse_params(parser) -> dict:
    params = {}
    if not parser.has_section("params"):
        return params
    for key in parser.options("params"):
        raw = parser.get("params", key).strip()
        try:
            if "," in raw:
                value = tuple(float(tok) for tok in raw.split(","))
            else:
                value = float(raw)
        except ValueError as err:
            raise ConfigError(f"[params] {key}: {err}") from err
        flat = value if isinstance(value, tuple) else (value,)
        if any(v <= 0 for v in flat):
            raise ConfigError(f"[params] {key} must be positive, got {raw}")
        params[key] = value
    return params


def load_config(path: str, seed_override: int = None,
                out_override: str = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    missing = [s for s in _REQUIRED_SECTIONS if not parser.has_section(s)]
    if missing:
        raise ConfigError(f"missing config sections: {', '.join(missing)}")
    if seed_override is not None:
        parser["mc"]["seed"] = str(int(seed_override))
    return _config_from_parser(parser, out_override=out_override)


def _config_from_parser(parser, out_override: str = None) -> ExperimentConfig:
    name = parser.get("experiment", "name", fallback="").strip()
    if name not in _EXPERIMENTS:
        known = ", ".join(sorted(_EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; choices: {known}")
    ordering = parser.get("scheme", "ordering", fallback="symmetric").strip()
    if ordering != "symmetric":
        raise ConfigError(f"[scheme] ordering {ordering!r} is not supported; "
                          "the solvers run the symmetric splitting only")
    try:
        seed = parser.getint("mc", "seed")
    except (configparser.NoOptionError, ValueError) as err:
        raise ConfigError(f"[mc] seed: {err}") from err
    if seed < 0:
        raise ConfigError(f"[mc] seed must be nonnegative, got {seed}")
    readouts = []
    for key in parser.options("readouts"):
        try:
            readouts.append((key, parse_readout(parser.get("readouts", key))))
        except ValueError as err:
            raise ConfigError(f"[readouts] {key}: {err}") from err
    if not readouts:
        raise ConfigError("readout catalog is empty")
    outdir = out_override or parser.get("output", "directory", fallback="out")
    replicas = _positive(parser, "mc", "replicas", cast=int)
    if replicas < 2:
        raise ConfigError(f"[mc] replicas must be >= 2, got {replicas}")
    return ExperimentConfig(
        experiment=name,
        kernel=_build_kernel(parser),
        grid=_build_grid(parser),
        dt=_positive(parser, "scheme", "dt"),
        replicas=replicas,
        paths=_positive(parser, "mc", "paths", cast=int),
        seed=seed,
        readouts=tuple(readouts),
        params=_parse_params(parser),
        outdir=outdir,
        text=_canonical_text(parser),
        digest=hashlib.sha256(_canonical_text(parser).encode()).hexdigest(),
    )


def _gate(gap: float, scale: float, k: float) -> bool:
    return abs(gap) <= k * scale + _GUARD


# ------------------------------------------------------- experiment registry

_EXPERIMENTS = {}


def _experiment(name):
    def register(fn):
        _EXPERIMENTS[name] = fn
        return fn

    return register


@_experiment("threshold-table")
def _threshold_table(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    rows = []
    for d, target in _THRESHOLD_TARGETS.items():
        est = persistence_threshold(d)
        rows.append(CheckRow(f"threshold-d{d}", est, 1e-12, abs(est - target) <= 1e-12))
    theta = riesz_potential_sup(IndicatorBall(radius=1.0, height=1.0), 3)
    rows.append(CheckRow("theta-unit-ball-d3", theta, 1e-6,
                         abs(theta - 2.0 * math.pi) <= 1e-6))
    return rows


class _PairingStat:
    """Snapshot reducer: final-time (<f, X>, <f, X>^2)."""

    def __init__(self, readout):
        self.readout = readout

    def __call__(self, snapshots):
        first, second = empirical_pairing(snapshots[-1], self.readout)
        return np.array([first, second])


def _particle_batch(bc, t, readout, seed, b, lo, hi):
    rows, blowups = run_ensemble(bc, [t], seed, hi - lo, _PairingStat(readout),
                                 first_replica=lo)
    return rows, len(blowups)


@_experiment("moments-triangle")
def _moments_triangle(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    t = cfg.param("t", 1.0)
    scale_n = int(cfg.param("n", 200))
    f = cfg.readout
    d = cfg.grid.dim
    # unit point mass at the origin is n particles at branching scale n
    bc = BranchingConfig(n=scale_n, dim=d, kernel=cfg.kernel,
                         initial=np.zeros((scale_n, d)), horizon=t,
                         max_population=int(cfg.param("cap", 2_000_000)))
    parts = map_batches(_particle_batch, cfg.replicas, (bc, t, f, cfg.seed), pool)
    stats = np.concatenate([rows for rows, _ in parts], axis=0)
    breaches = sum(b for _, b in parts)
    m1, se1 = mean_se(stats[:, 0])
    m2, se2 = mean_se(stats[:, 1])

    delta = AtomicMeasure.delta(np.zeros(d))
    mc = MCConfig(n_paths=cfg.paths, dt=cfg.param("mc_dt", 0.0125),
                  seed=cfg.seed + _SEED_FK)
    rhs1 = first_moment_rhs(f, delta, t)
    rhs2, rhs2_se = second_moment_rhs(f, delta, t, cfg.kernel, mc)

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
    noise = batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    sol = solve_pam(f, t, noise)
    origin = np.zeros(f.grid.dim)
    vals = np.array([GridFunction(f.grid, v).at(origin) for v in sol.values[-1]])
    return np.stack([vals, vals * vals], axis=1)


@_experiment("pam-oracle")
def _pam_oracle(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    t = cfg.param("t", 1.0)
    f = GridFunction.from_callable(cfg.grid, cfg.readout)
    args = (f, cfg.kernel, t, cfg.dt, cfg.seed)
    stats = np.concatenate(map_batches(_pam_center_batch, cfg.replicas, args, pool), axis=0)
    m1, se1 = mean_se(stats[:, 0])
    m2, se2 = mean_se(stats[:, 1])
    origin = np.zeros(cfg.grid.dim)
    target1 = float(heat_at_points(cfg.readout, t, origin, cfg.grid.dim)[0])
    mc = MCConfig(n_paths=cfg.paths, dt=cfg.param("mc_dt", 0.0125),
                  seed=cfg.seed + _SEED_ORACLE)
    oracle, oracle_se = pam_second_moment_oracle(cfg.readout, t, origin, origin,
                                                 cfg.kernel, mc)
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
    noise = batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    agg = []
    for lam, pair in zip(lambdas, derivative_quotients(f, lambdas, delta, t, noise, save_every)):
        w_low, w_high = pair.sandwich_margins()
        agg.append([
            float(pair.lower.values.min()),
            float((lam * pair.pam.values - pair.lower.values).min()),
            float((pair.upper.values - pair.lower.values).min()),
            w_low,
            w_high,
        ])
    return np.array(agg)


@_experiment("comparison-suite")
def _comparison_suite(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    t = cfg.param("t", 1.0)
    lambdas = cfg.param_tuple("lambdas", (0.5, 1.0))
    delta = cfg.param("delta", 0.1)
    save_every = max(1, round(t / cfg.dt / 8))
    f = GridFunction.from_callable(cfg.grid, cfg.readout)
    args = (f, cfg.kernel, t, cfg.dt, cfg.seed, lambdas, delta, save_every)
    margins = np.min(map_batches(_comparison_batch, cfg.replicas, args, pool), axis=0)
    names = ("u-nonnegative", "u-below-lambda-linear", "u-monotone-in-lambda",
             "quotient-nonnegative", "quotient-below-linear")
    rows = []
    for i, lam in enumerate(lambdas):
        for j, name in enumerate(names):
            est = margins[i, j]
            rows.append(CheckRow(f"{name}-lam{lam:g}", est, 1e-12, est >= -1e-12))

    quiet = NoisePath(cfg.grid, Constant(0.0), cfg.dt, cfg.seed, n_replicas=1)
    flow = solve_pam(f, t, quiet).values[-1][0]
    heat = apply_heat_semigroup(f, t).values
    gap = float(np.max(np.abs(flow - heat)))
    rows.append(CheckRow("zero-kernel-matches-heat-flow", gap, 1e-8, gap <= 1e-8))
    if isinstance(cfg.kernel, ScaledTheta) and cfg.kernel.a > 0:
        noise = NoisePath(cfg.grid, cfg.kernel, cfg.dt, cfg.seed + 1, n_replicas=1)
        strat = solve_stratonovich_pam(f, cfg.kernel, t, noise)
        rows.append(CheckRow("stratonovich-route-gap", strat.route_gap, 1e-3,
                             strat.route_gap <= 1e-3))
    return rows


def _log_laplace_mean_batch(f, kernel, routes, t, dt, seed, b, lo, hi):
    """Final spatial means per route and replica; the routes share the batch's noise path."""
    noise = batch_noise(f.grid, kernel, dt, seed, b, lo, hi)
    _, vals = solve_routes(f, t, noise, routes)
    axes = tuple(range(1, f.grid.dim + 1))
    return np.stack([v[-1].mean(axis=axes) for v in vals])


@_experiment("extinction-scan")
def _extinction_scan(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    t = cfg.param("t", 4.0)
    ks = cfg.param_tuple("ks", (1.0, 10.0))
    rows = []
    quiet = NoisePath(cfg.grid, Constant(0.0), cfg.dt, cfg.seed, n_replicas=1)
    save_every = max(1, round(t / cfg.dt / 16))
    routes = [Route(k, reaction=True) for k in ks]
    ones = GridFunction.constant(cfg.grid, 1.0)
    times, vals = solve_routes(ones, t, quiet, routes, save_every=save_every)
    for k, values in zip(ks, vals):
        closed = 1.0 / (times / 2.0 + 1.0 / k)
        closed = closed.reshape((-1,) + (1,) * cfg.grid.dim)
        err = float(np.max(np.abs(values[:, 0] - closed)))
        rows.append(CheckRow(f"absorbing-closed-form-k{k:g}", err, 1e-6, err <= 1e-6))
    args = (ones, cfg.kernel, routes, t, cfg.dt, cfg.seed)
    all_means = np.concatenate(map_batches(_log_laplace_mean_batch, cfg.replicas, args, pool),
                               axis=1)
    for k, means in zip(ks, all_means):
        mean, se = mean_se(means)
        bound = 1.0 / (t / 2.0 + 1.0 / k)
        rows.append(CheckRow(f"jensen-bound-k{k:g}", mean, se,
                             mean <= bound + 3.0 * se + _GUARD))
    return rows


def _scale_kernel(kernel: CovarianceKernel, s: float) -> CovarianceKernel:
    if isinstance(kernel, StationaryPower):
        return StationaryPower(s * kernel.eps, kernel.alpha)
    if isinstance(kernel, IndicatorBall):
        return IndicatorBall(radius=kernel.radius, height=s * kernel.height)
    raise ConfigError("persistence-scan needs an amplitude-scalable kernel "
                      "(power or indicator)")


@_experiment("persistence-scan")
def _persistence_scan(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    d = cfg.grid.dim
    if d < 3:
        raise ConfigError("persistence-scan requires grid dimension >= 3")
    strengths = cfg.param_tuple("strengths", (0.5, 1.0, 2.0, 4.0))
    threshold = persistence_threshold(d)
    rows = []
    if d in _THRESHOLD_TARGETS:
        rows.append(CheckRow(f"threshold-d{d}", threshold, 1e-12,
                             abs(threshold - _THRESHOLD_TARGETS[d]) <= 1e-12))
    base = riesz_potential_sup(_scale_kernel(cfg.kernel, 1.0), d)
    rows.append(CheckRow("theta-base", base, 0.0, np.isfinite(base) and base > 0))
    worst_rel = 0.0
    verdicts = []
    for s in strengths:
        theta = riesz_potential_sup(_scale_kernel(cfg.kernel, s), d)
        worst_rel = max(worst_rel, abs(theta - s * base) / max(1.0, s * base))
        verdict = 1.0 if theta < threshold else 0.0
        verdicts.append(verdict)
        rows.append(CheckRow(f"persists-strength-{s:g}", verdict, 0.0, True))
    rows.append(CheckRow("theta-linear-in-amplitude", worst_rel, 1e-6, worst_rel <= 1e-6))
    monotone = all(a >= b for a, b in zip(verdicts, verdicts[1:]))
    rows.append(CheckRow("persistence-monotone-in-amplitude",
                         float(monotone), 0.0, monotone))
    return rows


@_experiment("duality-ladder")
def _duality_ladder(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    t = cfg.param("t", 0.5)
    ladder = cfg.param_tuple("n_ladder", (10.0, 40.0, 160.0))
    phi = GridFunction.from_callable(cfg.grid, cfg.readout)
    mu = (np.array([1.0]), np.zeros((1, cfg.grid.dim)))
    left_seed, right_seed = cfg.seed + _SEED_LEFT, cfg.seed + _SEED_RIGHT
    rows = []

    zero = GridFunction.constant(cfg.grid, float(np.max(phi.values)))
    l0, l0_se = laplace_via_log_laplace(zero, mu, t, Constant(0.0), left_seed, 8, cfg.dt)
    r0, r0_se = laplace_via_dual(zero, mu, t, ladder[0], Constant(0.0), right_seed, 8, cfg.dt)
    gap0, gap0_se = abs(l0 - r0), math.hypot(l0_se, r0_se)
    rows.append(CheckRow("zero-kernel-gap", gap0, gap0_se,
                         gap0 <= 2.0 * gap0_se + 1e-12))

    l_mean, l_se = laplace_via_log_laplace(phi, mu, t, cfg.kernel, left_seed,
                                           cfg.replicas, cfg.dt, pool)
    rows.append(CheckRow("laplace-route", l_mean, l_se, True))

    gaps = []
    for n in ladder:
        right, counts = dual_route_samples(phi, mu, t, n, cfg.kernel, right_seed,
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
    report = third_moment_scan(phi, [t], ladder, cfg.kernel, probes,
                               rho=cfg.param("rho", 2.0), seed=right_seed,
                               n_replicas=int(cfg.param("tm_replicas",
                                                        min(cfg.replicas, 40))),
                               dt=cfg.dt)
    rows.append(CheckRow("third-moment-spread", report.spread(), 0.5,
                         report.spread() < 0.5))
    return rows


@_experiment("lyapunov-ladder")
def _lyapunov_ladder(cfg: ExperimentConfig, pool: WorkerPool) -> list:
    if not isinstance(cfg.kernel, ScaledTheta):
        raise ConfigError("lyapunov-ladder needs a scaled kernel")
    profile = cfg.kernel.profile
    a_ladder = cfg.param_tuple("a_ladder", (1.0, 4.0, 16.0, 64.0))
    T = cfg.param("t", 6.0)
    rows = []
    slope_sets = []
    for a in a_ladder:
        est = lyapunov_estimate(ScaledTheta(a, profile), cfg.grid, T, cfg.dt,
                                cfg.seed, cfg.replicas)
        slope_sets.append(est.slopes - a / 2.0)
        rows.append(CheckRow(f"strat-slope-median-a{a:g}", est.median,
                             est.band[1] - est.band[0], True))
        rows.append(CheckRow(f"plateau-conclusive-a{a:g}", float(est.conclusive),
                             0.0, True))
    decreases = slope_sets[-1] < slope_sets[0]
    frac = float(np.mean(decreases))
    lo, hi = wilson_interval(int(decreases.sum()), decreases.size)
    rows.append(CheckRow("quenched-slope-decrease-fraction", frac, hi - lo,
                         frac >= 0.9))

    tail_a = cfg.param_tuple("tail_a", (2.0, 32.0))
    tail_t = cfg.param_tuple("tail_t", (0.5, 6.0))
    tail_reps = int(cfg.param("tail_replicas", cfg.replicas))
    L = cfg.param("window", 2.0)
    probes = {}
    for a in tail_a:
        for s, probe in zip(tail_t, ldp_tail_probes(ScaledTheta(a, profile), cfg.grid, tail_t,
                                                    L, cfg.dt, cfg.seed, tail_reps)):
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


# ----------------------------------------------------------------- artifacts


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_bytes(report_rows, experiment: str, seed: int, digest: str) -> bytes:
    lines = [_CSV_HEADER]
    for row in report_rows:
        lines.append(",".join([
            experiment,
            row.name,
            _fmt(row.estimate),
            _fmt(row.dispersion),
            "pass" if row.passed else "fail",
            str(seed),
            digest,
        ]))
    return ("\n".join(lines) + "\n").encode()


def _compute_rows(cfg: ExperimentConfig, workers: int) -> tuple:
    start = time.perf_counter()
    try:
        with WorkerPool(workers) as pool:  # one pool per run, started on first use
            rows = tuple(_EXPERIMENTS[cfg.experiment](cfg, pool))
    except (ConfigError, ReplayRefusal):
        raise
    except Exception as err:
        raise ExperimentError(f"{cfg.experiment} failed: {err}") from err
    names = [row.name for row in rows]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate check names in {cfg.experiment}")
    return rows, time.perf_counter() - start


def _write_atomically(files):
    """Write (path, mode, writer) files all-or-nothing: temp files, then os.replace.

    The temp files sit next to their targets; if any writer raises, every temp
    file is removed and no target is touched.
    """
    temps = []
    try:
        for path, mode, writer in files:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], mode) as handle:
                writer(handle)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    for temp, (path, _, _) in zip(temps, files):
        os.replace(temp, path)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Run one experiment, write CSV + manifest into cfg.outdir."""
    rows, elapsed = _compute_rows(cfg, workers)
    csv = _csv_bytes(rows, cfg.experiment, cfg.seed, cfg.digest)
    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, f"{cfg.experiment}.csv")
    manifest_path = os.path.join(cfg.outdir, f"{cfg.experiment}_manifest.json")
    digest = hashlib.sha256(csv).hexdigest()
    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.digest,
        "config_text": cfg.text,
        "csv_name": os.path.basename(csv_path),
        "csv_sha256": digest,
        "n_rows": len(rows),
        "seed": cfg.seed,
        "versions": _versions(),
        "wall_clock_s": round(elapsed, 3),
        "workers": workers,
    }

    def write_manifest(handle):
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _write_atomically([(csv_path, "wb", lambda handle: handle.write(csv)),
                       (manifest_path, "w", write_manifest)])
    return RunReport(experiment=cfg.experiment, config_hash=cfg.digest,
                     seed=cfg.seed, workers=workers, rows=rows,
                     wall_clock=elapsed, versions=_versions(),
                     csv_path=csv_path, manifest_path=manifest_path,
                     csv_sha256=digest)


def replay(manifest_path: str, workers: int = 1) -> RunReport:
    """Recompute a recorded run from its manifest and compare CSV bytes.

    Refuses on version drift or when the embedded config no longer hashes to
    the recorded value (the run would not be comparable); appends a
    replay-identical-bytes check to the recomputed report.
    """
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ReplayRefusal(f"cannot load manifest {manifest_path}: {err}") from err
    for key in ("config_text", "config_hash", "csv_sha256", "versions", "seed"):
        if key not in manifest:
            raise ReplayRefusal(f"manifest missing field {key!r}")

    current = _versions()
    drift = {k: (manifest["versions"].get(k), current.get(k))
             for k in set(manifest["versions"]) | set(current)
             if manifest["versions"].get(k) != current.get(k)}
    if drift:
        summary = "; ".join(f"{k}: recorded {a} != current {b}"
                            for k, (a, b) in sorted(drift.items()))
        raise ReplayRefusal(f"version mismatch, refusing to replay: {summary}")

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(manifest["config_text"])
    except configparser.Error as err:
        raise ReplayRefusal(f"manifest config text unparseable: {err}") from err
    text = _canonical_text(parser)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != manifest["config_hash"]:
        diff = "\n".join(difflib.unified_diff(
            manifest["config_text"].splitlines(), text.splitlines(),
            "recorded", "canonical", lineterm="", n=1))
        raise ReplayRefusal("config hash mismatch, refusing to replay "
                            f"(recorded {manifest['config_hash'][:12]}, "
                            f"recomputed {digest[:12]}):\n{diff}")

    if not parser.has_section("output"):
        parser.add_section("output")
    cfg = _config_from_parser(parser)
    rows, elapsed = _compute_rows(cfg, workers)
    csv = _csv_bytes(rows, cfg.experiment, cfg.seed, cfg.digest)
    identical = hashlib.sha256(csv).hexdigest() == manifest["csv_sha256"]
    rows = rows + (CheckRow("replay-identical-bytes", float(identical), 0.0,
                            identical),)
    return RunReport(experiment=cfg.experiment, config_hash=cfg.digest,
                     seed=cfg.seed, workers=workers, rows=rows,
                     wall_clock=elapsed, versions=current,
                     csv_sha256=hashlib.sha256(csv).hexdigest())


# ----------------------------------------------------------------------- CLI


def _print_report(report: RunReport, stream=None):
    stream = stream or sys.stdout
    for row in report.rows:
        flag = "PASS" if row.passed else "FAIL"
        print(f"[{flag}] {row.name}: estimate={row.estimate:.10g} "
              f"dispersion={row.dispersion:.4g}", file=stream)
    verdict = "all checks passed" if report.all_pass else "CHECK FAILURES"
    print(f"{report.experiment}: {verdict} "
          f"({len(report.rows)} checks, {report.wall_clock:.2f}s, "
          f"seed {report.seed}, config {report.config_hash[:12]})", file=stream)
    if report.csv_path:
        print(f"wrote {report.csv_path} and {report.manifest_path}", file=stream)


def _env_int(name: str, default=None):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from err


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmre",
        description="Seeded branching / random-environment experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_EXPERIMENTS):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
    p = sub.add_parser("replay", help="recompute a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=None)
    p = sub.add_parser("validate", help="parse and validate a config")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        workers = args.workers if getattr(args, "workers", None) is not None \
            else _env_int("SBMRE_WORKERS", 1)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if args.command == "validate":
            cfg = load_config(args.config, seed_override=_env_int("SBMRE_SEED"))
            print(f"config ok: experiment {cfg.experiment}, seed {cfg.seed}, "
                  f"hash {cfg.digest[:12]}, {len(cfg.readouts)} readout(s)")
            return 0
        if args.command == "replay":
            report = replay(args.manifest, workers=workers)
            _print_report(report)
            return report.exit_code
        seed = args.seed if args.seed is not None else _env_int("SBMRE_SEED")
        cfg = load_config(args.config, seed_override=seed, out_override=args.out)
        if cfg.experiment != args.command:
            raise ConfigError(f"config names experiment {cfg.experiment!r} "
                              f"but {args.command!r} was requested")
        report = run_experiment(cfg, workers=workers)
        _print_report(report)
        return report.exit_code
    except (ConfigError, ReplayRefusal) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ExperimentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
