"""Branching random walk in a correlated random environment.

Epochs have length exactly 1/n.  Per epoch: every particle diffuses by an
independent Gaussian displacement with variance 1/n per axis; the
environment field is then sampled jointly at the occupied positions (one
value per distinct site; the field is a function of space), truncated to
[-sqrt(n), sqrt(n)]; finally each particle independently splits into two
offspring at its position with probability 1/2 + xi/(2 sqrt(n)) or dies.
Truncation keeps every branching probability inside [0, 1] by construction.
The Constant kernel's field is one value shared by every site, drawn as one
standard normal scaled by sqrt(level); it takes exactly the draw the rank-1
root of the all-level matrix would take.  Any other kernel factors the dense
covariance of the distinct sites each epoch, so its population is capped at
DENSE_LIMIT (see BranchingConfig.population_cap).

The empirical measure puts mass 1/n on each particle.  Criticality makes
the total mass a martingale, which the moment checks lean on.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import covariance
from .covariance import Constant, CovarianceKernel, points_covariance_factor
from .ensemble import stream_rng


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    if len(values) > 1:
        steps = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(steps)
    return out


class PopulationBlowupError(RuntimeError):
    """Population crossed the configured cap (supercritical blowup)."""

    def __init__(self, population: int, epoch: int, cap: int):
        super().__init__(
            f"population {population} exceeded cap {cap} at epoch {epoch}; "
            "raise max_population (capped at DENSE_LIMIT unless the kernel is "
            "Constant) or shorten the horizon"
        )
        self.population = population
        self.epoch = epoch
        self.cap = cap


@dataclass(frozen=True, eq=False)
class BranchingConfig:
    """Static description of one branching-system run."""

    n: int
    dim: int
    kernel: CovarianceKernel
    initial: np.ndarray  # (K, dim) starting positions
    horizon: float
    max_population: int = 1_000_000  # see population_cap

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        if self.max_population < 1:
            raise ValueError("max_population must be positive")
        initial = np.atleast_2d(np.asarray(self.initial, dtype=float))
        if initial.size and initial.shape[-1] != self.dim:
            raise ValueError(
                f"initial positions have dim {initial.shape[-1]}, expected {self.dim}"
            )
        object.__setattr__(self, "initial", initial.reshape(-1, self.dim))

    @property
    def epoch_length(self) -> float:
        return 1.0 / self.n

    @property
    def truncation(self) -> float:
        return math.sqrt(self.n)

    @property
    def n_epochs(self) -> int:
        return snap_to_epoch(self.horizon, self.n)

    @property
    def population_cap(self) -> int:
        """Largest population an epoch may hold: max_population, and at most
        covariance.DENSE_LIMIT for any kernel but Constant, whose sites then
        need a dense factor (one such factor at the limit is 800 MB)."""
        if isinstance(self.kernel, Constant):
            return self.max_population
        return min(self.max_population, covariance.DENSE_LIMIT)


@dataclass
class ParticlePopulation:
    """Positions at one epoch; the empirical measure weights each by 1/n."""

    epoch: int
    positions: np.ndarray  # (count, dim)
    n: int

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def time(self) -> float:
        return self.epoch / self.n

    @property
    def mass(self) -> float:
        return self.count / self.n


def snap_to_epoch(t: float, n: int) -> int:
    """Nearest epoch index to time t (half-up); readouts never interpolate."""
    return int(math.floor(t * n + 0.5))


def step_epoch(pop: ParticlePopulation, config: BranchingConfig, rng,
               field_override=None) -> ParticlePopulation:
    """Advance one epoch: diffuse, sample the field, branch.

    field_override(positions) -> values replaces the joint Gaussian draw
    (still truncated); it exists for forced-environment checks.  A population
    above config.population_cap raises PopulationBlowupError.
    """
    cap = config.population_cap
    if pop.count > cap:
        raise PopulationBlowupError(pop.count, pop.epoch, cap)
    if pop.count == 0:
        return ParticlePopulation(pop.epoch + 1, pop.positions.copy(), pop.n)
    root_n = config.truncation
    moved = pop.positions + rng.standard_normal(pop.positions.shape) / root_n
    if field_override is not None:
        xi = np.asarray(field_override(moved), dtype=float).reshape(pop.count)
    elif isinstance(config.kernel, Constant):
        xi = math.sqrt(config.kernel.level) * rng.standard_normal()  # every site's value
    else:
        factor = points_covariance_factor(config.kernel, moved)
        xi = factor.sample(rng).reshape(pop.count)
    xi = np.minimum(np.maximum(xi, -root_n), root_n)
    p_split = 0.5 + xi / (2.0 * root_n)
    split = rng.random(pop.count) < p_split
    offspring = np.repeat(moved[split], 2, axis=0)
    out = ParticlePopulation(pop.epoch + 1, offspring, pop.n)
    if out.count > cap:
        raise PopulationBlowupError(out.count, out.epoch, cap)
    return out


def run(config: BranchingConfig, save_times, rng, field_override=None) -> list:
    """Snapshots at the epochs nearest to save_times (deterministic per rng).

    Epochs are simulated sequentially up to the largest requested time; a
    save time may repeat an epoch, in which case the same snapshot object
    count is reported once per request.
    """
    rng = np.random.default_rng(rng)
    times = sorted(float(t) for t in save_times)
    if times and (times[0] < 0 or times[-1] > config.horizon + 1e-12):
        raise ValueError("save_times must lie in [0, horizon]")
    targets = [snap_to_epoch(t, config.n) for t in times]
    pop = ParticlePopulation(0, config.initial.copy(), config.n)
    snapshots = [pop for _ in range(targets.count(0))]
    for epoch in range(1, (max(targets) if targets else 0) + 1):
        pop = step_epoch(pop, config, rng, field_override=field_override)
        snapshots.extend(pop for _ in range(targets.count(epoch)))
    return snapshots


def empirical_pairing(snapshot: ParticlePopulation, f) -> tuple:
    """(<f, X>, <f (x) f, X (x) X>) = ((1/n) sum f, (1/n^2) double sum f f)."""
    if snapshot.count == 0:
        return 0.0, 0.0
    vals = np.asarray(f(snapshot.positions), dtype=float)
    first = float(vals.sum()) / snapshot.n
    return first, first * first


def martingale_residual(snapshots: list, f) -> tuple:
    """(times, residuals) of the discrete drift-corrected pairing.

    residual(t) = <f, X_t> - <f, X_0> - (1/2) int_0^t <Lap f, X_s> ds with
    the integral taken by the trapezoid rule over the snapshot times, so the
    snapshots should be saved on a reasonably fine mesh.
    """
    times = np.array([s.time for s in snapshots])
    pair_f = np.array([empirical_pairing(s, f)[0] for s in snapshots])
    pair_lap = np.array([empirical_pairing(s, f.laplacian)[0] for s in snapshots])
    return times, pair_f - pair_f[0] - 0.5 * _cumulative_trapezoid(pair_lap, times)


def run_ensemble(config: BranchingConfig, save_times, seed: int, n_replicas: int,
                 statistic, first_replica: int = 0) -> tuple:
    """Replicated runs reduced by `statistic(snapshots) -> 1-d array`.

    Returns (rows, blowups): rows is (n_replicas, stat_width) with NaN rows
    for replicas whose population crossed the cap, and blowups the list of
    (replica index, epoch, population) describing those events.  Replica r
    draws from stream_rng(seed, (r,)), so results do not depend
    on how replicas are later grouped into workers; first_replica shifts the
    index range so a worker can own the slice [first, first + count).
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    rows, blowups = [], []
    width = None
    for r in range(first_replica, first_replica + n_replicas):
        rng = stream_rng(seed, (r,))
        try:
            stat = np.atleast_1d(np.asarray(statistic(run(config, save_times, rng)),
                                            dtype=float))
            width = stat.size if width is None else width
            rows.append(stat)
        except PopulationBlowupError as err:
            blowups.append((r, err.epoch, err.population))
            rows.append(None)
    if width is None:
        raise PopulationBlowupError(blowups[-1][2], blowups[-1][1],
                                    config.population_cap)
    out = np.full((n_replicas, width), np.nan)
    for r, stat in enumerate(rows):
        if stat is not None:
            out[r] = stat
    return out, blowups
