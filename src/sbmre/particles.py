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
root of the all-level matrix would take.  Any other kernel, which must be
positive definite (BranchingConfig refuses one that is not), draws from a
pivoted Cholesky factor of the covariance over the distinct sites, built
each epoch and limited to DENSE_LIMIT sites, so its population is capped
there (see BranchingConfig.population_cap).

Replicas march in batches.  A batch is one ragged population: the replicas'
particles concatenated in replica order, with one count per replica.  Each
replica draws from its own generator, and in each epoch a replica with
particles draws, in this order: its displacement normals, its field value
(the one shared normal, or the site factor's draw) and one branching uniform
per particle.  A replica with no particles draws nothing.  Every epoch takes
three passes: every replica draws its normals; the batch moves at once; and
one loop over the epoch's field source writes each replica's field and then
draws its uniforms.  For any kernel but Constant the source is one
covariance.points_covariance_factors call over every replica's sites, in
size groups, so each factor is bit for bit the replica's factor alone and
every stream keeps its order.  Truncation, the split test and the offspring
then run as one vectorised pass over the batch, so a replica's draws and
results do not depend on the batch it marches in.  A replica above the
population cap leaves its batch as a counted blowup.

The empirical measure puts mass 1/n on each particle.  Criticality makes
the total mass a martingale, which the moment checks lean on.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import covariance
from .covariance import (Constant, CovarianceKernel, points_covariance_factors,
                         require_positive_definite)
# not called here: perfbench/tracing.py wraps the site factor by this module's name
from .covariance import points_covariance_factor  # noqa: F401
from .ensemble import require_count, stream_rng


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

    def __reduce__(self):  # pickle with the constructor's arguments, so it crosses a pool
        return type(self), (self.population, self.epoch, self.cap)


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
        for name in ("n", "dim", "max_population"):
            object.__setattr__(self, name, require_count(name, getattr(self, name)))
        require_positive_definite(self.kernel)
        if self.horizon < 0:
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        initial = np.atleast_2d(np.asarray(self.initial, dtype=float))
        if initial.size and initial.shape[-1] != self.dim:
            raise ValueError(
                f"initial positions have dim {initial.shape[-1]}, expected {self.dim}"
            )
        object.__setattr__(self, "initial", initial.reshape(-1, self.dim))

    @property
    def truncation(self) -> float:
        return math.sqrt(self.n)

    @property
    def population_cap(self) -> int:
        """Largest population an epoch may hold: max_population, and at most
        covariance.DENSE_LIMIT for any kernel but Constant, whose site factor
        covers at most that many distinct sites and holds m r values, r its
        numerical rank."""
        if isinstance(self.kernel, Constant):
            return self.max_population
        return min(self.max_population, covariance.DENSE_LIMIT)


@dataclass
class ParticlePopulation:
    """Positions of a replica batch at one epoch; a replica's empirical
    measure weights each of its particles by 1/n.

    positions holds the replicas' particles concatenated in replica order and
    counts the particles of each replica; counts=None is a batch of one.
    """

    epoch: int
    positions: np.ndarray  # (count, dim)
    n: int
    counts: np.ndarray = None  # (replicas,)

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.array([self.positions.shape[0]])

    @property
    def count(self) -> int:
        """Particles in the whole batch."""
        return self.positions.shape[0]

    @property
    def time(self) -> float:
        return self.epoch / self.n

    @property
    def mass(self) -> float:
        return self.count / self.n

    @property
    def bounds(self) -> np.ndarray:
        """Replica i owns positions[bounds[i]:bounds[i + 1]]."""
        return np.concatenate([[0], np.cumsum(self.counts)])


def snap_to_epoch(t: float, n: int) -> int:
    """Nearest epoch index to time t (half-up); readouts never interpolate."""
    return int(math.floor(t * n + 0.5))


def step_epoch(pop: ParticlePopulation, config: BranchingConfig, rngs,
               field_override=None) -> ParticlePopulation:
    """Advance every replica of the batch one epoch: diffuse, sample the field, branch.

    rngs holds one generator per replica, in replica order.  Every replica
    with particles draws its displacement normals, then the batch moves, and
    then each such replica takes its field from the epoch's field source and
    draws its uniforms.  field_override(positions) -> values replaces the
    joint Gaussian draw (still truncated); it is called once per replica
    with particles, on that replica's moved positions, after every normal of
    the batch is drawn, and exists for forced-environment checks.  A replica
    above config.population_cap raises PopulationBlowupError before anything
    is drawn (run_ensemble takes such replicas out of the batch).
    """
    if len(rngs) != len(pop.counts):
        raise ValueError(f"need one generator per replica, got {len(rngs)} "
                         f"for {len(pop.counts)} replicas")
    cap = config.population_cap
    if pop.counts.size and pop.counts.max() > cap:
        raise PopulationBlowupError(int(pop.counts.max()), pop.epoch, cap)
    root_n = config.truncation
    bounds = pop.bounds
    z = np.empty(pop.positions.shape)
    xi = np.empty(pop.count)
    u = np.empty(pop.count)
    spans = [(rng, lo, hi) for rng, lo, hi in zip(rngs, bounds[:-1].tolist(), bounds[1:].tolist())
             if lo < hi]
    for rng, lo, hi in spans:
        rng.standard_normal(out=z[lo:hi])
    moved = pop.positions + z / root_n
    # the field source: (i, draw) with draw(rng) the field of spans[i]'s sites
    kernel = config.kernel
    if field_override is not None:
        source = ((i, lambda _, sites=moved[lo:hi]:
                   np.asarray(field_override(sites), dtype=float).reshape(len(sites)))
                  for i, (_, lo, hi) in enumerate(spans))
    elif isinstance(kernel, Constant):
        level = math.sqrt(kernel.level)  # every site's value is the rank-1 root's one normal
        source = enumerate([lambda rng: level * rng.standard_normal()] * len(spans))
    else:
        source = ((i, factor.sample) for i, factor in
                  points_covariance_factors(kernel, [moved[lo:hi] for _, lo, hi in spans]))
    for i, draw in source:
        rng, lo, hi = spans[i]
        xi[lo:hi] = draw(rng)
        rng.random(out=u[lo:hi])
    xi = np.minimum(np.maximum(xi, -root_n), root_n)
    split = np.flatnonzero(u < 0.5 + xi / (2.0 * root_n))
    counts = 2 * np.diff(np.searchsorted(split, bounds))  # splits per replica, doubled
    offspring = np.repeat(moved.take(split, axis=0), 2, axis=0)
    return ParticlePopulation(pop.epoch + 1, offspring, pop.n, counts)


def _march(config: BranchingConfig, save_times, rngs) -> tuple:
    """(snapshots, blowups) of one replica per generator, marched as one batch.

    snapshots[i] holds replica i's own copies at the epochs nearest to the
    sorted save_times; a save time may repeat an epoch, in which case the same
    snapshot object is reported once per request.  When any epoch is
    stepped, a replica above the cap at the start or after an epoch leaves
    the batch and is listed in blowups as (i, epoch, population), in replica
    order; its snapshots stop there.
    """
    times = sorted(float(t) for t in save_times)
    if times and (times[0] < 0 or times[-1] > config.horizon + 1e-12):
        raise ValueError("save_times must lie in [0, horizon]")
    saves = Counter(snap_to_epoch(t, config.n) for t in times)
    last = max(saves, default=0)
    cap = config.population_cap
    live, rngs = list(range(len(rngs))), list(rngs)
    pop = ParticlePopulation(0, np.tile(config.initial, (len(live), 1)), config.n,
                             np.full(len(live), len(config.initial)))
    snapshots = [[] for _ in live]
    blowups = []
    for epoch in range(last + 1):
        if epoch:
            pop = step_epoch(pop, config, rngs)
        over = pop.counts > cap
        if last and over.any():
            blowups.extend((live[j], epoch, int(pop.counts[j])) for j in np.flatnonzero(over))
            keep = ~over
            live = [r for r, kept in zip(live, keep) if kept]
            rngs = [rng for rng, kept in zip(rngs, keep) if kept]
            pop = ParticlePopulation(epoch, pop.positions[np.repeat(keep, pop.counts)],
                                     pop.n, pop.counts[keep])
            if not live:
                break
        if saves[epoch]:
            bounds = pop.bounds
            for j, r in enumerate(live):
                snap = ParticlePopulation(epoch, pop.positions[bounds[j]:bounds[j + 1]].copy(),
                                          pop.n)
                snapshots[r].extend(snap for _ in range(saves[epoch]))
    return snapshots, sorted(blowups)


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
    (replica index, epoch, population) describing those events, in replica
    order.  The replicas [first_replica, first_replica + n_replicas) march as
    one batch, and replica r draws from stream_rng(seed, (r,)), so results do
    not depend on how replicas are grouped into batches or workers.
    """
    n_replicas = require_count("n_replicas", n_replicas)
    first_replica = require_count("first_replica", first_replica, 0)
    rngs = [stream_rng(seed, (first_replica + i,)) for i in range(n_replicas)]
    snapshots, blowups = _march(config, save_times, rngs)
    lost = {i for i, _, _ in blowups}
    rows = {i: np.atleast_1d(np.asarray(statistic(snaps), dtype=float))
            for i, snaps in enumerate(snapshots) if i not in lost}
    if not rows:
        raise PopulationBlowupError(blowups[-1][2], blowups[-1][1],
                                    config.population_cap)
    out = np.full((n_replicas, next(iter(rows.values())).size), np.nan)
    for i, stat in rows.items():
        out[i] = stat
    return out, [(first_replica + i, epoch, population) for i, epoch, population in blowups]
