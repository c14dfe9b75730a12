"""Jump-perturbed dual flow and duality-gap diagnostics.

The dual state is a nonnegative grid function.  Between the arrivals of a
rate-n Poisson clock it follows the deterministic absorption flow

    dY/dt = (1/2) Laplacian Y - (1/2) Y^2

integrated by the stochastic solvers' fused Strang march (spde._evolve) with
the noise off.  Each arrival multiplies the state cellwise by 1 + h/sqrt(n),
where h is a fresh Gaussian field draw with the environment covariance,
truncated to +-sqrt(n) so the factor stays nonnegative; the jump acts after
the reaction and before the trailing half heat step of the step its arrival
rounds up to.  Pairing Y_t with the initial measure estimates the same Laplace
functional as the log-Laplace route, and the gap between the two routes is
the uniqueness diagnostic; it shrinks as n grows.

Determinism: the arrival clock and each jump's mark use separate spawn-keyed
child streams of one seed, so a replica replays bit-identically from
(seed, stream) and the jump log alone, whether it marches alone or in a
batch.  Jump times snap to the pointwise substep of the step they fall in;
the snap bias is O(dt) per jump and sits far below Monte Carlo noise at the
default step (documented in the gap tests).

Marks are read as i.i.d. field realizations, one independent draw per jump.

The replica routes and third_moment_scan take ``workers`` as
ensemble.run_jobs does: a process count or a WorkerPool that several calls
share.
"""

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel, grid_covariance_factor
from .ensemble import batch_jobs, map_batches, mean_se, run_jobs, stream_rng
from .grids import GridFunction, PolynomialWeight
from .spde import _evolve, _resolve_steps, batch_noise, solve_log_laplace

__all__ = [
    "PoissonClock",
    "DualState",
    "march_dual",
    "evolve_dual",
    "pair_with_measure",
    "laplace_via_log_laplace",
    "dual_route_samples",
    "laplace_via_dual",
    "ThirdMomentReport",
    "third_moment_scan",
]


class PoissonClock:
    """Rate-n arrival clock; inter-arrival gaps are exponential, mean 1/n."""

    def __init__(self, rate: float):
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def arrivals(self, rng, horizon: float) -> np.ndarray:
        """All arrival times in (0, horizon], in order."""
        times = []
        t = 0.0
        block = max(16, int(self.rate * horizon * 1.5) + 16)
        while True:
            gaps = rng.exponential(1.0 / self.rate, size=block)
            for g in gaps:
                t += g
                if t > horizon:
                    return np.array(times)
                times.append(t)


@dataclass(frozen=True)
class DualState:
    """Dual flow endpoint with the jump log needed for exact replay."""

    y: GridFunction
    time: float
    n: float
    jump_times: np.ndarray
    seed: int
    stream: tuple

    @property
    def jump_count(self) -> int:
        return len(self.jump_times)


def march_dual(phi: GridFunction, times, n: float, kernel: CovarianceKernel,
               seed: int, streams, dt: float = 1e-3, field_override=None) -> tuple:
    """Run the dual flow from phi to each of the given times, one replica per stream.

    Returns (ys, jump_times): ys[j] holds the states at times[j], shaped
    (len(streams), *grid.shape), all taken from one march to max(times) of
    one array on one grid factor; jump_times holds each replica's arrival
    times up to max(times).  Replica r draws its clock from streams[r] + (0,)
    and its k-th mark from streams[r] + (1, k), so each row equals a march of
    that stream alone to that time, bit for bit: the arrivals up to an
    earlier time are a prefix of those up to a later one.
    field_override(k) may supply a replica's k-th mark (an array over grid
    cells) in place of the Gaussian draw; the truncation to +-sqrt(n) still
    applies.  Overflow raises spde.SchemeOverflowError with the 0-based step.
    """
    grid = phi.grid
    if np.min(phi.values) < 0:
        raise ValueError("dual initial condition must be nonnegative")
    if not n >= 1:
        raise ValueError(f"need branching scale n >= 1, got {n}")
    save_steps = [_resolve_steps(s, dt) for s in times]
    if not save_steps:
        raise ValueError("need at least one time")
    clock = PoissonClock(float(n))
    jump_times = [clock.arrivals(stream_rng(seed, s + (0,)), max(times)) for s in streams]
    # each jump rides the pointwise substep of the (0-based) step its time rounds up to
    due = {}
    for r, arrivals in enumerate(jump_times):
        for k, step in enumerate(np.maximum(np.ceil(arrivals / dt - 1e-12).astype(int), 1)):
            due.setdefault(int(step) - 1, []).append((r, k))
    factor = grid_covariance_factor(kernel, grid) if field_override is None else None
    root_n = math.sqrt(n)

    def marks(step):
        pairs = []
        for r, k in due.get(step, ()):
            if field_override is None:
                h = factor.sample(stream_rng(seed, streams[r] + (1, k)))
            else:
                h = np.broadcast_to(np.asarray(field_override(k), dtype=float), grid.shape)
            pairs.append((r, 1.0 + np.clip(h, -root_n, root_n) / root_n))
        return pairs

    y = np.repeat(phi.values[np.newaxis], len(streams), axis=0)
    return _evolve(y, grid, dt, marks, save_steps, [slice(None)]), jump_times


def evolve_dual(phi: GridFunction, t: float, n: float, kernel: CovarianceKernel,
                seed: int, dt: float = 1e-3, stream: tuple = (),
                field_override=None) -> DualState:
    """Run the jump-diffusion dual flow from phi up to time t: march_dual of one stream."""
    ys, jump_times = march_dual(phi, (t,), n, kernel, seed, [stream], dt, field_override)
    return DualState(y=GridFunction(phi.grid, ys[0][0]), time=float(t), n=float(n),
                     jump_times=jump_times[0], seed=seed, stream=stream)


def pair_with_measure(y: GridFunction, mu) -> float:
    """<y, mu> for a torus-constant density (float) or atom list (weights, points)."""
    if np.isscalar(mu):
        return float(mu) * y.grid.cell_volume * float(np.sum(y.values))
    weights, points = mu
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return float(sum(w * y.at(x) for w, x in zip(weights, points)))


def _log_laplace_batch(phi, mu, t, kernel, seed, dt, b, lo, hi):
    noise = batch_noise(phi.grid, kernel, dt, seed, b, lo, hi)
    final = solve_log_laplace(phi, 1.0, t, noise).values[-1]
    return np.exp(-np.array([pair_with_measure(GridFunction(phi.grid, u), mu) for u in final]))


def laplace_via_log_laplace(phi: GridFunction, mu, t: float,
                            kernel: CovarianceKernel, seed: int, n_replicas: int,
                            dt: float = 1e-3, workers=1) -> tuple:
    """E[exp(-<phi, X_t>)] through the conditional log-Laplace solution.

    Replica batch b rides the NoisePath keyed (b,), as in ensemble_noise.
    """
    parts = map_batches(_log_laplace_batch, n_replicas, (phi, mu, t, kernel, seed, dt), workers)
    return mean_se(np.concatenate(parts))


def _dual_batch(phi, times, n, kernel, seed, dt, prefix, b, lo, hi):
    return march_dual(phi, times, n, kernel, seed, [prefix + (r,) for r in range(lo, hi)], dt)


def dual_route_samples(phi: GridFunction, mu, t: float, n: float,
                       kernel: CovarianceKernel, seed: int, n_replicas: int,
                       dt: float = 1e-3, workers=1) -> tuple:
    """Per-replica exp(-<mu, Y_t>) and jump counts; replica r runs on stream (r,)."""
    parts = map_batches(_dual_batch, n_replicas, (phi, (t,), n, kernel, seed, dt, ()), workers)
    values = [math.exp(-pair_with_measure(GridFunction(phi.grid, row), mu))
              for (y,), _ in parts for row in y]
    counts = [len(times) for _, jump_times in parts for times in jump_times]
    return np.array(values), np.array(counts, dtype=float)


def laplace_via_dual(phi: GridFunction, mu, t: float, n: float,
                     kernel: CovarianceKernel, seed: int, n_replicas: int,
                     dt: float = 1e-3, workers=1) -> tuple:
    """E[exp(-<X_0, Y_t>)] through replicas of the jump-diffusion dual."""
    values, _ = dual_route_samples(phi, mu, t, n, kernel, seed, n_replicas, dt, workers)
    return mean_se(values)


@dataclass(frozen=True)
class ThirdMomentReport:
    """Weight-normalized third moments of the dual state across an n-ladder."""

    n_ladder: tuple
    times: tuple
    probes: np.ndarray
    ratios: np.ndarray  # (n, time, probe)
    max_ratio: np.ndarray  # per n

    def spread(self) -> float:
        """Relative variation of the per-n maxima (stability statistic)."""
        peak = float(self.max_ratio.max())
        if peak == 0.0:
            return 0.0
        return float((self.max_ratio.max() - self.max_ratio.min()) / peak)


def third_moment_scan(phi: GridFunction, times, n_ladder, kernel: CovarianceKernel,
                      probes, rho: float, seed: int, n_replicas: int,
                      dt: float = 1e-3, workers=1) -> ThirdMomentReport:
    """Empirical E[Y_t(x)^3] / weight(x)^3 over an n-ladder and probe points.

    The weight is the polynomial reference weight; the scan reports the ratio
    surface and its per-n maxima so a ladder test can check boundedness in n.
    Replica r of rung i runs on stream (i, r); replicas march in batches,
    each once, to the last of the times.  The batches of every rung form one
    job list on `workers`, reduced rung by rung in batch order.
    """
    times = tuple(float(s) for s in times)
    n_ladder = tuple(float(v) for v in n_ladder)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    weight = PolynomialWeight(rho)
    w3 = weight(probes) ** 3
    cells = tuple(np.array(ix) for ix in zip(*(phi.grid.nearest_index(x) for x in probes)))
    ratios = np.zeros((len(n_ladder), len(times), len(probes)))
    rungs = [batch_jobs(_dual_batch, n_replicas, (phi, times, n, kernel, seed, dt, (i,)))
             for i, n in enumerate(n_ladder)]
    results = run_jobs([job for jobs in rungs for job in jobs], workers)
    for i, jobs in enumerate(rungs):
        parts = results[i * len(jobs):(i + 1) * len(jobs)]
        for j in range(len(times)):
            cubes = np.zeros(len(probes))
            for ys, _ in parts:
                for row in ys[j][(slice(None),) + cells] ** 3:
                    cubes += row
            ratios[i, j] = cubes / n_replicas / w3
    return ThirdMomentReport(n_ladder=n_ladder, times=times, probes=probes,
                             ratios=ratios,
                             max_ratio=ratios.reshape(len(n_ladder), -1).max(axis=1))
