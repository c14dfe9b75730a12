"""Monte Carlo oracles built on pair-path expectations.

The central object is the weighted pair semigroup

    Q_t F(x, y) = E[(F(B_t, B'_t) exp(int_0^t C(B_s, B'_s) ds)]

over two independent Brownian motions started at (x, y).  It gives the
annealed second moment of the multiplicative-noise flow and the right-hand
sides of the measure-process moment identities, so it serves as an oracle
that shares no code with the ensemble solvers it checks.

Conventions fixed here:
  - the potential integral along paths is a left-endpoint Riemann sum on the
    path mesh (bias O(dt), probed by mesh-refinement tests);
  - the outer time integral of the second-moment identity is stratified over
    the same mesh with a uniform draw inside each cell, which keeps it
    unbiased and gives it an honest nonzero standard error;
  - a pair of independent Brownian motions is sampled as its difference path
    B - B' and one endpoint of its sum B + B', two independent Brownian motions
    of variance 2 per unit time: the exponent reads only the difference, and
    B_t = x + (S + D) / 2, B'_t = y + (S - D) / 2 recover the endpoints from
    the sum's endpoint S and the difference's endpoint D;
  - sampling is chunked with fixed-size chunks, chunk c of sampler tag drawn
    from ensemble.stream_rng(seed, (tag, c)), so estimates are byte-identical
    regardless of how work is split;
  - the chunks of qtc and the strata of the diagonal time integral are
    ensemble jobs: `workers` (a process count or an ensemble.WorkerPool)
    says where they run, and their values come back and are reduced in
    chunk or stratum order, so the estimates do not depend on it;
  - _CHUNK keys the streams, while blocks only split the arithmetic: a chunk
    of qtc, or a stratum of the diagonal time integral, is drawn and reduced
    in row blocks of about ensemble.BLOCK_VALUES values (the block size
    spde.NoisePath caps its draws at too), so each block's arrays stay in
    cache.  Paths are drawn in C order, so consecutive blocks take exactly the
    normals one draw of the whole chunk would, and the blocks' values are
    concatenated in order before the reduction: the estimates and their
    standard errors are the unblocked ones, bit for bit.

Estimates are (value, standard error) pairs from ensemble.mean_se; a
non-finite path value raises FloatingPointError instead of being dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel, ScaledTheta, _pair_distances
from .ensemble import BLOCK_VALUES, batch_ranges, mean_se, require_count, run_jobs, stream_rng
from .grids import Grid, GridFunction
from .heatkernel import heat_at_points
from .spde import NoisePath, _resolve_steps, pam_log_max_series, pam_states_at

__all__ = [
    "MCConfig",
    "AtomicMeasure",
    "pair_product",
    "qtc",
    "first_moment_rhs",
    "second_moment_rhs",
    "pam_second_moment_oracle",
    "LyapunovEstimate",
    "lyapunov_estimate",
    "TailProbe",
    "ldp_tail_probe",
    "ldp_tail_probes",
    "wilson_interval",
]

_CHUNK = 4096


@dataclass(frozen=True)
class MCConfig:
    """Path-sampling budget: count, mesh step, seed."""

    n_paths: int
    dt: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n_paths", require_count("n_paths", self.n_paths, 2))
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def steps_for(self, t: float) -> int:
        return _resolve_steps(t, self.dt)

    def strata_for(self, t: float) -> int:
        """steps_for(t), one stratum of the diagonal time integral each, of two paths at least."""
        m = self.steps_for(t)
        if self.n_paths < 2 * m:
            raise ValueError(f"need at least {2 * m} paths for {m} time strata, got {self.n_paths}")
        return m


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted point list; simulation-side measures are atomic."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if w.ndim != 1 or p.ndim != 2 or len(w) != len(p) or len(w) == 0:
            raise ValueError("need matching nonempty weights (K,) and points (K, dim)")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", p)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def delta(cls, x) -> "AtomicMeasure":
        return cls(np.ones(1), np.atleast_1d(np.asarray(x, dtype=float))[None, :])


@dataclass(frozen=True)
class _PairProduct:
    f: object

    def __call__(self, bx, by):
        return np.asarray(self.f(bx), dtype=float) * np.asarray(self.f(by), dtype=float)


def pair_product(f):
    """Tensor readout (x, y) -> f(x) f(y); it pickles when f does, so its
    sampler's chunks can run on a process pool."""
    return _PairProduct(f)


def _path_mean_se(blocks) -> tuple:
    """mean_se of the blocks' values, concatenated in order; a non-finite
    value raises, since mean_se would drop it and so hide an overflow of the
    exponential weight."""
    values = np.concatenate(blocks)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("non-finite functional values in Monte Carlo batch")
    return mean_se(values)


def _row_blocks(rows: int, width: int) -> list:
    """[(b, lo, hi), ...] cutting rows of `width` values into blocks of at most
    BLOCK_VALUES values (one row at least)."""
    return batch_ranges(rows, max(1, BLOCK_VALUES // width))


def _pair_paths(rng, diff_scale, sum_scale, shape: tuple) -> tuple:
    """(left, end, end') for shape = (pairs, steps, dim) independent pairs.

    left holds the difference path B - B' at the left endpoints of the steps,
    end and end' the displacements B_t - B_0 and B'_t - B'_0.  One draw of
    shape (pairs, steps + 1, dim) gives the difference increments, scaled by
    diff_scale (broadcast over shape; the root of twice the step width), and
    in its last step the sum's endpoint, scaled by sum_scale (broadcast over
    (pairs, dim); the root of twice the total time).
    """
    steps = shape[1]
    z = rng.standard_normal((shape[0], steps + 1, shape[2]))
    inc = z[:, :steps]
    inc *= diff_scale
    total = z[:, steps] * sum_scale
    left = np.empty_like(inc)  # at the steps' left endpoints: 0, inc_0, inc_0 + inc_1, ...
    left[:, 0] = 0.0
    np.cumsum(inc[:, :-1], axis=1, out=left[:, 1:])
    diff = left[:, -1] + inc[:, -1]
    return left, 0.5 * (total + diff), 0.5 * (total - diff)


def _qtc_chunk(F, x, y, t, kernel, mc, c, lo, hi) -> np.ndarray:
    """The path values of qtc's chunk c, paths [lo, hi), from stream (0, c)."""
    m = mc.steps_for(t)
    dim = len(x)
    rng = stream_rng(mc.seed, (0, c))
    blocks = []
    for _, b_lo, b_hi in _row_blocks(hi - lo, (m + 1) * dim):
        left, end_b, end_bp = _pair_paths(rng, math.sqrt(2.0 * mc.dt),
                                          math.sqrt(2.0 * t), (b_hi - b_lo, m, dim))
        radii = _pair_distances(left, y - x)
        exponent = mc.dt * np.sum(kernel.envelope(radii), axis=1)
        blocks.append(np.exp(exponent) * np.asarray(F(x + end_b, y + end_bp), dtype=float))
    return np.concatenate(blocks)


def qtc(F, x, y, t: float, kernel: CovarianceKernel, mc: MCConfig, workers=1) -> tuple:
    """Pair-path expectation of F weighted by the exponentiated correlation.

    Left-endpoint Riemann sum for the exponent; the pair is drawn as its
    difference path and the endpoint of its sum.  Returns (estimate,
    standard error).  The chunks run on `workers` (see the module
    docstring); F must pickle when they run on a pool.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be points of the same dimension")
    mc.steps_for(t)
    chunks = run_jobs([(_qtc_chunk, F, x, y, t, kernel, mc, *chunk)
                       for chunk in batch_ranges(mc.n_paths, _CHUNK)], workers)
    return _path_mean_se(chunks)


def first_moment_rhs(f, nu: AtomicMeasure, t: float) -> float:
    """Heat flow of the readout paired with an atomic measure."""
    flowed = heat_at_points(f, t, nu.points, nu.dim)
    return float(np.dot(nu.weights, flowed))


def _diagonal_stratum(F, x, t, kernel, mc, j, n_j) -> tuple:
    """(mean, SE) of stratum j of _diagonal_time_integral, n_j paths from stream (1, j)."""
    dim = len(x)
    rng = stream_rng(mc.seed, (1, j))
    u = rng.random(n_j)
    s = (j + u) * mc.dt
    # common phase: a single exact Gaussian jump of length t - s
    common = x + rng.standard_normal((n_j, dim)) * np.sqrt(t - s)[:, None]
    # pair phase: j full steps of dt plus one partial step of u dt
    widths = np.concatenate(
        [np.full((n_j, j), mc.dt), (u * mc.dt)[:, None]], axis=1)
    blocks = []
    for _, lo, hi in _row_blocks(n_j, (j + 2) * dim):
        w = widths[lo:hi]
        left, end_b, end_bp = _pair_paths(rng, np.sqrt(2.0 * w)[..., None],
                                          np.sqrt(2.0 * s[lo:hi])[:, None],
                                          (hi - lo, j + 1, dim))
        radii = _pair_distances(left, np.zeros(dim))
        exponent = np.sum(kernel.envelope(radii) * w, axis=1)
        blocks.append(np.exp(exponent) * np.asarray(
            F(common[lo:hi] + end_b, common[lo:hi] + end_bp), dtype=float))
    return _path_mean_se(blocks)


def _diagonal_time_integral(F, x: np.ndarray, t: float,
                            kernel: CovarianceKernel, mc: MCConfig, workers=1) -> tuple:
    """int_0^t P_{t-s}(pi Q_s F)(x) ds, stratified uniformly over mesh cells.

    Each sample runs a plain Gaussian jump of length t-s from x, then a pair
    started at its endpoint for the remaining s; the draw of s inside its mesh
    cell keeps the estimator unbiased with a nonzero standard error.  Each
    stratum is reduced on its own, as one job on `workers`, and the strata
    combine in quadrature, in stratum order.
    """
    m = mc.strata_for(t)
    base, rem = divmod(mc.n_paths, m)
    strata = run_jobs([(_diagonal_stratum, F, x, t, kernel, mc, j, base + (1 if j < rem else 0))
                       for j in range(m)], workers)
    value = 0.0
    variance = 0.0
    for mean, se in strata:
        value += mc.dt * mean
        variance += (mc.dt * se) ** 2
    return value, math.sqrt(variance)


def second_moment_rhs(f, nu: AtomicMeasure, t: float,
                      kernel: CovarianceKernel, mc: MCConfig, workers=1) -> tuple:
    """Two-term second-moment identity for an atomic initial measure.

    First term pairs the weighted pair semigroup with nu (x) nu; second term
    integrates its diagonal restriction, flowed by the heat semigroup, against
    nu over [0, t].  Standard errors of all Monte Carlo pieces combine in
    quadrature, so each piece has its own streams: pair (i, j) its own seed,
    and atom i's diagonal term pair (i, i)'s.  Chunks and strata run on `workers`.
    """
    F = pair_product(f)
    value = 0.0
    var = 0.0
    for i, (wi, xi) in enumerate(zip(nu.weights, nu.points)):
        row = [MCConfig(mc.n_paths, mc.dt, mc.seed + 7919 * (i * len(nu.weights) + j))
               for j in range(len(nu.weights))]  # strata keys (1, j) miss chunk keys (0, c)
        for j, (wj, xj) in enumerate(zip(nu.weights, nu.points)):
            est, se = qtc(F, xi, xj, t, kernel, row[j], workers)
            value += wi * wj * est
            var += (wi * wj * se) ** 2
        est, se = _diagonal_time_integral(F, xi, t, kernel, row[i], workers)
        value += wi * est
        var += (wi * se) ** 2
    return value, math.sqrt(var)


def pam_second_moment_oracle(f, t: float, x, y,
                             kernel: CovarianceKernel, mc: MCConfig, workers=1) -> tuple:
    """Annealed two-point moment of the linear flow: Q_t(f (x) f) at (x, y)."""
    return qtc(pair_product(f), x, y, t, kernel, mc, workers)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-replica log-slope fits of the spatial max, with a plateau verdict."""

    slopes: np.ndarray
    median: float
    band: tuple
    conclusive: bool


PLATEAU_LEVEL = 0.01  # false-alarm rate of the plateau verdict


def _window_slopes(times: np.ndarray, rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
    if mask.sum() < 2:
        raise ValueError("not enough saved times in the slope window")
    tw = times[mask]
    design = np.stack([tw, np.ones_like(tw)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, rows[mask], rcond=None)
    return coeffs[0]


def lyapunov_estimate(kernel: CovarianceKernel, grid: Grid, T: float, dt: float,
                      seed: int, n_replicas: int, stratonovich: bool = True) -> LyapunovEstimate:
    """Least-squares slope of log max_x of the multiplicative flow over [T/2, T].

    Fits each replica separately and reports the median with the interquartile
    band.  The verdict is a two-sided paired t-test at level PLATEAU_LEVEL of
    equal mean slopes over [T/4, T/2] and [T/2, T]: both windows of a replica
    ride one path, and replicas are independent, so the late-minus-early
    differences d_i are i.i.d.  It is conclusive when the two-sided p-value
    of |mean d| / se, from the Student-t CDF with n_replicas - 1 degrees of
    freedom, is at least PLATEAU_LEVEL (se = 0 reads conclusive only for
    mean d = 0); otherwise the slope has not stabilized and the numbers are
    exploratory.  On a plateau with Gaussian d, a run reads inconclusive with
    probability PLATEAU_LEVEL.
    """
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas for a band")
    f = GridFunction.constant(grid, 1.0)
    noise = NoisePath(grid, kernel, dt, seed, n_replicas=n_replicas)
    stride = max(1, int(round(T / (256.0 * dt))))
    times, rows = pam_log_max_series(f, T, noise, save_every=stride,
                                     correction=not stratonovich)
    late = _window_slopes(times, rows, T / 2.0, T)
    early = _window_slopes(times, rows, T / 4.0, T / 2.0)
    q25, q75 = np.percentile(late, [25.0, 75.0])
    d = late - early
    mean, se = mean_se(d)
    if se > 0:
        x = abs(mean) / se
    else:
        x = 0.0 if mean == 0 else math.inf
    # the p-value from the standard library: importing scipy.special for it
    # would add about 0.15 s and 16 MB to every run that reaches here
    conclusive = _t_centered_cdf(x, d.size - 1) <= 1.0 - PLATEAU_LEVEL
    return LyapunovEstimate(slopes=late, median=float(np.median(late)),
                            band=(float(q25), float(q75)),
                            conclusive=bool(conclusive))


def wilson_interval(successes: int, n: int) -> tuple:
    """Wilson score interval for a binomial proportion, at 95 % (z = 1.96)."""
    if n < 1 or not 0 <= successes <= n:
        raise ValueError("need 0 <= successes <= n with n >= 1")
    p = successes / n
    z = 1.96
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _t_centered_cdf(t: float, nu: int) -> float:
    """2 F(t) - 1 for the Student-t CDF F with integer degrees of freedom nu.

    This is the sign of t times A(|t|) = P(|T| <= |t|), from the finite series
    in theta = atan(t / sqrt(nu)) of Abramowitz & Stegun 26.7.3 (odd nu) and
    26.7.4 (even nu), which are odd in theta; nu // 2 terms.
    """
    theta = math.atan(t / math.sqrt(nu))
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    series = 0.0
    if nu % 2:
        # theta + sin (cos + 2/3 cos^3 + ... + (2.4...(nu-3)) / (3.5...(nu-2)) cos^(nu-2))
        term = cos
        for k in range(1, (nu + 1) // 2):
            series += term
            term *= 2 * k / (2 * k + 1) * cos2
        return (theta + sin * series) * (2.0 / math.pi)
    # sin (1 + 1/2 cos^2 + ... + (1.3...(nu-3)) / (2.4...(nu-2)) cos^(nu-2))
    term = 1.0
    for k in range(1, nu // 2 + 1):
        series += term
        term *= (2 * k - 1) / (2 * k) * cos2
    return sin * series


@dataclass(frozen=True)
class TailProbe:
    """Exceedance frequency of the spatial max against the decay threshold."""

    fraction: float
    interval: tuple
    threshold: float


def ldp_tail_probe(kernel: ScaledTheta, grid: Grid, t: float, L: float, dt: float,
                   seed: int, n_replicas: int) -> TailProbe:
    """Fraction of replicas whose max of the flat-start flow over |x| <= L
    exceeds exp(-a t / 3).

    Only a > 0 is meaningful: at a = 0 the flow is identically 1 and the
    threshold degenerates to the strict boundary, so it is rejected.
    """
    return ldp_tail_probes(kernel, grid, (t,), L, dt, seed, n_replicas)[0]


def ldp_tail_probes(kernel: ScaledTheta, grid: Grid, times, L: float, dt: float,
                    seed: int, n_replicas: int) -> list:
    """[ldp_tail_probe at t for t in times], from one march to max(times).

    Every t reads the same NoisePath the one-time probe builds, so each probe
    equals it field for field (spde.pam_states_at).
    """
    if not isinstance(kernel, ScaledTheta) or kernel.a <= 0:
        raise ValueError("tail probe needs an amplitude-scaled kernel with a > 0")
    if grid.extent < 2 * L:
        raise ValueError(f"grid extent {grid.extent} cannot cover |x| <= {L}")
    noise = NoisePath(grid, kernel, dt, seed, n_replicas=n_replicas)
    finals = pam_states_at(GridFunction.constant(grid, 1.0), times, noise)
    mask = np.abs(grid.axis()) <= L + 1e-12
    for _ in range(grid.dim - 1):
        mask = mask[..., None] & (np.abs(grid.axis()) <= L + 1e-12)
    probes = []
    for t, final in zip(times, finals):
        peaks = final[:, mask].max(axis=1)
        threshold = math.exp(-kernel.a * t / 3.0)
        hits = int(np.sum(peaks > threshold))
        probes.append(TailProbe(fraction=hits / n_replicas,
                                interval=wilson_interval(hits, n_replicas),
                                threshold=threshold))
    return probes
