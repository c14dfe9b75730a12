"""Splitting solvers for the linear equation with multiplicative noise and
for its nonlinear log-Laplace counterpart.

Per step of length dt (symmetric Strang splitting, the one scheme): half
heat step (spectral, exact on the torus), a pointwise substep, half heat
step.  The pointwise substep is the exact nonlinear flow u <- u/(1 + u dt/2)
(log-Laplace only) followed by the step's multiplicative factors: for the
stochastic solvers the noise factor exp(dW(x) - C(x,x) dt/2), for the jump
dual (sbmre.dual) the marks of the jumps that arrive in the step.  The Ito
correction makes the one-step conditional mean of the noise factor exactly
one, so ensemble means of the linear solver reproduce the discrete heat
semigroup identically, not just as dt -> 0.  A march fuses the trailing
half heat step of one step with the leading one of the next into a single
full heat step H(dt) (the half steps compose exactly on the torus), so it
takes one heat application per step, plus one per save.  A heat application
is one contraction per axis with a single (n, n) circulant matrix (the symbol
is a product over the axes; see heatkernel.heat_multiplier), or an rfft/irfft
pair on a 1-d grid of more than 128 cells.

The pointwise substep preserves nonnegativity exactly; the spectral heat
substep can undershoot zero at the scale of its truncation lobes, so the
march floors every heat output at zero and saves of nonnegative data are
>= 0 machine-exactly.  Flooring is monotone and 1-Lipschitz, hence every
pathwise comparison inequality survives it; the price is that additivity of
the linear flow holds only to the lobe scale (~1e-9 at default resolution)
instead of roundoff.  Fusion drops only the floor between the two halves of
a merged step, a state no save and no pointwise substep reads; every route
of a stack takes the same heat steps and floors, so the pathwise comparisons
between routes hold as in a loop of whole steps.

Noise is generated in chunks keyed by (seed, stream_key, chunk index) and is
regenerable: replaying a NoisePath, or sharing one between solvers, yields
bit-identical increments.  That determinism is what makes the pathwise
comparison inequalities between the two equations testable at 1e-12.  Only
the steps a march reads are drawn, in blocks of ensemble.BLOCK_VALUES values
(or one step, when a step holds more) from the start of each chunk, so a
march of n steps draws at most n steps plus its last block.

Routes that share a NoisePath march as one stack (solve_routes): a state
shaped (n_routes, n_replicas, *grid.shape) takes, per step, one increment,
one heat application and one exponential per distinct Ito drift, and each
route's trajectory is bit for bit that of its march alone.  The linear and
log-Laplace solvers, the derivative quotient and both Stratonovich routes are
callers of that one march; pam_states_at and pam_log_max_series keep the
states at chosen times or only their log-maxima.  The march (_evolve) takes
its factors from a per-step source, so the jump dual runs through it too.
"""

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel, ScaledTheta, grid_covariance_factor
from .ensemble import BATCH_SIZE, BLOCK_VALUES, batch_ranges, require_count, stream_rng
from .grids import Grid, GridFunction
from .heatkernel import apply_spectral_multiplier, heat_multiplier

# safety renormalization threshold for log-scale trackers
_RENORM_LIMIT = 1e100


class SchemeOverflowError(FloatingPointError):
    """A solver state left the finite range; carries the offending step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

    def __reduce__(self):  # pickle with the constructor's arguments, so it crosses a pool
        return type(self), (self.args[0], self.step)


class RouteDisagreementError(RuntimeError):
    """Two discretizations of the same object drifted past scheme order."""


class NoisePath:
    """A replayable realization of the driving noise on a grid.

    Increments over [k dt, (k+1) dt) are centered Gaussian fields with
    covariance C(x, y) dt, independent across steps and across the
    `n_replicas` leading axis.  Steps come in chunks of chunk_steps, and
    chunk c draws from the stream (seed, stream_key, c), one row of normals
    per step and replica, so its steps are a prefix-stable sequence.  Only
    the steps read are drawn: the path keeps the live generator of the chunk
    it is reading and draws that chunk in blocks of `block_steps` steps from
    its start, the steps that fit in BLOCK_VALUES values (one at least),
    never past the chunk's end, keeping only the block drawn last, so memory
    stays at one cache-sized block however long the path.  The blocks of a
    chunk always fall at the same steps, so an increment does not depend on
    how it was reached: reading a step before the kept block, or in another
    chunk, regenerates that chunk from its key, and any increment replays
    bit-identically, in this NoisePath or another one.  Routes that need the
    same steps should therefore march together (solve_routes).  Since a
    chunk's normals are one C-order stream, its blocks hold the fields of
    one draw of the whole chunk wherever a field does not depend on the
    draw's row count (rank <= 384; see the draw layout in covariance).
    """

    def __init__(self, grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                 n_replicas: int = 1, stream_key: tuple = (), chunk_steps: int = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.grid = grid
        self.kernel = kernel
        self.dt = float(dt)
        self.seed = int(seed)
        self.n_replicas = require_count("n_replicas", n_replicas)
        self.stream_key = tuple(int(k) for k in stream_key)
        step_values = self.n_replicas * grid.n_points
        if chunk_steps is None:
            # a new stream key about every 2M values, regardless of replica count
            chunk_steps = max(1, 2_000_000 // step_values)
        self.chunk_steps = require_count("chunk_steps", chunk_steps)
        self.block_steps = max(1, BLOCK_VALUES // step_values)
        self.factor = grid_covariance_factor(kernel, grid)
        self._chunk = None  # index of the chunk whose generator is live
        self._rng = None
        self._drawn = 0  # steps of that chunk drawn so far; the block ends there
        self._block = None  # the block drawn last, (steps, n_replicas, *grid.shape)

    @property
    def diagonal(self) -> float:
        """C(x, x), the constant variance rate entering the Ito correction."""
        return self.kernel.diagonal_value()

    def increment(self, step: int) -> np.ndarray:
        """Increment dW for the given step, shaped (n_replicas, *grid.shape)."""
        if step < 0:
            raise ValueError(f"step must be nonnegative, got {step}")
        c, offset = divmod(int(step), self.chunk_steps)
        if c != self._chunk or offset < self._drawn - len(self._block):
            self._rng, self._drawn = stream_rng(self.seed, self.stream_key + (c,)), 0
        while offset >= self._drawn:
            size = min(self.chunk_steps - self._drawn, self.block_steps)
            # until the block is in: a draw that raises leaves no half state, and
            # the old block is freed before the new one is drawn
            self._chunk, self._block = None, None
            flat = self.factor.sample(self._rng, dt=self.dt, batch=size * self.n_replicas)
            self._block = flat.reshape((size, self.n_replicas) + self.grid.shape)
            self._chunk, self._drawn = c, self._drawn + size
        return self._block[offset - self._drawn + len(self._block)]


def batch_noise(grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                b: int, lo: int, hi: int) -> NoisePath:
    """The NoisePath of replica batch b, replicas [lo, hi): stream_key (b,)."""
    return NoisePath(grid, kernel, dt, seed, n_replicas=hi - lo, stream_key=(b,))


def ensemble_noise(grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                   n_replicas: int, batch_size: int = BATCH_SIZE) -> list:
    """Independent NoisePaths covering n_replicas in fixed-size batches.

    Batch b is keyed by stream_key=(b,) (batch_noise), so the replicas of a
    full batch coincide bit-identically across different total counts.  A
    partial last batch does not: its replica count sets its normal layout
    and its chunk_steps, so it matches the full batch that covers its
    replicas in a larger run at step 0 and, in general, at no later step.
    """
    require_count("n_replicas", n_replicas)
    return [batch_noise(grid, kernel, dt, seed, *batch)
            for batch in batch_ranges(n_replicas, batch_size)]


def _runs(keys) -> list:
    """[(key, slice), ...] over the maximal runs of equal consecutive keys."""
    runs, start = [], 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            runs.append((keys[start], slice(start, i)))
            start = i
    return runs


@dataclass(frozen=True)
class Route:
    """One equation marched from scale * f on a shared NoisePath (solve_routes).

    reaction turns on the quadratic sink (the log-Laplace equation; off, the
    linear one); correction subtracts the Ito drift C(x, x) dt / 2 from each
    increment (off, the direct route of the Stratonovich study).
    """

    scale: float = 1.0
    reaction: bool = False
    correction: bool = True

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")


@dataclass
class PamSolution:
    """Trajectory of the linear solver at save times.

    values has shape (n_saves, n_replicas, *grid.shape); replica axis is kept
    even for a single path so ensemble code has one layout.
    """

    times: np.ndarray
    values: np.ndarray


@dataclass
class StratonovichSolution(PamSolution):
    """Identity-route solution with its largest gap to the direct route."""

    route_gap: float = 0.0


@dataclass
class DerivativePair:
    """Difference quotient of the log-Laplace solution in its initial mass.

    All three trajectories ride the same NoisePath, which is what makes the
    pointwise sandwich 0 <= quotient <= linear solution hold to roundoff.
    """

    delta: float
    pam: PamSolution
    lower: PamSolution
    upper: PamSolution

    @property
    def quotient(self) -> np.ndarray:
        return (self.upper.values - self.lower.values) / self.delta

    def sandwich_margins(self) -> tuple:
        """(min quotient, min of linear-solution minus quotient) over all saves."""
        w = self.quotient
        return float(w.min()), float((self.pam.values - w).min())


def _resolve_steps(T: float, dt: float) -> int:
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"T={T} is not a whole number of steps of dt={dt}")
    return n


def _save_indices(n_steps: int, save_every) -> np.ndarray:
    if save_every is None:
        return np.array([0, n_steps])
    idx = list(range(0, n_steps + 1, require_count("save_every", save_every)))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.array(idx)


def _initial_states(f: GridFunction, noise: NoisePath, scales) -> np.ndarray:
    """scale * f for each scale, shaped (len(scales), n_replicas, *grid.shape)."""
    if f.grid != noise.grid:
        raise ValueError("initial datum and noise live on different grids")
    if float(f.values.min()) < 0:
        raise ValueError("initial datum must be nonnegative")
    states = np.broadcast_to(f.values, (noise.n_replicas,) + noise.grid.shape)
    states = np.ascontiguousarray(states, dtype=float)
    return np.array(scales, dtype=float).reshape((-1,) + (1,) * states.ndim) * states


def _noise_factors(noise: NoisePath, routes: tuple):
    """factors(k) for a stack of routes: exp(dW - drift) per slice of like drifts.

    One increment and one exponential per distinct drift per step; like
    routes listed next to each other share one (slice, factor) pair.
    """
    drifts = [0.5 * noise.diagonal * noise.dt if r.correction else 0.0 for r in routes]
    drift_runs = _runs(drifts)

    def factors(k):
        dW = noise.increment(k)
        exps = {d: np.exp(dW - d) for d in set(drifts)}
        return [(sl, exps[d]) for d, sl in drift_runs]

    return factors


def _evolve(states: np.ndarray, grid: Grid, dt: float, factors, save_idx,
            reacting=(), track_log_max: bool = False) -> list:
    """March states to step max(save_idx); return the state at each step of save_idx.

    The one step loop of the lab.  Step k is the pointwise substep: the exact
    flow u <- u/(1 + u dt/2) of the quadratic sink on each slice of the
    leading axis in reacting, then the multiplicative factors(k), (index into
    the leading axis, factor) pairs, an index being a slice of routes or one
    replica, each factor broadcasting over what its index selects.  The half
    heat steps H(dt/2) of consecutive steps are fused into one H(dt): the
    march takes H(dt/2) once, then per step the pointwise substep and H(dt)
    to the next one, and takes the closing H(dt/2) only for a save, so a
    march of n steps with s saves after step 0 costs n + s + 1 heat
    applications.  A state leaving the finite range stops the march with
    SchemeOverflowError(k).  Saves are arrays shaped like states that the
    march never writes (the save of step 0 is states itself, which it only
    reads), in the order of save_idx (repeats allowed).  When track_log_max
    is set, states are a stack (n_routes, n_replicas, *shape), renormalized
    per route and replica whenever they exceed _RENORM_LIMIT after a
    pointwise substep, and each save is instead the (n_routes, n_replicas)
    row of log(max) with the offset folded back in.
    """
    half, full = heat_multiplier(grid, dt / 2.0), heat_multiplier(grid, dt)
    axes = tuple(range(2, states.ndim))
    wanted = set(int(i) for i in save_idx)
    n_steps = max(wanted)
    saved = {}
    log_offset = np.zeros(states.shape[:2])

    def heat(v, multiplier):
        out = apply_spectral_multiplier(v, multiplier, grid.shape)
        return np.maximum(out, 0.0, out=out)

    def record(step, out):
        # out is never written again: states or a fresh output of heat
        saved[step] = np.log(out.max(axis=axes)) + log_offset if track_log_max else out

    if 0 in wanted:
        record(0, states)
    pending = heat(states, half)
    with np.errstate(over="ignore"):  # an overflow is caught below, with its step
        for k in range(n_steps):
            for sl in reacting:
                block = pending[sl]
                np.divide(block, 1.0 + block * (dt / 2.0), out=block)
            for index, factor in factors(k):
                np.multiply(pending[index], factor, out=pending[index])
            factor = None  # free the step's last factor before its heat step and the next draw
            if not np.isfinite(pending.max()):  # states are >= 0: one reduction sees inf and nan
                raise SchemeOverflowError(f"state left the finite range at step {k}", k)
            if track_log_max:
                peak = pending.max(axis=axes)
                big = peak > _RENORM_LIMIT
                if np.any(big):
                    scale = np.where(big, peak, 1.0)
                    pending = pending / scale.reshape(scale.shape + (1,) * len(axes))
                    log_offset = log_offset + np.log(scale)
            if k + 1 in wanted:
                record(k + 1, heat(pending, half))
            if k + 1 < n_steps:
                pending = heat(pending, full)
    return [saved[int(i)] for i in save_idx]


def solve_routes(f: GridFunction, T: float, noise: NoisePath, routes,
                 save_every=None) -> tuple:
    """March several routes from f along one noise path as one stack.

    Returns (times, values) with values[i] route i's trajectory, shaped
    (n_saves, n_replicas, *grid.shape) and bit for bit what route i marched
    alone gives: the stack shares the increments, the heat applications and
    the exponentials, not the arithmetic of any one route.
    """
    routes = tuple(routes)
    if not routes:
        raise ValueError("need at least one route")
    n = _resolve_steps(T, noise.dt)
    idx = _save_indices(n, save_every)
    states = _initial_states(f, noise, [r.scale for r in routes])
    reacting = [sl for on, sl in _runs([r.reaction for r in routes]) if on]
    saves = _evolve(states, noise.grid, noise.dt, _noise_factors(noise, routes), idx, reacting)
    return idx * noise.dt, np.stack(saves, axis=1)


def solve_pam(f: GridFunction, T: float, noise: NoisePath, save_every=None) -> PamSolution:
    """Evolve the linear equation from f >= 0 along the given noise path.

    With the Ito correction the ensemble mean of the output equals the heat
    flow of f discretely.
    """
    times, vals = solve_routes(f, T, noise, [Route()], save_every)
    return PamSolution(times, vals[0])


def solve_log_laplace(f: GridFunction, lam: float, T: float, noise: NoisePath,
                      save_every=None) -> PamSolution:
    """Evolve the log-Laplace equation from lam * f along the given noise path."""
    times, vals = solve_routes(f, T, noise, [Route(lam, reaction=True)], save_every)
    return PamSolution(times, vals[0])


def solve_stratonovich_pam(f: GridFunction, kernel: ScaledTheta, T: float,
                           noise: NoisePath, save_every=None) -> StratonovichSolution:
    """Solve the Stratonovich form for the Gaussian ScaledTheta kernel, both routes.

    Identity route: Ito solution times exp(a t / 2).  Direct route: same
    scheme without the compensator; both march as one stack.  Because
    C(x, x) = a is constant the two differ only by commuting a scalar through
    linear substeps, so they agree far inside the scheme-order tolerance
    max(1e-3, 100 dt) on their largest gap relative to the direct route's
    peak; the check still runs, raising RouteDisagreementError, so a future
    non-constant-diagonal variant cannot silently break the identity.
    """
    if not isinstance(kernel, ScaledTheta):
        raise ValueError("Stratonovich identity requires a ScaledTheta kernel")
    if kernel != noise.kernel:
        raise ValueError("noise path was built for a different kernel")
    times, (ito, direct) = solve_routes(f, T, noise, [Route(), Route(correction=False)],
                                        save_every)
    lift = np.exp(0.5 * kernel.a * times).reshape((-1,) + (1,) * (ito.ndim - 1))
    tilde = ito * lift
    scale = max(float(np.abs(direct).max()), 1e-300)
    gap = float(np.abs(tilde - direct).max()) / scale
    tolerance = max(1e-3, 100.0 * noise.dt)
    if gap > tolerance:
        raise RouteDisagreementError(
            f"identity and direct routes differ by {gap:.3e} (tolerance {tolerance:.3e})"
        )
    return StratonovichSolution(times=times, values=tilde, route_gap=gap)


def derivative_quotients(f: GridFunction, lambdas, delta: float, T: float,
                         noise: NoisePath, save_every=None) -> list:
    """derivative_quotient for each lam, in one march on the shared noise.

    The stack is the linear route once, then lam and lam + delta per lam;
    every DerivativePair shares the one linear solution.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    routes = [Route()] + [Route(s, reaction=True) for lam in lambdas for s in (lam, lam + delta)]
    times, vals = solve_routes(f, T, noise, routes, save_every)
    pam = PamSolution(times, vals[0])
    return [DerivativePair(delta=delta, pam=pam, lower=PamSolution(times, vals[1 + 2 * i]),
                           upper=PamSolution(times, vals[2 + 2 * i]))
            for i in range(len(lambdas))]


def derivative_quotient(f: GridFunction, lam: float, delta: float, T: float,
                        noise: NoisePath, save_every=None) -> DerivativePair:
    """Difference quotient of the log-Laplace solution in lam on shared noise."""
    return derivative_quotients(f, (lam,), delta, T, noise, save_every)[0]


def pam_states_at(f: GridFunction, times, noise: NoisePath) -> np.ndarray:
    """solve_pam's final state at each of the given times, from one march.

    Shaped (len(times), n_replicas, *grid.shape), in the order of times
    (repeats allowed); each equals solve_pam(f, t, noise).values[-1] bit for
    bit.  Only the states at the requested steps are kept.
    """
    steps = [_resolve_steps(t, noise.dt) for t in times]
    if not steps:
        raise ValueError("need at least one time")
    states = _initial_states(f, noise, [1.0])
    saves = _evolve(states, noise.grid, noise.dt, _noise_factors(noise, (Route(),)), steps)
    return np.stack([save[0] for save in saves])


def pam_log_max_series(f: GridFunction, T: float, noise: NoisePath,
                       save_every: int = 1, correction: bool = True) -> tuple:
    """(times, log max_x state) per replica, safe against overflow.

    With correction=False this tracks the Stratonovich-form field, whose
    exponential growth rate in the kernel amplitude is the quantity the
    growth-rate estimators consume; renormalization keeps the march finite
    however large the amplitude.
    """
    n = _resolve_steps(T, noise.dt)
    idx = _save_indices(n, save_every)
    states = _initial_states(f, noise, [1.0])
    if float(states.max()) <= 0:
        raise ValueError("log-max tracking requires a somewhere-positive datum")
    rows = _evolve(states, noise.grid, noise.dt,
                   _noise_factors(noise, (Route(correction=correction),)), idx,
                   track_log_max=True)
    return idx * noise.dt, np.stack([row[0] for row in rows])
