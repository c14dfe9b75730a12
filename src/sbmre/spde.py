"""Splitting solvers for the linear equation with multiplicative noise and
for its nonlinear log-Laplace counterpart.

Per step of length dt (symmetric ordering): half heat step (spectral, exact
on the torus), exact nonlinear substep u <- u/(1 + u dt/2) (log-Laplace
only), multiplicative noise factor exp(dW(x) - C(x,x) dt/2), half heat step.
The correction makes the one-step conditional mean of the noise factor
exactly one, so ensemble means of the linear solver reproduce the discrete
heat semigroup identically, not just as dt -> 0.  The reaction and noise
substeps preserve nonnegativity exactly; the spectral heat substep can
undershoot zero at the scale of its truncation lobes, so production solvers
floor each heat output at zero; saved slices of nonnegative data are then
>= 0 machine-exactly, at the cost of additivity of the linear flow holding
only to the lobe scale rather than roundoff (see Splitting).

Noise is generated in chunks keyed by (seed, stream_key, chunk index) and is
regenerable: replaying a NoisePath, or sharing one between solvers, yields
bit-identical increments.  That determinism is what makes the pathwise
comparison inequalities between the two equations testable at 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceKernel, ScaledTheta, grid_covariance_factor
from .ensemble import BATCH_SIZE, batch_ranges
from .grids import Grid, GridFunction
from .heatkernel import apply_spectral_multiplier, heat_multiplier

ORDERINGS = ("symmetric", "heat-noise", "noise-heat")

# safety renormalization threshold for log-scale trackers
_RENORM_LIMIT = 1e100


class SchemeOverflowError(FloatingPointError):
    """A solver state left the finite range; carries the offending step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class RouteDisagreementError(RuntimeError):
    """Two discretizations of the same object drifted past scheme order."""


class NoisePath:
    """A replayable realization of the driving noise on a grid.

    Increments over [k dt, (k+1) dt) are centered Gaussian fields with
    covariance C(x, y) dt, independent across steps and across the
    `n_replicas` leading axis.  Generation is lazy and chunked, and generated
    chunks are kept; chunk c is a pure function of (seed, stream_key, c), so
    any increment replays bit-identically in another NoisePath.
    """

    def __init__(self, grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                 n_replicas: int = 1, stream_key: tuple = (), chunk_steps: int = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.grid = grid
        self.kernel = kernel
        self.dt = float(dt)
        self.seed = int(seed)
        self.n_replicas = int(n_replicas)
        self.stream_key = tuple(int(k) for k in stream_key)
        if chunk_steps is None:
            # keep a chunk around 2M floats regardless of replica count
            chunk_steps = max(1, 2_000_000 // (self.n_replicas * grid.n_points))
        self.chunk_steps = int(chunk_steps)
        self.factor = grid_covariance_factor(kernel, grid)
        self._chunks = {}

    @property
    def diagonal(self) -> float:
        """C(x, x), the constant variance rate entering the Ito correction."""
        return self.kernel.diagonal_value()

    def _chunk(self, c: int) -> np.ndarray:
        block = self._chunks.get(c)
        if block is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream_key + (c,))
            rng = np.random.default_rng(ss)
            flat = self.factor.sample(rng, dt=self.dt, batch=self.chunk_steps * self.n_replicas)
            block = flat.reshape((self.chunk_steps, self.n_replicas) + self.grid.shape)
            self._chunks[c] = block
        return block

    def increment(self, step: int) -> np.ndarray:
        """Increment dW for the given step, shaped (n_replicas, *grid.shape)."""
        if step < 0:
            raise ValueError(f"step must be nonnegative, got {step}")
        c, offset = divmod(int(step), self.chunk_steps)
        return self._chunk(c)[offset]


def batch_noise(grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                b: int, lo: int, hi: int) -> NoisePath:
    """The NoisePath of replica batch b, replicas [lo, hi): stream_key (b,)."""
    return NoisePath(grid, kernel, dt, seed, n_replicas=hi - lo, stream_key=(b,))


def ensemble_noise(grid: Grid, kernel: CovarianceKernel, dt: float, seed: int,
                   n_replicas: int, batch_size: int = BATCH_SIZE) -> list:
    """Independent NoisePaths covering n_replicas in fixed-size batches.

    Batch b is keyed by stream_key=(b,) (batch_noise), so replica r's noise
    depends only on (seed, r // batch_size, r % batch_size) and the first k
    replicas coincide bit-identically across different total counts.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    return [batch_noise(grid, kernel, dt, seed, *batch)
            for batch in batch_ranges(n_replicas, batch_size)]


class Splitting:
    """One splitting step of length dt on states shaped (n_replicas, *grid.shape).

    The reaction substep (if `reaction`) is the exact flow u <- u/(1 + u dt/2)
    of the quadratic sink, the noise substep (if `step` gets a factor) an exact
    positive pointwise multiplier.  The spectral heat substep is the one place
    positivity can leak: its discrete kernel has small negative truncation
    lobes, so with clamp=True (production default) each heat output is floored
    at zero.  Flooring is monotone and 1-Lipschitz, hence every pathwise
    comparison inequality survives it; the price is that additivity of the
    linear flow holds only to the lobe scale (~1e-9 at default resolution)
    instead of roundoff.  clamp=False keeps the exactly linear flow.
    """

    def __init__(self, grid: Grid, dt: float, order: str = "symmetric",
                 reaction: bool = False, clamp: bool = True):
        if order not in ORDERINGS:
            raise ValueError(f"order must be one of {ORDERINGS}, got {order!r}")
        self.shape = grid.shape
        self.dt = dt
        self.order = order
        self.reaction = reaction
        self.clamp = clamp
        # symmetric splitting takes two half heat steps, the others one full one
        self.multiplier = heat_multiplier(grid, dt / 2.0 if order == "symmetric" else dt)

    def _heat(self, v):
        out = apply_spectral_multiplier(v, self.multiplier, self.shape)
        return np.maximum(out, 0.0, out=out) if self.clamp else out

    def _pointwise(self, v, factor, k):
        if self.reaction:
            v = v / (1.0 + v * (self.dt / 2.0))
        if factor is None:
            return v
        with np.errstate(over="ignore"):
            v = v * factor
        if not np.all(np.isfinite(v)):
            raise SchemeOverflowError(f"state left the finite range at step {k}", k)
        return v

    def step(self, states: np.ndarray, factor: np.ndarray = None, k: int = 0) -> np.ndarray:
        """Advance states by dt; factor is the noise multiplier of step k."""
        if self.order == "symmetric":
            return self._heat(self._pointwise(self._heat(states), factor, k))
        if self.order == "heat-noise":
            return self._pointwise(self._heat(states), factor, k)
        return self._heat(self._pointwise(states, factor, k))


@dataclass
class PamSolution:
    """Trajectory of the linear solver at save times.

    values has shape (n_saves, n_replicas, *grid.shape); replica axis is kept
    even for a single path so ensemble code has one layout.
    """

    grid: Grid
    dt: float
    correction: bool
    order: str
    times: np.ndarray
    values: np.ndarray

    @property
    def n_replicas(self) -> int:
        return self.values.shape[1]

    def function(self, i: int, replica: int = 0) -> GridFunction:
        return GridFunction(self.grid, self.values[i, replica].copy())

    def final_function(self, replica: int = 0) -> GridFunction:
        return self.function(len(self.times) - 1, replica)


@dataclass
class LogLaplaceSolution(PamSolution):
    lam: float = 0.0


@dataclass
class StratonovichSolution(PamSolution):
    """Identity-route solution with the direct-scheme values kept alongside."""

    route_gap: float = 0.0
    direct_values: np.ndarray = None


@dataclass
class DerivativePair:
    """Difference quotient of the log-Laplace solution in its initial mass.

    All three trajectories ride the same NoisePath, which is what makes the
    pointwise sandwich 0 <= quotient <= linear solution hold to roundoff.
    """

    lam: float
    delta: float
    pam: PamSolution
    lower: LogLaplaceSolution
    upper: LogLaplaceSolution

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
    k = int(save_every)
    if k < 1:
        raise ValueError(f"save_every must be >= 1, got {save_every}")
    idx = list(range(0, n_steps + 1, k))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.array(idx)


def _initial_states(f: GridFunction, noise: NoisePath, scale: float = 1.0) -> np.ndarray:
    if f.grid != noise.grid:
        raise ValueError("initial datum and noise live on different grids")
    if float(f.values.min()) < 0:
        raise ValueError("initial datum must be nonnegative")
    states = np.broadcast_to(f.values, (noise.n_replicas,) + noise.grid.shape)
    return scale * np.ascontiguousarray(states, dtype=float)


def _evolve(states: np.ndarray, noise: NoisePath, n_steps: int, save_idx: np.ndarray,
            reaction: bool, correction: bool, order: str,
            track_log_max: bool = False, clamp: bool = True):
    """March states (n_replicas, *shape) forward; return saves or log-max rows.

    Each step is one Splitting step with noise factor exp(dW - drift); see
    Splitting for the substeps and the clamp trade-off.  When track_log_max
    is set, states are renormalized per replica whenever they exceed
    _RENORM_LIMIT and log(max) is recorded with the offset folded back in;
    saved fields are then not meaningful and are not returned.
    """
    scheme = Splitting(noise.grid, noise.dt, order, reaction=reaction, clamp=clamp)
    drift = 0.5 * noise.diagonal * noise.dt if correction else 0.0
    axes = tuple(range(1, states.ndim))
    save_set = set(int(i) for i in save_idx)
    saves, log_rows = [], []
    log_offset = np.zeros(states.shape[0])

    def record():
        if track_log_max:
            log_rows.append(np.log(states.max(axis=axes)) + log_offset)
        else:
            saves.append(states.copy())

    if 0 in save_set:
        record()
    for k in range(n_steps):
        with np.errstate(over="ignore"):
            factor = np.exp(noise.increment(k) - drift)
        states = scheme.step(states, factor, k)
        if track_log_max:
            peak = states.max(axis=axes)
            big = peak > _RENORM_LIMIT
            if np.any(big):
                scale = np.where(big, peak, 1.0)
                states = states / scale.reshape((-1,) + (1,) * (states.ndim - 1))
                log_offset = log_offset + np.log(scale)
        if (k + 1) in save_set:
            record()
    if track_log_max:
        return np.stack(log_rows)
    return np.stack(saves)


def solve_pam(f: GridFunction, T: float, noise: NoisePath, save_every=None,
              order: str = "symmetric", correction: bool = True,
              clamp_negatives: bool = True) -> PamSolution:
    """Evolve the linear equation from f >= 0 along the given noise path.

    With the default Ito correction the ensemble mean of the output equals
    the heat flow of f discretely; correction=False drops the compensator
    (the direct route of the Stratonovich scheme study).  clamp_negatives
    trades exact additivity for exact positivity; see Splitting.
    """
    n = _resolve_steps(T, noise.dt)
    idx = _save_indices(n, save_every)
    states = _initial_states(f, noise)
    vals = _evolve(states, noise, n, idx, reaction=False, correction=correction,
                   order=order, clamp=clamp_negatives)
    return PamSolution(grid=noise.grid, dt=noise.dt, correction=correction,
                       order=order, times=idx * noise.dt, values=vals)


def solve_log_laplace(f: GridFunction, lam: float, T: float, noise: NoisePath,
                      save_every=None, order: str = "symmetric") -> LogLaplaceSolution:
    """Evolve the log-Laplace equation from lam * f along the given noise path."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    n = _resolve_steps(T, noise.dt)
    idx = _save_indices(n, save_every)
    states = _initial_states(f, noise, scale=lam)
    vals = _evolve(states, noise, n, idx, reaction=True, correction=True, order=order)
    return LogLaplaceSolution(grid=noise.grid, dt=noise.dt, correction=True,
                              order=order, times=idx * noise.dt, values=vals, lam=lam)


def solve_stratonovich_pam(f: GridFunction, kernel: ScaledTheta, T: float,
                           noise: NoisePath, save_every=None,
                           tolerance: float = None) -> StratonovichSolution:
    """Solve the Stratonovich form for a scaled-profile kernel, both routes.

    Identity route: Ito solution times exp(a t / 2).  Direct route: same
    scheme without the compensator.  Because C(x, x) = a is constant the two
    differ only by commuting a scalar through linear substeps, so they agree
    far inside the scheme-order tolerance; the check still runs so a future
    non-constant-diagonal variant cannot silently break the identity.
    """
    if not isinstance(kernel, ScaledTheta):
        raise ValueError("Stratonovich identity requires a ScaledTheta kernel")
    if kernel != noise.kernel:
        raise ValueError("noise path was built for a different kernel")
    ito = solve_pam(f, T, noise, save_every=save_every, correction=True)
    a = kernel.a
    lift = np.exp(0.5 * a * ito.times).reshape((-1,) + (1,) * (ito.values.ndim - 1))
    tilde = ito.values * lift
    direct = solve_pam(f, T, noise, save_every=save_every, correction=False)
    scale = max(float(np.abs(direct.values).max()), 1e-300)
    gap = float(np.abs(tilde - direct.values).max()) / scale
    if tolerance is None:
        tolerance = max(1e-3, 100.0 * noise.dt)
    if gap > tolerance:
        raise RouteDisagreementError(
            f"identity and direct routes differ by {gap:.3e} (tolerance {tolerance:.3e})"
        )
    return StratonovichSolution(grid=noise.grid, dt=noise.dt, correction=True,
                                order=ito.order, times=ito.times, values=tilde,
                                route_gap=gap, direct_values=direct.values)


def derivative_quotient(f: GridFunction, lam: float, delta: float, T: float,
                        noise: NoisePath, save_every=None) -> DerivativePair:
    """Difference quotient of the log-Laplace solution in lam on shared noise."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pam = solve_pam(f, T, noise, save_every=save_every)
    lower = solve_log_laplace(f, lam, T, noise, save_every=save_every)
    upper = solve_log_laplace(f, lam + delta, T, noise, save_every=save_every)
    return DerivativePair(lam=lam, delta=delta, pam=pam, lower=lower, upper=upper)


def total_mass_series(sol: PamSolution) -> tuple:
    """(times, masses): cell_volume * sum over the grid, per save and replica."""
    axes = tuple(range(2, sol.values.ndim))
    masses = sol.values.sum(axis=axes) * sol.grid.cell_volume
    return sol.times, masses


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
    states = _initial_states(f, noise)
    if float(states.max()) <= 0:
        raise ValueError("log-max tracking requires a somewhere-positive datum")
    rows = _evolve(states, noise, n, idx, reaction=False, correction=correction,
                   order="symmetric", track_log_max=True)
    return idx * noise.dt, rows
