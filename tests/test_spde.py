"""Splitting-solver tests.

Facts that hold exactly under the discrete scheme (one-step mean one, exact
reaction flow, shared noise factors, scalar commutation) are asserted at
roundoff-level tolerances; genuinely statistical facts use seeded ensembles
and 3-standard-error bands.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sbmre import spde
from sbmre.covariance import Constant, GaussianFieldFactor, ScaledTheta
from sbmre.ensemble import BLOCK_VALUES, stream_rng
from sbmre.grids import Grid, GridFunction
from sbmre.heatkernel import apply_heat_semigroup, apply_spectral_multiplier, heat_multiplier
from sbmre.spde import (
    NoisePath,
    Route,
    RouteDisagreementError,
    SchemeOverflowError,
    derivative_quotient,
    ensemble_noise,
    pam_log_max_series,
    pam_states_at,
    solve_log_laplace,
    solve_pam,
    solve_routes,
    solve_stratonovich_pam,
)

SEED = 20260814


def bump(grid, center=0.0, width=0.5, height=1.0):
    def f(points):
        r2 = np.sum((points - center) ** 2, axis=-1)
        return height * np.exp(-r2 / (2.0 * width * width))

    return GridFunction.from_callable(grid, f)


def gather_final(paths, solve):
    """Concatenate final-slice values of `solve(path)` over a path list."""
    return np.concatenate([solve(p).values[-1] for p in paths], axis=0)


def test_noise_path_replay_and_layout():
    grid = Grid(1, 8.0, 32)
    kern = ScaledTheta(0.7)
    p1 = NoisePath(grid, kern, dt=0.01, seed=123)
    first = p1.increment(5).copy()
    assert np.array_equal(p1.increment(5), first)
    p2 = NoisePath(grid, kern, dt=0.01, seed=123)
    assert np.array_equal(p2.increment(5), first)
    assert not np.array_equal(p1.increment(6), first)
    other = NoisePath(grid, kern, dt=0.01, seed=124)
    assert not np.array_equal(other.increment(5), first)
    assert p1.increment(0).shape == (1,) + grid.shape
    wide = NoisePath(grid, kern, dt=0.01, seed=123, n_replicas=5)
    assert wide.increment(0).shape == (5,) + grid.shape
    # crossing a chunk boundary must not disturb earlier increments
    far = p1.increment(p1.chunk_steps + 1)
    assert far.shape == first.shape
    assert np.array_equal(p1.increment(5), first)
    with pytest.raises(ValueError):
        p1.increment(-1)
    with pytest.raises(ValueError):
        NoisePath(grid, kern, dt=0.0, seed=1)
    with pytest.raises(ValueError):
        NoisePath(grid, kern, dt=0.01, seed=1, n_replicas=0)
    for chunk_steps in (0, -2, 2.5, True):
        with pytest.raises(ValueError, match="chunk_steps"):
            NoisePath(grid, kern, dt=0.01, seed=1, chunk_steps=chunk_steps)


@pytest.mark.parametrize("n_replicas", [0, 2.5, 2.0, True])
def test_noise_path_refuses_a_replica_count_that_is_not_a_positive_integer(n_replicas):
    # 2.5 once made a 2-replica path, and True a 1-replica one
    with pytest.raises(ValueError, match="n_replicas"):
        NoisePath(Grid(1, 4.0, 16), ScaledTheta(0.5), dt=0.01, seed=1, n_replicas=n_replicas)
    assert NoisePath(Grid(1, 4.0, 16), ScaledTheta(0.5), dt=0.01, seed=1,
                     n_replicas=np.int64(3)).n_replicas == 3


def test_noise_path_keeps_one_block():
    grid = Grid(1, 8.0, 32)
    path = NoisePath(grid, ScaledTheta(0.7), dt=0.01, seed=123, n_replicas=2, chunk_steps=9)
    first = path.increment(0).copy()
    # each increment is a view of its block; a block no longer held is freed
    blocks = [weakref.ref(path.increment(s).base) for s in range(22)]
    assert len({id(ref()) for ref in blocks if ref() is not None}) <= 1
    solve_pam(GridFunction.constant(grid, 1.0), 0.22, path)  # 22 steps: chunks 0..2
    gc.collect()
    assert sum(ref() is not None for ref in blocks) <= 1
    assert np.array_equal(path.increment(0), first)
    fresh = NoisePath(grid, ScaledTheta(0.7), dt=0.01, seed=123, n_replicas=2, chunk_steps=9)
    assert np.array_equal(fresh.increment(21), path.increment(21))


@pytest.mark.parametrize("grid, replicas", [(Grid(1, 8.0, 32), 1), (Grid(1, 8.0, 32), 3),
                                            (Grid(2, 4.0, 8), 2), (Grid(3, 4.0, 6), 2)],
                         ids=["1d-1", "1d-3", "2d-2", "3d-2"])
def test_noise_path_increments_do_not_depend_on_the_reading_order(grid, replicas):
    def path():
        return NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=replicas,
                         chunk_steps=11)

    forward = path()
    steps = range(30)  # chunks 0..2, the last one cut short
    ref = [forward.increment(k).copy() for k in steps]
    back = path()
    for k in (17, 4, 29, 0, 12, 11, 10, 28, 3):  # jumps back within and across chunks
        assert np.array_equal(back.increment(k), ref[k])
    for k in reversed(steps):
        assert np.array_equal(path().increment(k), ref[k])
        assert np.array_equal(forward.increment(k), ref[k])


def test_march_draws_at_most_its_reads_plus_the_last_block(monkeypatch):
    grid = Grid(1, 8.0, 64)
    drawn = []
    inner = GaussianFieldFactor.sample

    def spy(self, rng, dt=1.0, batch=None):
        out = inner(self, rng, dt, batch)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(GaussianFieldFactor, "sample", spy)
    for T, replicas, chunk_steps in ((0.05, 3, None), (1.0, 4, None), (0.3, 2, 64)):
        drawn.clear()
        noise = NoisePath(grid, ScaledTheta(1.0), dt=1e-3, seed=4, n_replicas=replicas,
                          chunk_steps=chunk_steps)
        solve_pam(bump(grid), T, noise)
        read = round(T / noise.dt) * replicas * grid.n_points  # steps 0..n-1
        assert read <= sum(drawn) <= read + drawn[-1]
        # the first block is one step; whole chunks are drawn only when read through
        assert drawn[0] == replicas * grid.n_points
        # no block outgrows BLOCK_VALUES values, or one step when a step holds more
        assert max(drawn) <= max(BLOCK_VALUES, replicas * grid.n_points)
        chunks = -(-round(T / noise.dt) // noise.chunk_steps)
        assert sum(drawn) < chunks * noise.chunk_steps * replicas * grid.n_points


@pytest.mark.parametrize("grid, replicas, chunk_steps, block_steps",
                         [(Grid(1, 8.0, 64), 16, 100, 32), (Grid(3, 4.0, 8), 80, 5, 1)],
                         ids=["1d-32-step-blocks", "3d-one-step-blocks"])
def test_capped_blocks_equal_one_draw_per_chunk(grid, replicas, chunk_steps, block_steps):
    # blocks capped at BLOCK_VALUES values take the rows of one whole-chunk draw
    noise = NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=replicas,
                      stream_key=(3,), chunk_steps=chunk_steps)
    assert noise.block_steps == block_steps < chunk_steps
    for c in range(2):
        whole = noise.factor.sample(stream_rng(21, (3, c)), dt=1e-2,
                                    batch=chunk_steps * replicas)
        whole = whole.reshape((chunk_steps, replicas) + grid.shape)
        for offset in range(chunk_steps):
            assert np.array_equal(noise.increment(c * chunk_steps + offset), whole[offset])


def test_march_peak_memory_stays_at_a_few_steps():
    # a 16^3 batch of 32 replicas: one step of noise is 1 MB, and the uncapped
    # blocks of its 15-step chunks would reach 8 steps
    grid = Grid(3, 8.0, 16)
    f = GridFunction.constant(grid, 1.0)
    noise = NoisePath(grid, ScaledTheta(1.0), dt=2e-3, seed=1, n_replicas=32)
    solve_pam(f, 2e-3, noise)  # the factor and the heat matrices are cached from here
    step = noise.n_replicas * grid.n_points * 8
    tracemalloc.start()
    try:
        solve_pam(f, 0.04, noise)  # 20 steps, across the first chunk's end
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert noise.chunk_steps < 20
    assert peak < 6 * step


def test_states_at_times_equal_final_states_of_separate_solves():
    grid = Grid(1, 8.0, 32)
    f = bump(grid, width=0.7)
    noise = NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=3, chunk_steps=7)
    times = (0.2, 0.05, 0.2, 0.13)
    states = pam_states_at(f, times, noise)
    assert states.shape == (len(times), 3) + grid.shape
    for t, state in zip(times, states):
        assert np.array_equal(state, solve_pam(f, t, noise).values[-1])
    with pytest.raises(ValueError):
        pam_states_at(f, (0.1, 0.0123), noise)
    with pytest.raises(ValueError):
        pam_states_at(f, (), noise)

@pytest.mark.parametrize(
    "grid", [Grid(1, 8.0, 32), Grid(1, 9.0, 18), Grid(2, 4.0, 8), Grid(3, 4.0, 6)],
    ids=["1d", "1d-18", "2d", "3d"])
def test_stacked_routes_equal_separate_solves(grid):
    f = bump(grid, width=0.7)
    noise = NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=3, chunk_steps=7)
    # unlike routes interleaved, so no run of the stack holds two of them
    routes = [Route(), Route(0.7, reaction=True), Route(correction=False),
              Route(1.3, reaction=True), Route(2.0, reaction=True)]
    times, stacked = solve_routes(f, 0.2, noise, routes, save_every=6)
    alone = [
        solve_pam(f, 0.2, noise, save_every=6),
        solve_log_laplace(f, 0.7, 0.2, noise, save_every=6),
        solve_pam(f, 0.2, noise, save_every=6, correction=False),
        solve_log_laplace(f, 1.3, 0.2, noise, save_every=6),
        solve_log_laplace(f, 2.0, 0.2, noise, save_every=6),
    ]
    assert stacked.shape == (len(routes), len(times), 3) + grid.shape
    for values, sol in zip(stacked, alone):
        assert np.array_equal(sol.times, times)
        assert np.array_equal(values, sol.values)
    with pytest.raises(ValueError):
        solve_routes(f, 0.2, noise, [])
    with pytest.raises(ValueError):
        Route(-1.0)


def test_ensemble_noise_batching_deterministic():
    grid = Grid(1, 8.0, 128)
    kern = ScaledTheta(0.5)
    a = ensemble_noise(grid, kern, 0.01, seed=9, n_replicas=40, batch_size=16)
    b = ensemble_noise(grid, kern, 0.01, seed=9, n_replicas=40, batch_size=16)
    assert len(a) == 3 and a[-1].n_replicas == 8
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.increment(3), pb.increment(3))
    # full batches coincide across runs with different totals, across capped blocks
    c = ensemble_noise(grid, kern, 0.01, seed=9, n_replicas=64, batch_size=16)
    assert a[1].block_steps == 16
    for k in range(41):
        assert np.array_equal(a[1].increment(k), c[1].increment(k))
    # a partial batch does not: its replica count sets its layout of normals
    assert np.array_equal(a[2].increment(0), c[2].increment(0)[:8])
    assert not np.array_equal(a[2].increment(1), c[2].increment(1)[:8])
    for size in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="batch_size"):
            ensemble_noise(grid, kern, 0.01, seed=1, n_replicas=10, batch_size=size)
    # a fractional count once reached range() and raised its TypeError
    for count in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_replicas"):
            ensemble_noise(grid, kern, 0.01, seed=1, n_replicas=count)


def test_noise_off_matches_heat_flow():
    grid = Grid(1, 8.0, 64)
    f = bump(grid, width=0.6)
    target = apply_heat_semigroup(f, 0.25).values
    noise = NoisePath(grid, Constant(0.0), dt=1e-3, seed=1)
    sol = solve_pam(f, 0.25, noise)
    err = np.abs(sol.values[-1, 0] - target).max() / target.max()
    assert err < 1e-8
    assert sol.values.min() >= 0.0


def test_pam_constant_kernel_moments():
    # spatially flat field: one-step factor has mean exactly one and second
    # moment exactly e^(c dt), so both moments are sharp at any dt
    grid = Grid(1, 8.0, 16)
    f = GridFunction.constant(grid, 1.0)
    c, T = 1.0, 0.5
    paths = ensemble_noise(grid, Constant(c), dt=0.01, seed=SEED,
                           n_replicas=1000, batch_size=250)
    final = gather_final(paths, lambda p: solve_pam(f, T, p))
    v = final[:, 8]
    se = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean() - 1.0) < 3 * se
    v2 = v * v
    se2 = v2.std(ddof=1) / math.sqrt(v2.size)
    assert abs(v2.mean() - math.exp(c * T)) < 3 * se2
    # the field is constant across cells for a constant kernel
    assert np.abs(final - final[:, :1]).max() < 1e-12


def test_pam_mean_matches_heat_semigroup():
    grid = Grid(1, 8.0, 64)
    f = bump(grid, width=0.6)
    T = 0.4
    paths = ensemble_noise(grid, ScaledTheta(0.8), dt=2e-3, seed=SEED + 1,
                           n_replicas=600, batch_size=150)
    final = gather_final(paths, lambda p: solve_pam(f, T, p))
    target = apply_heat_semigroup(f, T).values
    for cell in (8, 24, 32, 40, 56):
        sample = final[:, cell]
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - target[cell]) < 3 * se + 1e-12


def test_log_laplace_constant_closed_form():
    # noise off and flat data: heat is the identity and the reaction substep
    # is the exact flow, so the scheme reproduces 1/(t/2 + 1/k) to roundoff
    grid = Grid(1, 4.0, 8)
    f = GridFunction.constant(grid, 1.0)
    lam = 2.0
    noise = NoisePath(grid, Constant(0.0), dt=1e-4, seed=2)
    sol = solve_log_laplace(f, lam, 1.0, noise, save_every=2500)
    for t, slab in zip(sol.times, sol.values):
        closed = 1.0 / (t / 2.0 + 1.0 / lam)
        assert np.abs(slab - closed).max() < 1e-10


def test_log_laplace_zero_lambda_fixed_point():
    grid = Grid(1, 8.0, 32)
    noise = NoisePath(grid, ScaledTheta(1.0), dt=1e-3, seed=3)
    sol = solve_log_laplace(bump(grid), 0.0, 0.1, noise, save_every=20)
    assert sol.values.max() == 0.0
    assert sol.values.min() == 0.0


def test_log_laplace_linearizes_for_small_mass():
    grid = Grid(1, 8.0, 64)
    f = bump(grid, width=0.7)
    noise = NoisePath(grid, ScaledTheta(1.2), dt=1e-3, seed=7)
    lam = 1e-3
    v = solve_pam(f, 0.5, noise).values[-1]
    u = solve_log_laplace(f, lam, 0.5, noise).values[-1]
    assert np.abs(u / lam - v).max() / v.max() < 1e-2


def test_sandwich_inequalities_on_shared_noise():
    grid = Grid(1, 8.0, 64)
    f = bump(grid, width=0.8)
    noise = NoisePath(grid, ScaledTheta(1.5), dt=1e-3, seed=11, n_replicas=2)
    pair = derivative_quotient(f, 0.7, 0.4, 0.3, noise, save_every=100)
    w_min, gap_min = pair.sandwich_margins()
    assert w_min >= -1e-12
    assert gap_min >= -1e-12
    # mass comparison: u(lam) <= lam * v and u(lam) <= u(lam + delta)
    assert (pair.lower.values - pair.lam * pair.pam.values).max() <= 1e-12
    assert (pair.lower.values - pair.upper.values).max() <= 1e-12
    # quotient shrinks as lam grows (empirical concavity)
    low = derivative_quotient(f, 0.2, 0.4, 0.3, noise, save_every=100)
    assert (pair.quotient - low.quotient).max() <= 1e-10


def test_quotient_closed_form_and_delta_ladder():
    grid = Grid(1, 4.0, 8)
    f = GridFunction.constant(grid, 1.0)
    noise_off = NoisePath(grid, Constant(0.0), dt=1e-3, seed=4)
    lam, delta, T = 0.5, 0.25, 0.8
    pair = derivative_quotient(f, lam, delta, T, noise_off)
    exact = (1.0 / (T / 2 + 1 / (lam + delta)) - 1.0 / (T / 2 + 1 / lam)) / delta
    assert np.abs(pair.quotient[-1] - exact).max() < 1e-8

    grid = Grid(1, 8.0, 64)
    f = bump(grid, width=0.6)
    noise = NoisePath(grid, ScaledTheta(0.9), dt=1e-3, seed=5)
    v = solve_pam(f, 0.4, noise).values
    gaps, prev = [], None
    for delta in (1e-1, 1e-2, 1e-3):
        w = derivative_quotient(f, 0.0, delta, 0.4, noise).quotient
        assert (w - v).max() <= 1e-12  # approaches v from below
        if prev is not None:
            assert (prev - w).max() <= 1e-10  # monotone in delta
        gaps.append(float(np.sqrt(np.mean((v - w) ** 2))))
        prev = w
    assert gaps[0] > gaps[1] > gaps[2]


def test_pam_is_linear_on_shared_noise(monkeypatch):
    grid = Grid(1, 8.0, 64)
    f1 = bump(grid, center=-1.0, width=0.5)
    f2 = bump(grid, center=1.3, width=0.4, height=0.7)
    both = GridFunction(grid, f1.values + f2.values)
    noise = NoisePath(grid, ScaledTheta(1.0), dt=1e-3, seed=6)
    # lifted off zero the floor never acts, and the linear flow is additive to roundoff
    lifted = [GridFunction(grid, 1.0 + f.values) for f in (f1, f2)]
    lifted.append(GridFunction(grid, lifted[0].values + lifted[1].values))
    lows = []
    inner = spde.apply_spectral_multiplier

    def spy(values, multiplier, shape):
        out = inner(values, multiplier, shape)
        lows.append(float(out.min()))  # before the march floors it
        return out

    monkeypatch.setattr(spde, "apply_spectral_multiplier", spy)
    raw = [solve_pam(f, 0.25, noise).values for f in lifted]
    monkeypatch.setattr(spde, "apply_spectral_multiplier", inner)
    assert len(lows) == 3 * (250 + 1) and min(lows) >= 0.0
    assert np.abs(raw[2] - (raw[0] + raw[1])).max() / raw[2].max() <= 1e-12
    # the positivity floor acts at the heat kernel's truncation-lobe scale,
    # so the production solver is additive only to that scale
    s1 = solve_pam(f1, 0.25, noise).values
    s2 = solve_pam(f2, 0.25, noise).values
    s12 = solve_pam(both, 0.25, noise).values
    assert s12.min() >= 0.0
    assert np.abs(s12 - (s1 + s2)).max() / s12.max() <= 1e-8


def test_overflow_aborts_with_step_index():
    grid = Grid(1, 4.0, 16)
    f = GridFunction.constant(grid, 1.0)
    noise = NoisePath(grid, ScaledTheta(1e8), dt=1e-2, seed=8)
    with np.errstate(over="ignore"):
        with pytest.raises(SchemeOverflowError) as exc:
            solve_pam(f, 1.0, noise, correction=False)
    assert exc.value.step >= 0


def test_total_mass_series_closed_form_and_monotone_mean():
    grid = Grid(1, 4.0, 16)
    f = GridFunction.constant(grid, 2.0)
    noise_off = NoisePath(grid, Constant(0.0), dt=1e-3, seed=12)
    sol = solve_log_laplace(f, 1.0, 1.0, noise_off, save_every=100)
    times, masses = sol.times, sol.values.sum(axis=-1) * grid.cell_volume  # (saves, replicas)
    closed = grid.volume / (times / 2.0 + 0.5)
    assert np.abs(masses[:, 0] - closed).max() < 1e-9
    assert np.all(np.diff(masses[:, 0]) <= 0.0)

    fb = bump(grid, width=0.5)
    start = solve_log_laplace(fb, 0.6, 0.1, NoisePath(grid, Constant(0.0), 1e-3, 1))
    t0_mass = start.values[0, 0].sum() * grid.cell_volume
    assert abs(t0_mass - 0.6 * fb.integral()) < 1e-12

    paths = ensemble_noise(grid, ScaledTheta(1.0), 2e-3, seed=SEED + 2,
                           n_replicas=200, batch_size=50)
    rows = []
    for p in paths:
        sol = solve_log_laplace(f, 1.0, 0.5, p, save_every=50)
        rows.append(sol.values.sum(axis=-1) * grid.cell_volume)
    masses = np.concatenate(rows, axis=1)  # (n_saves, replicas)
    assert masses.min() >= 0.0
    diffs = np.diff(masses, axis=0)
    for step in range(diffs.shape[0]):
        d = diffs[step]
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert d.mean() <= 3 * se


def test_stratonovich_routes_agree_and_lift_mean():
    grid = Grid(1, 4.0, 16)
    f = GridFunction.constant(grid, 1.0)
    kern = ScaledTheta(1.0)
    noise = NoisePath(grid, kern, dt=1e-4, seed=13)
    sol = solve_stratonovich_pam(f, kern, 1.0, noise)
    assert sol.route_gap < 1e-3  # contract tolerance
    assert sol.route_gap < 1e-9  # constant-diagonal degeneracy, see docstring
    assert sol.direct_values.shape == sol.values.shape

    zero = ScaledTheta(0.0)
    fz = bump(grid, width=0.4)
    noise0 = NoisePath(grid, zero, dt=1e-3, seed=14)
    flow = solve_stratonovich_pam(fz, zero, 0.2, noise0)
    target = apply_heat_semigroup(fz, 0.2).values
    assert np.abs(flow.values[-1, 0] - target).max() / target.max() < 1e-8

    with pytest.raises(ValueError):
        solve_stratonovich_pam(f, Constant(1.0), 0.1, noise)
    with pytest.raises(ValueError):
        solve_stratonovich_pam(f, ScaledTheta(2.0), 0.1, noise)

    grid = Grid(1, 8.0, 64)
    fb = bump(grid, width=0.6)
    kern = ScaledTheta(0.6)
    a, T = 0.6, 0.5
    paths = ensemble_noise(grid, kern, 2e-3, seed=SEED + 3,
                           n_replicas=400, batch_size=100)
    final = gather_final(paths, lambda p: solve_stratonovich_pam(fb, kern, T, p))
    target = math.exp(0.5 * a * T) * apply_heat_semigroup(fb, T).values
    for cell in (16, 32, 48):
        sample = final[:, cell]
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - target[cell]) < 3 * se + 1e-12


def test_solution_layout_validation_and_metadata():
    grid = Grid(1, 8.0, 64)
    f = bump(grid)
    noise = NoisePath(grid, ScaledTheta(0.5), dt=1e-2, seed=15, n_replicas=3)
    sol = solve_pam(f, 1.03, noise, save_every=25)
    assert np.allclose(sol.times, [0.0, 0.25, 0.5, 0.75, 1.0, 1.03])
    assert sol.values.shape == (6, 3, 64)
    assert sol.grid == grid and sol.dt == 1e-2 and sol.correction
    assert np.array_equal(sol.values[0, 1], f.values)  # every replica starts at f
    assert sol.values.min() >= 0.0

    with pytest.raises(ValueError):
        solve_pam(GridFunction.constant(grid, -1.0), 0.1, noise)
    with pytest.raises(ValueError):
        solve_pam(f, 0.0, noise)
    with pytest.raises(ValueError):
        solve_pam(f, 0.0155, noise)
    with pytest.raises(ValueError):
        solve_pam(f, 0.1, noise, save_every=0)
    with pytest.raises(ValueError):
        solve_pam(bump(Grid(1, 8.0, 32)), 0.1, noise)
    with pytest.raises(ValueError):
        solve_log_laplace(f, -0.5, 0.1, noise)
    with pytest.raises(ValueError):
        derivative_quotient(f, 0.1, 0.0, 0.1, noise)


def test_log_max_series_renormalizes_and_shifts_exactly():
    grid = Grid(1, 8.0, 32)
    f = GridFunction.constant(grid, 1.0)
    a, T = 400.0, 2.0
    noise = NoisePath(grid, ScaledTheta(a), dt=1e-3, seed=17, n_replicas=4)
    times, direct = pam_log_max_series(f, T, noise, save_every=200, correction=False)
    assert np.isfinite(direct).all()
    assert direct[-1].mean() > direct[len(times) // 2].mean()
    times2, ito = pam_log_max_series(f, T, noise, save_every=200, correction=True)
    shift = 0.5 * a * times.reshape(-1, 1)
    assert np.abs((ito + shift) - direct).max() < 1e-9
    with pytest.raises(ValueError):
        pam_log_max_series(GridFunction.constant(grid, 0.0), T, noise)


FUSION_ROUTES = (Route(), Route(0.7, reaction=True), Route(correction=False))


def step_loop(f, T, noise, routes, save_every):
    """solve_routes by a loop of whole Strang steps, each with both half heat steps.

    Built from the heat primitives alone, with no positivity floor.
    """
    half = heat_multiplier(noise.grid, noise.dt / 2.0)
    shape = noise.grid.shape

    def heat(v):
        return apply_spectral_multiplier(v, half, shape)

    n = int(round(T / noise.dt))
    idx = list(range(0, n + 1, save_every or n))
    states = np.stack([r.scale * np.broadcast_to(f.values, (noise.n_replicas,) + shape)
                       for r in routes])
    saves = [states.copy()]
    for k in range(n):
        dW = noise.increment(k)
        states = heat(states)
        for i, r in enumerate(routes):
            if r.reaction:
                states[i] = states[i] / (1.0 + states[i] * (noise.dt / 2.0))
            drift = 0.5 * noise.diagonal * noise.dt if r.correction else 0.0
            states[i] = states[i] * np.exp(dW - drift)
        states = heat(states)
        if k + 1 in idx:
            saves.append(states.copy())
    return np.stack(saves, axis=1)


FUSION_GRIDS = (("", Grid(1, 8.0, 32)), ("2d-", Grid(2, 4.0, 8)), ("3d-", Grid(3, 4.0, 6)))


@pytest.mark.parametrize("grid, save_every", [
    pytest.param(grid, save_every, id=f"{tag}{save_every}")
    for tag, grid in FUSION_GRIDS for save_every in (None, 1, 7)])
def test_fused_symmetric_march_equals_step_loop(grid, save_every):
    # lifted off zero, so the fused march's floor never acts and the loop needs none
    f = GridFunction(grid, 1.0 + bump(grid, width=0.7).values)
    noise = NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=3)
    # 21 steps: save_every=7 saves the final step
    _, fused = solve_routes(f, 0.21, noise, FUSION_ROUTES, save_every)
    loop = step_loop(f, 0.21, noise, FUSION_ROUTES, save_every)
    assert loop.min() > 0.0
    assert fused.shape == loop.shape
    for i in range(fused.shape[1]):
        gap = np.abs(fused[:, i] - loop[:, i]).max() / np.abs(loop[:, i]).max()
        assert gap <= 1e-12


@pytest.mark.parametrize("grid", [Grid(1, 8.0, 32), Grid(2, 4.0, 8)], ids=["1d", "2d"])
def test_fused_march_takes_one_heat_transform_per_step(monkeypatch, grid):
    f = bump(grid, width=0.7)
    noise = NoisePath(grid, ScaledTheta(1.3), dt=1e-2, seed=21, n_replicas=3)
    calls = []
    inner = spde.apply_spectral_multiplier

    def counted(values, multiplier, shape):
        calls.append(1)
        return inner(values, multiplier, shape)

    monkeypatch.setattr(spde, "apply_spectral_multiplier", counted)
    n = 21
    for save_every, inner_saves in ((None, 0), (7, 2), (1, n - 1)):
        calls.clear()
        solve_routes(f, n * noise.dt, noise, FUSION_ROUTES, save_every)
        # an unfused march of whole steps takes 2 n; a march that bypasses
        # spde.apply_spectral_multiplier records none
        assert len(calls) == n + inner_saves + 1


def test_log_max_renormalizes_and_matches_unrenormalized_march(monkeypatch):
    grid = Grid(1, 8.0, 32)
    f = GridFunction.constant(grid, 1.0)
    noise = NoisePath(grid, ScaledTheta(400.0), dt=1e-3, seed=17, n_replicas=4)
    T, save_every = 4.0, 250
    held = []
    inner = spde.apply_spectral_multiplier

    def spy(values, multiplier, shape):
        held.append(float(values.max()))
        return inner(values, multiplier, shape)

    monkeypatch.setattr(spde, "apply_spectral_multiplier", spy)
    _, rows = pam_log_max_series(f, T, noise, save_every, correction=False)
    monkeypatch.setattr(spde, "apply_spectral_multiplier", inner)
    # the log-max passes the renormalization limit while every heat input stays below it
    assert rows.max() > math.log(spde._RENORM_LIMIT)
    assert max(held) <= spde._RENORM_LIMIT
    with np.errstate(over="ignore", divide="ignore"):
        _, (raw,) = solve_routes(f, T, noise, [Route(correction=False)], save_every)
        direct = np.log(raw.max(axis=-1))
    finite = np.isfinite(direct)
    assert finite.sum() > np.count_nonzero(direct <= math.log(spde._RENORM_LIMIT))
    assert np.abs(rows[finite] - direct[finite]).max() <= 1e-12 * np.abs(direct[finite]).max()
