"""Dual-flow tests.

Zero-field and forced-mark runs pin the flow and jump mechanics exactly
(shared arithmetic with the deterministic solver); seeded ensembles check the
Poisson clock law, the duality gap against the log-Laplace route, and the
weight-normalized third-moment ladder.
"""

import math

import numpy as np
import pytest

from sbmre.covariance import Constant, ScaledTheta
from sbmre.dual import (
    PoissonClock,
    ThirdMomentReport,
    dual_route_samples,
    evolve_dual,
    laplace_via_dual,
    laplace_via_log_laplace,
    march_dual,
    pair_with_measure,
    third_moment_scan,
)
from sbmre import spde
from sbmre.grids import Grid, GridFunction
from sbmre.heatkernel import apply_spectral_multiplier, heat_multiplier
from sbmre.spde import NoisePath, solve_log_laplace

SEED = 20260814


def small_grid(cells=64, extent=8.0):
    return Grid(dim=1, extent=extent, cells=cells)


def bump(grid, center=0.0, width=1.0, height=1.0):
    def f(points):
        r2 = np.sum((points - center) ** 2, axis=-1)
        return height * np.exp(-r2 / (2.0 * width * width))

    return GridFunction.from_callable(grid, f)


def test_poisson_clock_law_and_validation():
    clock = PoissonClock(7.0)
    rng = np.random.default_rng(SEED)
    counts = []
    for _ in range(600):
        arr = clock.arrivals(rng, 2.0)
        assert np.all(np.diff(arr) > 0)
        assert arr.size == 0 or (arr[0] > 0 and arr[-1] <= 2.0)
        counts.append(len(arr))
    counts = np.asarray(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 14.0) < 3 * se
    with pytest.raises(ValueError):
        PoissonClock(0.0)


def test_zero_field_matches_deterministic_flow():
    grid = small_grid()
    k = 2.0
    phi = GridFunction.constant(grid, k)
    state = evolve_dual(phi, 1.0, 16.0, Constant(0.0), SEED, dt=1e-4)
    closed = 1.0 / (1.0 / 2.0 + 1.0 / k)
    assert np.max(np.abs(state.y.values - closed)) < 1e-6
    # same substep arithmetic as the stochastic solver with the noise off
    noise = NoisePath(grid, Constant(0.0), 1e-3, SEED)
    sol = solve_log_laplace(phi, 1.0, 1.0, noise)
    state2 = evolve_dual(phi, 1.0, 16.0, Constant(0.0), SEED, dt=1e-3)
    assert np.array_equal(state2.y.values, sol.values[-1][0])


def test_zero_field_from_a_bump_is_the_log_laplace_march():
    # marks of a zero field are exactly one, so the dual is the fused march itself
    grid = small_grid()
    phi = bump(grid, width=1.2, height=0.8)
    dt, t = 1e-3, 0.5
    state = evolve_dual(phi, t, 16.0, Constant(0.0), SEED, dt=dt)
    assert state.jump_count > 0
    sol = solve_log_laplace(phi, 1.0, t, NoisePath(grid, Constant(0.0), dt, SEED))
    assert np.array_equal(state.y.values, sol.values[-1][0])


def test_march_takes_one_heat_transform_per_step(monkeypatch):
    grid = small_grid()
    phi = bump(grid)
    calls = []
    inner = spde.apply_spectral_multiplier

    def counted(values, multiplier, shape):
        calls.append(1)
        return inner(values, multiplier, shape)

    monkeypatch.setattr(spde, "apply_spectral_multiplier", counted)
    ys, jump_times = march_dual(phi, (0.1, 0.3, 0.5), 40.0, ScaledTheta(1.0), SEED,
                                [(r,) for r in range(3)], dt=1e-3)
    assert sum(len(times) for times in jump_times) > 0
    # 500 steps, 2 saves before the last: an unfused march of whole steps takes
    # 1000, and a march that bypasses spde.apply_spectral_multiplier records none
    assert len(calls) == 500 + 2 + 1


def test_jump_rides_the_pointwise_substep():
    grid = small_grid()
    phi = bump(grid, width=1.2, height=0.8)
    n, t, dt = 16.0, 0.5, 1e-3
    x = grid.points()[:, 0]

    def mark(k):
        return (-1.0) ** k * 0.9 * np.sin(x + k)  # non-uniform, inside +-sqrt(n)

    (y,), (arrivals,) = march_dual(phi, (t,), n, Constant(1.0), SEED, [()], dt,
                                   field_override=mark)
    assert len(arrivals) > 1
    step_of = np.maximum(np.ceil(arrivals / dt - 1e-12).astype(int), 1) - 1
    half, full = heat_multiplier(grid, dt / 2.0), heat_multiplier(grid, dt)

    def heat(v, multiplier):
        return np.maximum(apply_spectral_multiplier(v, multiplier, grid.shape), 0.0)

    steps = int(round(t / dt))
    state = heat(phi.values[np.newaxis], half)
    for k in range(steps):
        state = state / (1.0 + state * (dt / 2.0))
        for j in np.flatnonzero(step_of == k):
            state = state * (1.0 + mark(j) / math.sqrt(n))
        state = heat(state, full if k + 1 < steps else half)
    assert np.array_equal(y, state)


def test_zero_initial_state_is_absorbing():
    grid = small_grid(cells=32)
    phi = GridFunction.constant(grid, 0.0)
    state = evolve_dual(phi, 0.5, 25.0, Constant(1.0), SEED, dt=1e-2)
    assert np.array_equal(state.y.values, np.zeros(grid.shape))
    assert state.jump_count >= 1  # jumps happened, zero stayed zero


def test_forced_jump_doubles_at_snapped_boundary():
    grid = small_grid()
    phi = bump(grid, width=1.2, height=0.8)
    n, t, dt = 4.0, 0.5, 1e-3
    def lone_early_jump(s):
        st = evolve_dual(phi, t, n, Constant(0.0), s, dt=dt)
        return st.jump_count == 1 and st.jump_times[0] < 0.4

    seed = next(s for s in range(100) if lone_early_jump(s))
    big = evolve_dual(phi, t, n, Constant(1.0), seed, dt=dt,
                      field_override=lambda k: 1e9)  # clips to +sqrt(n): doubling
    tau = math.ceil(big.jump_times[0] / dt - 1e-12) * dt
    quiet = NoisePath(grid, Constant(0.0), dt, SEED)
    first = solve_log_laplace(phi, 1.0, tau, quiet)
    doubled = GridFunction(grid, 2.0 * first.values[-1][0])
    second = solve_log_laplace(doubled, 1.0, t - tau, NoisePath(grid, Constant(0.0), dt, SEED))
    assert np.allclose(big.y.values, second.values[-1][0], atol=1e-12)


def test_state_nonnegative_finite_and_replayable():
    grid = small_grid()
    phi = bump(grid)
    a = evolve_dual(phi, 0.5, 40.0, ScaledTheta(1.0), SEED, dt=2e-3, stream=(3,))
    b = evolve_dual(phi, 0.5, 40.0, ScaledTheta(1.0), SEED, dt=2e-3, stream=(3,))
    c = evolve_dual(phi, 0.5, 40.0, ScaledTheta(1.0), SEED, dt=2e-3, stream=(4,))
    assert np.array_equal(a.y.values, b.y.values)
    assert not np.array_equal(a.y.values, c.y.values)
    assert np.min(a.y.values) >= 0.0
    assert np.all(np.isfinite(a.y.values))
    assert a.jump_count == len(a.jump_times)
    with pytest.raises(ValueError):
        evolve_dual(GridFunction(grid, np.full(grid.shape, -0.1)), 0.5, 4.0,
                    Constant(0.0), SEED)
    with pytest.raises(ValueError):
        evolve_dual(phi, 0.5, 0.5, Constant(0.0), SEED)


def test_batched_march_equals_single_replicas():
    streams = [(r,) for r in range(5)] + [(2, 7)]
    for grid in (small_grid(), small_grid(18)):  # 18 cells: a width that is not a multiple of 8
        phi = bump(grid)
        (y,), jump_times = march_dual(phi, (0.5,), 40.0, ScaledTheta(1.0), SEED, streams,
                                      dt=2e-3)
        assert y.shape == (len(streams),) + grid.shape
        assert sum(len(times) for times in jump_times) > 0
        for r, stream in enumerate(streams):
            single = evolve_dual(phi, 0.5, 40.0, ScaledTheta(1.0), SEED, dt=2e-3, stream=stream)
            assert np.array_equal(y[r], single.y.values)
            assert np.array_equal(jump_times[r], single.jump_times)
            assert len(jump_times[r]) == single.jump_count


def test_march_saves_equal_separate_marches():
    grid = small_grid()
    phi = bump(grid)
    streams = [(0, r) for r in range(4)]
    times = (0.3, 0.1, 0.5)
    ys, jump_times = march_dual(phi, times, 40.0, ScaledTheta(1.0), SEED, streams, dt=2e-3)
    for s, y in zip(times, ys):
        (alone,), alone_times = march_dual(phi, (s,), 40.0, ScaledTheta(1.0), SEED, streams,
                                           dt=2e-3)
        assert np.array_equal(y, alone)
        for arrivals, prefix in zip(jump_times, alone_times):
            assert np.array_equal(arrivals[:len(prefix)], prefix)
            assert np.all(arrivals[len(prefix):] > s)
    with pytest.raises(ValueError):
        march_dual(phi, (), 40.0, ScaledTheta(1.0), SEED, streams, dt=2e-3)


def test_jump_pileup_overflows_with_step_index():
    grid = Grid(dim=1, extent=4.0, cells=8)
    phi = GridFunction.constant(grid, 1.0)
    with np.errstate(over="ignore"), pytest.raises(spde.SchemeOverflowError) as exc:
        evolve_dual(phi, 0.01, 1e6, Constant(0.0), SEED, dt=1e-2,
                    field_override=lambda k: 1e9)
    assert exc.value.step == 0


def test_jump_count_mean_matches_rate():
    grid = Grid(dim=1, extent=4.0, cells=16)
    phi = GridFunction.constant(grid, 1.0)
    counts = np.array([
        evolve_dual(phi, 1.0, 12.0, Constant(1.0), SEED, dt=1e-2, stream=(r,)).jump_count
        for r in range(500)
    ], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 12.0) < 3 * se


def test_pair_with_measure_forms():
    grid = small_grid(cells=32)
    y = GridFunction.from_callable(grid, lambda p: 1.0 + 0.1 * p[..., 0])
    assert abs(pair_with_measure(y, 2.0) - 2.0 * grid.cell_volume * y.values.sum()) < 1e-12
    atoms = (np.array([1.0, 3.0]), np.array([[0.0], [1.0]]))
    expect = y.at(np.array([0.0])) + 3.0 * y.at(np.array([1.0]))
    assert abs(pair_with_measure(y, atoms) - expect) < 1e-12


def _gap(phi, mu, t, n, kernel, seed, n_replicas, dt=1e-3):
    """|log-Laplace route - dual route| and the combined SE, on seeds +1 and +2."""
    left, left_se = laplace_via_log_laplace(phi, mu, t, kernel, seed + 1, n_replicas, dt)
    right, right_se = laplace_via_dual(phi, mu, t, n, kernel, seed + 2, n_replicas, dt)
    return abs(left - right), math.hypot(left_se, right_se)


def test_duality_gap_zero_kernel_closed_form():
    grid = small_grid()
    k, t = 1.5, 1.0
    phi = GridFunction.constant(grid, k)
    left, left_se = laplace_via_log_laplace(phi, 1.0, t, Constant(0.0), SEED, 8)
    right, right_se = laplace_via_dual(phi, 1.0, t, 20.0, Constant(0.0), SEED, 8)
    closed = math.exp(-grid.volume / (t / 2.0 + 1.0 / k))
    assert abs(left - closed) < 1e-10 * closed
    assert abs(right - closed) < 1e-10 * closed
    gap, se = _gap(phi, 1.0, t, 20.0, Constant(0.0), SEED, 8)
    assert gap < max(2 * se, 1e-12)

    zero = GridFunction.constant(grid, 0.0)
    gap, se = _gap(zero, 1.0, t, 20.0, Constant(1.0), SEED, 6)
    assert gap == 0.0 and se == 0.0


def test_duality_gap_ladder_shrinks_with_n():
    grid = small_grid()
    phi = bump(grid, width=1.0, height=1.0)
    mu = (np.array([1.0]), np.array([[0.0]]))
    gaps = {}
    for n in (10.0, 160.0):
        gaps[n] = _gap(phi, mu, 0.5, n, Constant(1.0), SEED, 240, dt=2e-3)
    combined = math.hypot(gaps[10.0][1], gaps[160.0][1])
    assert gaps[160.0][0] <= gaps[10.0][0] + 2 * combined


def test_library_routes_invariant_to_worker_count():
    grid = small_grid(cells=32)
    phi = bump(grid)
    mu = (np.array([1.0]), np.array([[0.0]]))
    kernel = ScaledTheta(1.0)
    # 70 replicas: two full batches and a partial one
    left = [laplace_via_log_laplace(phi, mu, 0.1, kernel, SEED, 70, 2e-3, workers=w)
            for w in (1, 2)]
    right = [dual_route_samples(phi, mu, 0.1, 20.0, kernel, SEED, 70, 2e-3, workers=w)
             for w in (1, 2)]
    assert np.array(left[0]).tobytes() == np.array(left[1]).tobytes()
    for a, b in zip(*right):
        assert a.tobytes() == b.tobytes()
    assert laplace_via_dual(phi, mu, 0.1, 20.0, kernel, SEED, 70, 2e-3, workers=2) \
        == laplace_via_dual(phi, mu, 0.1, 20.0, kernel, SEED, 70, 2e-3)


def test_third_moment_scan_closed_forms_and_ladder():
    grid = small_grid(cells=32, extent=8.0)
    zero = GridFunction.constant(grid, 0.0)
    report = third_moment_scan(zero, [0.25], [5.0], Constant(1.0), [[0.0]],
                               rho=2.0, seed=SEED, n_replicas=4, dt=1e-2)
    assert np.array_equal(report.ratios, np.zeros_like(report.ratios))
    assert report.spread() == 0.0

    k, t = 2.0, 0.5
    const = GridFunction.constant(grid, k)
    report = third_moment_scan(const, [t], [8.0], Constant(0.0), [[0.0]],
                               rho=2.0, seed=SEED, n_replicas=3, dt=1e-4)
    closed = (1.0 / (t / 2.0 + 1.0 / k)) ** 3
    assert abs(report.ratios[0, 0, 0] - closed) < 1e-5 * closed

    phi = bump(grid, width=1.0, height=1.0)
    report = third_moment_scan(phi, [0.5], [10.0, 40.0], Constant(1.0),
                               [[0.0], [1.0]], rho=2.0, seed=SEED,
                               n_replicas=60, dt=2e-3)
    assert report.max_ratio.shape == (2,)
    assert report.spread() < 0.5
