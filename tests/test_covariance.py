"""Covariance kernel and Gaussian sampling tests.

Statistical checks use seeded generators; tolerances follow the entrywise
4/sqrt(N) covariance band and standard-error arithmetic.
"""

import math

import numpy as np
import pytest

from sbmre.covariance import (
    Constant,
    GaussianFieldFactor,
    IndefiniteKernelError,
    IndicatorBall,
    ScaledTheta,
    StationaryPower,
    Tabulated,
    gaussian_profile,
    grid_covariance_factor,
    points_covariance_factor,
)
from sbmre.grids import Grid


def test_eval_frozen_values():
    assert Constant(1.0)(np.zeros(3), np.ones(3)) == 1.0
    kern = StationaryPower(eps=0.1, alpha=3.0)
    assert abs(kern(np.zeros(1), np.ones(1)) - 0.05) < 1e-15
    scaled = ScaledTheta(a=4.0)
    x = np.array([0.3, -0.2])
    assert scaled(x, x) == 4.0
    assert abs(scaled(np.zeros(1), np.ones(1)) - 4.0 * math.exp(-1.0)) < 1e-14
    ball = IndicatorBall(radius=1.0, height=2.0)
    assert ball(np.zeros(2), np.array([0.6, 0.8])) == 2.0
    assert ball(np.zeros(2), np.array([0.6, 0.81])) == 0.0


def test_eval_symmetry_bit_identical():
    rng = np.random.default_rng(3)
    kernels = [
        Constant(0.7),
        StationaryPower(0.2, 2.5),
        ScaledTheta(2.0),
        IndicatorBall(1.3, 0.5),
        Tabulated([0.0, 0.5, 2.0], [1.0, 0.4, 0.1]),
    ]
    for kern in kernels:
        for _ in range(50):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            assert kern(x, y) == kern(y, x)
            assert 0.0 <= kern(x, y) <= kern.sup_bound() + 1e-15


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        Constant(1.0)(np.zeros(2), np.zeros(3))


def test_scaled_theta_profile_normalization():
    with pytest.raises(ValueError):
        ScaledTheta(a=1.0, profile=lambda r: 2.0 * np.exp(-np.asarray(r) ** 2))
    assert gaussian_profile(0.0) == 1.0


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "kern.txt"
    path.write_text("0.0 1.0\n1.0 0.5\n2.0 0.0\n")
    kern = Tabulated.from_file(path)
    assert kern(np.zeros(1), np.array([0.5])) == 0.75  # linear interpolation
    assert kern(np.zeros(1), np.array([3.0])) == 0.0  # beyond the table
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0 2.0\n1.0 0.5 0.1\n")
    with pytest.raises(ValueError):
        Tabulated.from_file(bad)


def test_zero_kernel_factor_is_zero():
    grid = Grid(1, 4.0, 8)
    factor = grid_covariance_factor(Constant(0.0), grid)
    rng = np.random.default_rng(0)
    draw = factor.sample(rng, dt=1e-3)
    assert draw.shape == grid.shape
    assert np.all(draw == 0.0)


def test_constant_kernel_rank_one_factor():
    grid = Grid(1, 2.0, 2)
    factor = grid_covariance_factor(Constant(1.0), grid)
    rebuilt = factor.root @ factor.root.T
    assert np.max(np.abs(rebuilt - np.ones((2, 2)))) < 1e-10
    assert factor.jitter == 0.0
    rng = np.random.default_rng(1)
    draw = factor.sample(rng, dt=0.5)
    # perfect correlation: a single value shared across the grid
    assert draw[0] == draw[1]


def test_smooth_kernel_factor_reconstructs():
    grid = Grid(1, 3.0, 3)
    kern = ScaledTheta(a=2.0)
    factor = grid_covariance_factor(kern, grid)
    target = kern.matrix(grid.points())
    rebuilt = factor.root @ factor.root.T
    assert np.max(np.abs(rebuilt - target)) < 1e-10 * kern.sup_bound()
    assert factor.jitter <= 1e-8 * kern.sup_bound()


def test_indicator_kernel_indefinite_on_grid():
    # bandwidth-2 0/1 band matrix has symbol 1 + 2cos, which dips negative
    grid = Grid(1, 8.0, 64)
    with pytest.raises(IndefiniteKernelError) as err:
        grid_covariance_factor(IndicatorBall(radius=0.19, height=1.0), grid)
    assert err.value.min_eigenvalue < -1e-3


def test_duplicated_points_share_field_value():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [1.0, -0.3]])
    factor = points_covariance_factor(ScaledTheta(a=1.0), pts)
    rng = np.random.default_rng(5)
    draw = factor.sample(rng, dt=1.0)
    assert draw[0] == draw[1]
    assert draw[0] != draw[2]


def test_grid_factor_size_guard():
    with pytest.raises(ValueError):
        grid_covariance_factor(ScaledTheta(a=1.0), Grid(2, 8.0, 128))


def test_increment_mean_and_covariance_band():
    # entrywise agreement of the empirical covariance within 4/sqrt(N) * C(x,x) * dt
    grid = Grid(1, 2.0, 5)
    dt = 1e-3
    n = 100_000
    for kern in (ScaledTheta(a=1.5), StationaryPower(0.8, 2.0), Constant(0.6)):
        factor = grid_covariance_factor(kern, grid)
        rng = np.random.default_rng(20260814)
        draws = factor.sample(rng, dt=dt, batch=n)
        mean = draws.mean(axis=0)
        assert np.max(np.abs(mean)) < 4 * math.sqrt(kern.diagonal_value() * dt / n)
        emp = draws.T @ draws / n
        target = kern.matrix(grid.points()) * dt
        band = 4.0 / math.sqrt(n) * kern.diagonal_value() * dt
        assert np.max(np.abs(emp - target)) < band


def test_increments_white_in_time():
    # consecutive draws from one factor are independent: lag-1 correlation ~ 0
    grid = Grid(1, 2.0, 4)
    factor = grid_covariance_factor(ScaledTheta(a=1.0), grid)
    rng = np.random.default_rng(11)
    n = 50_000
    draws = factor.sample(rng, dt=1.0, batch=n)[:, 0]
    lag1 = np.mean(draws[1:] * draws[:-1])
    assert abs(lag1) < 4.0 / math.sqrt(n)


def test_variance_scales_with_dt():
    grid = Grid(1, 2.0, 3)
    kern = ScaledTheta(a=2.0)
    factor = grid_covariance_factor(kern, grid)
    rng = np.random.default_rng(2)
    n = 200_000
    for dt in (1e-3, 1e-2):
        draws = factor.sample(rng, dt=dt, batch=n)
        var = float(np.var(draws[:, 1]))
        assert abs(var - kern.diagonal_value() * dt) < 5 * kern.diagonal_value() * dt / math.sqrt(n)


def test_negative_dt_rejected():
    factor = grid_covariance_factor(Constant(1.0), Grid(1, 2.0, 2))
    with pytest.raises(ValueError):
        factor.sample(np.random.default_rng(0), dt=-1.0)
