"""Covariance kernel and Gaussian sampling tests.

Statistical checks use seeded generators; tolerances follow the entrywise
4/sqrt(N) covariance band and standard-error arithmetic.
"""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf
from scipy.spatial.distance import cdist

from sbmre import covariance
from sbmre.covariance import (
    Constant,
    CovarianceKernel,
    GaussianFieldFactor,
    IndicatorBall,
    KroneckerRoot,
    ScaledTheta,
    StationaryPower,
    grid_covariance_factor,
    points_covariance_factor,
    points_covariance_factors,
)
from sbmre.grids import Grid
from sbmre.particles import BranchingConfig


def _matrix(kern, points) -> np.ndarray:
    """The (m, m) matrix C(p_i, p_j) over the rows of points, formed in the test."""
    return kern(points[:, np.newaxis], points[np.newaxis])


def _formed_factor(kern, points) -> tuple:
    """(root, jitter) of the pivoted Cholesky fed the rows of the formed matrix."""
    matrix = _matrix(kern, points)
    (root,), (jitter,) = covariance._pivoted_cholesky(
        matrix.diagonal()[np.newaxis], lambda _, p: matrix[p],
        covariance.JITTER_SCALE * kern.diagonal_value())
    return root, jitter


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
    ]
    for kern in kernels:
        for _ in range(50):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            assert kern(x, y) == kern(y, x)
            assert 0.0 <= kern(x, y) <= kern.diagonal_value() + 1e-15


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        Constant(1.0)(np.zeros(2), np.zeros(3))


MATRIX_KERNELS = [Constant(0.7), ScaledTheta(1.3, 0.8),
                  StationaryPower(0.4, 1.5), IndicatorBall(1.1, 0.6)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kern", MATRIX_KERNELS, ids=lambda k: type(k).__name__)
def test_matrix_equals_the_envelope_of_cdist(kern, dim):
    # the one distance formula gives scipy's cdist bits, on random and grid points
    scattered = np.random.default_rng(dim).normal(scale=2.0, size=(60, dim))
    cells = Grid(dim, 4.0, {1: 40, 2: 8, 3: 4}[dim]).points()
    for points in (scattered, cells):
        assert np.array_equal(_matrix(kern, points), kern.envelope(cdist(points, points)))


def test_pair_distances_never_hold_the_coordinate_axis():
    # m = 1500 in d = 3: the distance step peaks at two (m, m) arrays, not (m, m, d)
    points = np.random.default_rng(0).normal(size=(1500, 3))
    square = points.shape[0] ** 2 * 8
    tracemalloc.start()
    try:
        covariance._pair_distances(points[:, np.newaxis], points[np.newaxis])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square <= peak < 2 * square + (1 << 20)


def test_scaled_theta_profile_normalization():
    for width in (0.3, 1.0, 8.0):
        assert ScaledTheta(1.0, width).envelope(0.0) == 1.0
        assert ScaledTheta(2.0, width).diagonal_value() == 2.0
    assert ScaledTheta(2.0) == ScaledTheta(2.0, 1.0)
    for a, width in ((-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            ScaledTheta(a, width)


@pytest.mark.parametrize("build", [
    lambda v: ScaledTheta(v), lambda v: ScaledTheta(1.0, v),
    lambda v: StationaryPower(v, 2.0), lambda v: StationaryPower(1.0, v),
    lambda v: Constant(v),
    lambda v: IndicatorBall(v), lambda v: IndicatorBall(1.0, v),
], ids=["theta-a", "theta-width", "power-eps", "power-alpha", "constant",
        "indicator-radius", "indicator-height"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_kernel_parameters_must_be_finite(build, value):
    # a nan slips through every sign check; an inf makes C(0) useless as a scale
    with pytest.raises(ValueError, match=f"must be finite, got {value}"):
        build(value)


def test_positive_definite_is_an_instance_fact():
    # eps / (1 + r^alpha) is the generalised Cauchy covariance exactly when alpha <= 2
    for kern in (ScaledTheta(1.0), Constant(0.5), StationaryPower(1.0, 1.5),
                 StationaryPower(0.3, 2.0)):
        assert kern.positive_definite is True
    for kern in (CovarianceKernel(), StationaryPower(1.0, 2.5), StationaryPower(1.0, 4.0),
                 IndicatorBall(1.0)):
        assert kern.positive_definite is False


def test_gaussian_profiles_of_every_width_have_a_closed_form_moment():
    # riesz_potential_sup reads it and refuses a kernel without one:
    # int_0^inf s a exp(-(s/w)^2) ds = a w^2 / 2
    for kern, moment in ((ScaledTheta(1.0), 0.5), (ScaledTheta(1.0, 2.0), 2.0),
                         (ScaledTheta(3.0, 0.5), 0.375)):
        assert kern.radial_moment() == moment
    with pytest.raises(ValueError, match="CovarianceKernel"):
        CovarianceKernel().radial_moment()


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


def test_constant_kernel_factors_a_grid_beyond_the_dense_limit():
    # the rank-1 root is never dense, so DENSE_LIMIT does not bound the grid
    grid = Grid(3, 16.0, 32)
    assert grid.n_points > covariance.DENSE_LIMIT
    factor = grid_covariance_factor(Constant(0.5), grid)
    assert factor.jitter == 0
    draw = factor.sample(np.random.default_rng(2), dt=0.01, batch=2)
    assert draw.shape == (2,) + grid.shape
    assert np.all(draw == draw[:, :1, :1, :1])


def test_smooth_kernel_factor_reconstructs():
    grid = Grid(1, 3.0, 3)
    kern = ScaledTheta(a=2.0)
    factor = grid_covariance_factor(kern, grid)
    target = _matrix(kern, grid.points())
    rebuilt = factor.root @ factor.root.T
    assert np.max(np.abs(rebuilt - target)) < 1e-10 * kern.diagonal_value()
    assert factor.jitter <= 1e-8 * kern.diagonal_value()


def test_indicator_kernel_indefinite_on_grid():
    # bandwidth-2 0/1 band matrix has symbol 1 + 2cos, which dips negative;
    # the power kernel with alpha > 2 is not positive definite either, and
    # every sampling entry point refuses both by name, whatever the points
    grid = Grid(1, 8.0, 64)
    points = grid.points()
    for kern, min_eig in ((IndicatorBall(radius=0.19, height=1.0), -0.998),
                          (StationaryPower(1.0, 2.5), -0.088),
                          (StationaryPower(1.0, 3.0), -0.268)):
        assert np.linalg.eigvalsh(_matrix(kern, points))[0] == pytest.approx(min_eig, abs=1e-3)
        for sample in (lambda: grid_covariance_factor(kern, grid),
                       lambda: points_covariance_factors(kern, [points[:2], points]),
                       lambda: BranchingConfig(n=4, dim=1, kernel=kern, initial=points,
                                               horizon=1.0)):
            with pytest.raises(ValueError, match=re.escape(f"{kern!r} is not positive definite")):
                sample()
    # a set on which the ball's matrix is PSD, [[1, 1], [1, 1]], is refused all the same
    with pytest.raises(ValueError, match=re.escape("IndicatorBall(radius=1.0, height=1.0)")):
        points_covariance_factor(IndicatorBall(1.0), [[0.0], [0.5]])


def test_the_pivots_alone_miss_an_indefinite_block():
    # the pivoted Cholesky stops at rank 1 here: after the first pivot every
    # remaining diagonal entry is 0, though the trailing block [[0, 1], [1, 0]]
    # has eigenvalue -1; a small diagonal certifies the residual only for a
    # positive definite kernel, which is why a kernel must declare it
    matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    pivots = []  # the column callback sees every step's pivots
    (root,), (jitter,) = covariance._pivoted_cholesky(
        matrix.diagonal()[np.newaxis], lambda live, p: pivots.extend(p.tolist()) or matrix[p],
        1e-10)
    assert root.shape == (3, 1) and pivots == [0] and jitter == 0.0
    assert np.abs(matrix - root @ root.T).max() == 1.0
    assert np.linalg.eigvalsh(matrix)[0] == pytest.approx(-1.0)


def test_smooth_kernel_factor_keeps_only_the_numerical_rank():
    # a width-8 Gaussian on 64 cells of spacing 1/8 has about 8 eigenvalues
    # above the cut; the root keeps those columns and still rebuilds C
    grid = Grid(1, 8.0, 64)
    kern = ScaledTheta(2.0, 8.0)
    factor = grid_covariance_factor(kern, grid)
    assert factor.root.shape[0] == 64 and factor.root.shape[1] <= 10
    rebuilt = factor.root @ factor.root.T
    assert np.max(np.abs(rebuilt - _matrix(kern, grid.points()))) < 1e-10 * kern.diagonal_value()
    assert 0.0 < factor.jitter <= covariance.JITTER_SCALE * kern.diagonal_value()


@pytest.mark.parametrize("dim, m, spread", [(1, 800, 4.0), (2, 400, 1.5), (3, 800, 0.6)])
def test_pivoted_cholesky_agrees_with_lapack(dim, m, spread):
    # the same greedy rule and stop as LAPACK's dpstrf, on Gaussian site sets
    kern = ScaledTheta(1.0)
    points = np.random.default_rng(dim).normal(scale=spread, size=(m, dim))
    matrix = _matrix(kern, points)
    tol = covariance.JITTER_SCALE * kern.diagonal_value()
    pivots = []  # the column callback sees every step's pivots

    def column(live, p):
        pivots.extend(p.tolist())
        return kern.envelope(covariance._pair_distances(points, points[p, np.newaxis]))

    (root,), _ = covariance._pivoted_cholesky(np.full((1, m), kern.diagonal_value()), column, tol)
    _, piv, rank, _ = dpstrf(matrix, lower=1, tol=tol)
    assert 1 < rank < m
    assert root.shape == (m, rank)
    assert sorted(pivots) == sorted(piv[:rank] - 1)
    assert np.max(np.abs(root @ root.T - matrix)) <= 2.0 * tol


@pytest.mark.parametrize("kern, make", [
    (ScaledTheta(1.0), lambda k: points_covariance_factor(
        k, np.random.default_rng(3).uniform(-3.0, 3.0, (400, 2)))),
    (ScaledTheta(1.0, 2.0), lambda k: grid_covariance_factor(k, Grid(3, 8.0, 32))),
], ids=["sites-2d", "grid-axis-3d"])
def test_positive_definite_factor_evaluates_only_pivot_columns(kern, make, monkeypatch):
    # m r + 1 kernel values (C(0) and the r pivot columns), never the m^2 of the matrix
    counted = []
    envelope = ScaledTheta.envelope

    def spy(self, r):
        counted.append(np.size(r))
        return envelope(self, r)

    monkeypatch.setattr(ScaledTheta, "envelope", spy)
    root = make(kern).root
    m, rank = getattr(root, "axis_root", root).shape
    assert rank < m - 1
    assert sum(counted) <= m * (rank + 1)


def _factor_and_peak(kern, points) -> tuple:
    """(factor, peak traced bytes) of points_covariance_factor(kern, points)."""
    tracemalloc.start()
    try:
        factor = points_covariance_factor(kern, points)
        return factor, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_positive_definite_site_factor_never_holds_the_matrix():
    # a smooth kernel's root has few columns, so its factor stays below one
    # m x m matrix
    m = 3000
    factor, peak = _factor_and_peak(
        ScaledTheta(1.0), np.random.default_rng(7).normal(scale=0.3, size=(m, 3)))
    assert factor.root.shape[1] < m // 4
    assert peak < m * m * 8
    # the alpha = 1.5 power kernel's root is full rank, so its factor holds
    # that root and the buffer it was written in, but no formed matrix besides
    m = 600
    factor, peak = _factor_and_peak(
        StationaryPower(1.0, 1.5), np.random.default_rng(7).normal(scale=0.3, size=(m, 1)))
    assert factor.root.shape == (m, m)
    assert peak < 2.5 * m * m * 8


def _ragged_sets(dim, rng):
    """Site sets of 1 to 400 points: lone points, duplicated points and clouds."""
    sets = [rng.normal(size=(1, dim)), np.repeat(rng.normal(size=(1, dim)), 3, axis=0)]
    sets += [rng.normal(scale=rng.uniform(0.3, 2.0), size=(m, dim))
             for m in (2, 3, 7, 16, 33, 60, 61, 120, 250, 400)]
    cloud = rng.normal(size=(30, dim))
    sets.append(cloud[rng.integers(0, 30, 90)])  # duplicates, in no order
    return sets


@pytest.mark.parametrize("kern", [ScaledTheta(1.0, 0.3), ScaledTheta(2.0, 3.0),
                                  ScaledTheta(0.0), Constant(0.7)],
                         ids=["narrow", "wide", "rank-0", "constant"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_batch_factors_each_set_as_alone(kern, dim):
    # every set gets the bits of its factor alone, in two batches that pad it
    # to other widths and place it among other sets
    rng = np.random.default_rng(dim)
    sets = _ragged_sets(dim, rng)
    alone = [points_covariance_factor(kern, points) for points in sets]
    others = rng.permutation(len(sets))[3:]
    batches = ((range(len(sets)), sets),
               (others, [sets[i] for i in others]
                + [rng.normal(size=(m, dim)) for m in (5, 64, 300)]))
    for members, batch in batches:
        factors = dict(points_covariance_factors(kern, batch))
        assert sorted(factors) == list(range(len(batch)))
        for j, i in enumerate(members):
            assert np.array_equal(factors[j].root, alone[i].root)
            assert factors[j].jitter == alone[i].jitter
            assert np.array_equal(factors[j].index_map, alone[i].index_map)
    if isinstance(kern, ScaledTheta):  # the batch was factored in shared pivot loops
        sizes = sorted(len(np.unique(points, axis=0)) for points in sets)
        assert max(g.stop - g.start for g in covariance._size_groups(sizes)) >= 4
        assert all(f.root.any() == (kern.a > 0) for f in alone)  # rank 0: one zero column


def _criterion_08_batch():
    """1000 site sets of 1-d clouds, sized like criterion 08's epochs (median
    about 90 sites, one of 1412)."""
    rng = np.random.default_rng(8)
    sizes = np.minimum(np.exp(rng.normal(math.log(90), 1.0, 1000)).astype(int) + 1, 1412)
    sizes[0] = 1412
    return [rng.normal(size=(m, 1)) for m in sizes]


def test_size_groups_bound_the_kernel_values(monkeypatch):
    # padding at most doubles a group's cells, so the pivot columns of the
    # whole batch evaluate at most about twice the m_b (r_b + 1) values of
    # the sets factored alone
    sets = _criterion_08_batch()
    counted = []
    envelope = ScaledTheta.envelope

    def spy(self, r):
        counted.append(np.size(r))
        return envelope(self, r)

    monkeypatch.setattr(ScaledTheta, "envelope", spy)
    ranks = {i: f.root.shape[1] for i, f in points_covariance_factors(ScaledTheta(1.0), sets)}
    alone = sum(len(points) * (ranks[i] + 1) for i, points in enumerate(sets))
    assert sum(counted) <= 2 * alone


def _traced_peak(sets, kernel=ScaledTheta(1.0)) -> int:
    """Peak traced bytes while every factor of the batch is drawn from as it comes."""
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        for _, factor in points_covariance_factors(kernel, sets):
            factor.sample(rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_size_groups_hold_one_group_at_a_time():
    # a criterion-08-shaped batch peaks near its largest group factored
    # alone, far below one unpadded buffer of 32 root rows over the whole
    # batch, 1000 x 32 x 1412 doubles (361 MB)
    sets = _criterion_08_batch()
    order = np.argsort([len(points) for points in sets], kind="stable")
    groups = list(covariance._size_groups(sorted(len(points) for points in sets)))
    assert len(groups) > 3
    largest = max(_traced_peak([sets[i] for i in order[g]]) for g in groups)
    assert _traced_peak(sets) < 1.5 * largest
    assert largest < 8 * len(sets) * 32 * 1412 / 20


def test_a_formed_matrix_is_factored_as_its_set_is_drawn():
    # 16 sets of 400 points share one size group; the alpha = 1.5 power
    # kernel's roots are full rank, each the size of its formed 400 x 400
    # matrix, so the group is factored again in chunks and the batch peaks
    # near 5 matrices, not near the 32 of holding the group's roots at once
    rng = np.random.default_rng(7)
    sets = [rng.uniform(-4.0, 4.0, size=(400, 1)) for _ in range(16)]
    assert len(covariance._size_groups([400] * 16)) == 1
    assert _traced_peak(sets, StationaryPower(1.0, 1.5)) < 8 * 400 * 400 * 8


def test_a_group_factored_again_in_chunks_keeps_each_set_as_alone(monkeypatch):
    # six full-rank sets of 300 would outgrow the root budget, so the group
    # stops at 64 columns and is factored again two sets at a time
    kern = StationaryPower(1.0, 1.5)
    rng = np.random.default_rng(3)
    sets = [rng.uniform(-4.0, 4.0, size=(300, 1)) for _ in range(6)]
    alone = [points_covariance_factor(kern, points) for points in sets]
    batches = []
    pivoted = covariance._pivoted_cholesky

    def spy(diagonal, column, tol):
        steps = []
        out = pivoted(diagonal, lambda live, p: steps.append(p) or column(live, p), tol)
        batches.append((len(diagonal), len(steps), out is None))
        return out

    monkeypatch.setattr(covariance, "_pivoted_cholesky", spy)
    factors = dict(points_covariance_factors(kern, sets))
    assert batches == [(6, 64, True), (2, 300, False), (2, 300, False), (2, 300, False)]
    for i, factor in factors.items():
        assert np.array_equal(factor.root, alone[i].root)
        assert factor.jitter == alone[i].jitter
        assert np.array_equal(factor.index_map, alone[i].index_map)


def test_duplicated_points_share_field_value():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [1.0, -0.3]])
    factor = points_covariance_factor(ScaledTheta(a=1.0), pts)
    rng = np.random.default_rng(5)
    draw = factor.sample(rng, dt=1.0)
    assert draw[0] == draw[1]
    assert draw[0] != draw[2]


@pytest.mark.parametrize("factor", [
    grid_covariance_factor(ScaledTheta(1.3), Grid(1, 4.0, 16)),
    grid_covariance_factor(ScaledTheta(0.8, 0.7), Grid(2, 4.0, 8)),
    grid_covariance_factor(StationaryPower(0.5, 2.0), Grid(2, 4.0, 6)),
    grid_covariance_factor(Constant(2.0), Grid(1, 4.0, 16)),
    points_covariance_factor(ScaledTheta(1.0), [[0.1, 0.2], [0.1, 0.2], [1.0, -0.3]]),
    points_covariance_factor(ScaledTheta(1.0), [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
], ids=["grid-1d", "kronecker-2d", "dense-2d", "constant", "dedup", "dedup-unsorted"])
def test_sample_scatters_through_the_index_map(factor):
    # reference: the full gather of the fields, values[..., index_map], of every
    # draw; a factor without a map (grids, the Constant root) has one value per root row
    rank = factor.root.shape[1]
    for batch in (None, 5):
        lead = () if batch is None else (batch,)
        z = np.random.default_rng(11).standard_normal(lead + (rank,))
        ref = math.sqrt(0.3) * factor.fields(z)
        if factor.index_map is not None:
            ref = ref[..., factor.index_map]
        draw = factor.sample(np.random.default_rng(11), dt=0.3, batch=batch)
        assert np.array_equal(draw, ref.reshape(lead + factor.out_shape))


PREFIX_CASES = {
    "dense-1d": grid_covariance_factor(ScaledTheta(1.3), Grid(1, 8.0, 32)),
    "dense-2d": grid_covariance_factor(StationaryPower(0.5, 2.0), Grid(2, 4.0, 6)),
    "kronecker-2d": grid_covariance_factor(ScaledTheta(0.8, 0.7), Grid(2, 4.0, 8)),
    "kronecker-3d": grid_covariance_factor(ScaledTheta(1.0), Grid(3, 8.0, 16)),
    "dedup-scatter": points_covariance_factor(
        ScaledTheta(1.0), [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.5]]),
}


@pytest.mark.parametrize("factor", PREFIX_CASES.values(), ids=PREFIX_CASES.keys())
@pytest.mark.parametrize("widths", [(3, 5), (8, 1, 4)], ids=["3+5", "8+1+4"])
def test_consecutive_draws_equal_one_wide_draw(factor, widths):
    # one row of normals per field: k fields are the first k of a longer draw
    rng = np.random.default_rng(5)
    parts = [factor.sample(rng, dt=0.7, batch=w) for w in widths]
    wide = factor.sample(np.random.default_rng(5), dt=0.7, batch=sum(widths))
    assert np.array_equal(np.concatenate(parts), wide)


@pytest.mark.parametrize("factor", [
    points_covariance_factor(StationaryPower(1.0, 1.5), np.linspace(-4.0, 4.0, 100)[:, None]),
    grid_covariance_factor(ScaledTheta(1.0, 0.3), Grid(2, 8.0, 20)),
], ids=["dense-100", "kronecker-2d-20"])
def test_a_field_keeps_its_bits_in_any_row_count_off_a_multiple_of_8(factor):
    # m = 100 and n = 20 leave a remainder mod 8, whose columns OpenBLAS
    # computes by the row count unless the root is padded
    assert getattr(factor.root, "axis_root", factor.root).shape[0] % 8
    z = np.random.default_rng(2).standard_normal((700, factor.root.shape[1]))
    wide = factor.fields(z)
    for rows in (1, 2, 3, 64):
        assert np.array_equal(factor.fields(z[:rows]), wide[:rows])


@pytest.mark.parametrize("profile", [ScaledTheta(1.0, w) for w in (1.0, 0.3, 4.0)])
def test_gaussian_sup_bound_equals_the_probe(profile):
    # C(0), which scales the jitter budget, is the kernel's supremum
    probe = np.linspace(0.0, 16.0, 4097)
    for a in (0.0, 0.7, 3.0, 16):
        kern = ScaledTheta(a, profile.width)
        assert kern.diagonal_value() == a * float(np.max(np.abs(profile.envelope(probe))))


def test_grid_factor_size_guard():
    # the cell cap guards the dense path: a kernel that does not factor over axes
    with pytest.raises(ValueError, match="16384 grid cells"):
        grid_covariance_factor(StationaryPower(0.8, 2.0), Grid(2, 8.0, 128))


def test_separable_kernel_lifts_grid_cap():
    grid = Grid(2, 8.0, 128)
    factor = grid_covariance_factor(ScaledTheta(a=1.0), grid)
    assert isinstance(factor.root, KroneckerRoot)
    r = factor.root.axis_root.shape[1]  # the axis matrix's numerical rank
    assert r < 128
    assert factor.root.shape == (128**2, r**2)
    draw = factor.sample(np.random.default_rng(4), dt=1e-3, batch=3)
    assert draw.shape == (3, 128, 128)
    assert np.all(np.isfinite(draw))


def test_points_factor_size_guard(monkeypatch):
    monkeypatch.setattr(covariance, "DENSE_LIMIT", 4)
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match="5 distinct points"):
        points_covariance_factor(ScaledTheta(a=1.0), pts)
    # the limit counts distinct points; the rank-1 Constant root is never dense
    assert points_covariance_factor(ScaledTheta(a=1.0),
                                    np.repeat(pts[:4], 3, axis=0)).out_shape == (12,)
    assert points_covariance_factor(Constant(1.0), pts).out_shape == (5,)
    with pytest.raises(ValueError, match="grid cells"):
        grid_covariance_factor(StationaryPower(0.8, 2.0), Grid(1, 2.0, 6))


def test_points_factor_dedup_matches_numpy_unique():
    # the 1-d dedup gives np.unique(axis=0)'s rows and inverse, so the same root
    kernel = ScaledTheta(1.0)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 1))[rng.integers(0, 40, 150)]  # duplicates, in no order
    for sample in (pts, pts[:1]):
        factor = points_covariance_factor(kernel, sample)
        ref_rows, ref_inverse = np.unique(sample, axis=0, return_inverse=True)
        ref_root, _ = _formed_factor(kernel, ref_rows)
        assert np.array_equal(factor.index_map, ref_inverse.reshape(-1))
        assert np.array_equal(factor.root, ref_root)


def test_axis_kernels():
    assert StationaryPower(0.8, 2.0).axis_kernel(2) is None
    assert Constant(1.0).axis_kernel(3) is None
    assert ScaledTheta(8.0).axis_kernel(3) == ScaledTheta(2.0)
    assert ScaledTheta(4.0, 0.5).axis_kernel(2) == ScaledTheta(2.0, 0.5)


SEPARABLE_CASES = [
    (ScaledTheta(a=2.0), Grid(2, 3.0, 6)),
    (ScaledTheta(a=1.5, width=0.7), Grid(2, 4.0, 8)),
    (ScaledTheta(a=2.0), Grid(3, 2.0, 4)),
    (ScaledTheta(a=0.5, width=1.3), Grid(3, 4.0, 6)),
]


def _axis_factor(kern, grid):
    """The d = 1 factor of the axis kernel over one grid axis."""
    return points_covariance_factor(kern.axis_kernel(grid.dim), grid.axis()[:, np.newaxis])


@pytest.mark.parametrize("kern, grid", SEPARABLE_CASES)
def test_separable_factor_rebuilds_dense_matrix(kern, grid):
    factor = grid_covariance_factor(kern, grid)
    axis = _axis_factor(kern, grid)
    r = axis.root.shape[1]
    assert isinstance(factor.root, KroneckerRoot)
    assert factor.root.shape == (grid.n_points, r**grid.dim)
    c = kern.axis_kernel(grid.dim).diagonal_value()
    assert factor.jitter == c**grid.dim - (c - axis.jitter) ** grid.dim
    dense = functools.reduce(np.kron, [factor.root.axis_root] * grid.dim)
    target = _matrix(kern, grid.points())
    assert np.max(np.abs(dense @ dense.T - target)) < 1e-10 * kern.diagonal_value()


@pytest.mark.parametrize("kern, grid", [SEPARABLE_CASES[1], SEPARABLE_CASES[2]])
def test_separable_root_applies_the_dense_cholesky(kern, grid):
    # the axis root is the dense pivoted Cholesky of the axis matrix, and the
    # axis contractions apply its formed Kronecker power: same normals, same field
    factor = grid_covariance_factor(kern, grid)
    axis_root = _axis_factor(kern, grid).root
    assert np.array_equal(factor.root.axis_root, axis_root)
    dense = functools.reduce(np.kron, [axis_root] * grid.dim)
    z = np.random.default_rng(8).standard_normal((7, dense.shape[1]))
    assert np.max(np.abs(factor.root.apply(z) - z @ dense.T)) < 1e-12


def test_separable_jitter_is_the_diagonal_change():
    # a wide profile on a fine axis is numerically singular: the axis root is
    # cut below full rank, and the factor reports the largest diagonal entry
    # of C - root root^T, c^3 - (c - e)^3 with e the axis one
    kern = ScaledTheta(a=8.0, width=4.0)
    grid = Grid(3, 4.0, 16)
    factor = grid_covariance_factor(kern, grid)
    axis = _axis_factor(kern, grid)
    assert axis.root.shape[1] < 16
    assert 0.0 < axis.jitter <= covariance.JITTER_SCALE * kern.axis_kernel(3).diagonal_value()
    assert factor.jitter == pytest.approx(8.0 - (2.0 - axis.jitter) ** 3, rel=1e-12)
    assert 0.0 < factor.jitter <= 1e-8 * kern.diagonal_value()
    axis_diag = np.sum(factor.root.axis_root**2, axis=1)
    deficit = kern.diagonal_value() - np.min(axis_diag) ** 3
    assert deficit == pytest.approx(factor.jitter, rel=1e-3)


@pytest.mark.parametrize("kern, grid", [
    (ScaledTheta(a=0.8), Grid(1, 8.0, 16)),  # full rank
    (ScaledTheta(a=1.7, width=0.6), Grid(1, 8.0, 64)),  # cut below full rank
])
def test_one_dimensional_factor_is_the_dense_cholesky(kern, grid):
    factor = grid_covariance_factor(kern, grid)
    assert type(factor.root) is np.ndarray
    dense = points_covariance_factor(kern, grid.points())
    assert np.array_equal(factor.root, dense.root)
    assert factor.jitter == dense.jitter
    matrix = _matrix(kern, grid.points())
    root, jitter = _formed_factor(kern, grid.points())
    assert np.array_equal(factor.root, root) and factor.jitter == jitter
    assert (jitter == 0.0) == (root.shape[1] == grid.n_points)
    assert np.max(np.abs(root @ root.T - matrix)) < 1e-10 * kern.diagonal_value()


def test_increment_mean_and_covariance_band():
    # entrywise agreement of the empirical covariance within 4/sqrt(N) * C(x,x) * dt
    dt = 1e-3
    n = 100_000
    for kern, grid in ((ScaledTheta(a=1.5), Grid(1, 2.0, 5)),
                       (StationaryPower(0.8, 2.0), Grid(1, 2.0, 5)),
                       (Constant(0.6), Grid(1, 2.0, 5)),
                       (ScaledTheta(a=1.5, width=0.8), Grid(2, 2.0, 4)),
                       (ScaledTheta(2.0, 8.0), Grid(1, 8.0, 64))):
        factor = grid_covariance_factor(kern, grid)
        rng = np.random.default_rng(20260814)
        draws = factor.sample(rng, dt=dt, batch=n).reshape(n, grid.n_points)
        mean = draws.mean(axis=0)
        assert np.max(np.abs(mean)) < 4 * math.sqrt(kern.diagonal_value() * dt / n)
        emp = draws.T @ draws / n
        target = _matrix(kern, grid.points()) * dt
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
