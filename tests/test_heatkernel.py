"""Heat-flow toolkit tests.

Expected values are frozen from independent oracles: symbolic Gamma-function
simplification (sympy) for the dimension constants and Green normalizations,
brute-force 3-d lattice sums for the radial potentials, and direct quadrature
for kernel normalization and the time-integral representation of the Green
function.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from sbmre.covariance import (
    Constant,
    CovarianceKernel,
    EnvelopeTraits,
    IndicatorBall,
    ScaledTheta,
    StationaryPower,
)
from sbmre.grids import Grid, GridFunction, PolynomialWeight
from sbmre.heatkernel import (
    QuadratureError,
    apply_heat_semigroup,
    apply_spectral_multiplier,
    bridge_potential,
    classify_regime,
    green_function,
    green_potential_sup,
    heat_at_points,
    heat_kernel,
    heat_multiplier,
    khasminskii_bound,
    persistence_threshold,
    riesz_potential,
    riesz_potential_sup,
    surface_area,
    weight_domination_constant,
)

# frozen oracle values (mpmath/sympy, 30 digits, rounded to double)
HEAT_D1_T1_X0 = 0.3989422804014327  # (2 pi)^(-1/2)
HEAT_D3_T2_X0 = 0.02244839026564582  # (4 pi)^(-3/2)
GREEN_D3_R1 = 0.07957747154594767  # 1/(4 pi)
GREEN_D3_R2 = 0.039788735772973836  # 1/(8 pi)
GREEN_D4_R1 = 0.025330295910584444  # 1/(4 pi^2)
THRESHOLD = {3: 1.0471975511965976, 4: 2.4674011002723395, 5: 2.9608813203268074}
UNIT_BALL_THETA_D3 = 6.283185307179586  # 2 pi
POWER_THETA = {0.1: 1.519525002070415, 0.05: 0.7597625010352075}


def lattice_theta_oracle(envelope, x, half_width=14.0, spacing=0.07):
    """Brute-force 3-d lattice sum of |x-y|^(-1) g(|y|) with a spherical patch.

    Accumulates slab by slab along the first axis so memory stays flat on
    fine lattices.
    """
    axis = np.arange(-half_width + spacing / 2, half_width, spacing)
    y1, y2 = np.meshgrid(axis, axis, indexing="ij")
    x = np.asarray(x, float)
    r0 = 1.5 * spacing
    body = 0.0
    for y0 in axis:
        rad = np.sqrt(y0**2 + y1**2 + y2**2)
        g = envelope(rad)
        d = np.sqrt((y0 - x[0]) ** 2 + (y1 - x[1]) ** 2 + (y2 - x[2]) ** 2)
        keep = (d > r0) & (g != 0)
        body += float(np.sum(g[keep] / d[keep]))
    gx = float(envelope(np.linalg.norm(x, keepdims=True))[0])
    return body * spacing**3 + gx * 4.0 * math.pi * r0**2 / 2.0


@dataclass(frozen=True)
class _TruncatedPower(CovarianceKernel):
    """Compactly supported power envelope; makes the lattice sum feasible."""

    eps: float
    alpha: float
    cutoff: float

    def envelope(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.cutoff, self.eps / (1.0 + r**self.alpha), 0.0)

    def sup_bound(self) -> float:
        return self.eps

    def envelope_traits(self) -> EnvelopeTraits:
        return EnvelopeTraits(
            divergent_potential=False, nonincreasing=True, support_radius=self.cutoff
        )


def test_threshold_matches_symbolic_simplification():
    d = sp.symbols("d")
    expr = 8 * (d - 2) * sp.pi ** (d / 2) / (d * 2**d * sp.gamma(d / 2 - 1))
    closed = {3: sp.pi / 3, 4: sp.pi**2 / 4, 5: 3 * sp.pi**2 / 10}
    for dim in (3, 4, 5):
        assert sp.simplify(expr.subs(d, dim) - closed[dim]) == 0
        assert abs(persistence_threshold(dim) - float(closed[dim])) < 1e-12
        assert abs(persistence_threshold(dim) - THRESHOLD[dim]) < 1e-12


def test_threshold_rejects_low_dimension():
    for dim in (1, 2):
        with pytest.raises(ValueError):
            persistence_threshold(dim)


def test_heat_kernel_frozen_values():
    assert abs(heat_kernel(1.0, 0.0, 1) - HEAT_D1_T1_X0) < 1e-9
    assert abs(heat_kernel(2.0, np.zeros(3), 3) - HEAT_D3_T2_X0) < 1e-9
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        heat_kernel(-1.0, 0.0, 1)


def test_heat_kernel_normalization():
    for t in (0.25, 1.0, 3.0):
        val, _ = quad(lambda x: heat_kernel(t, x, 1), -40, 40)
        assert abs(val - 1.0) < 1e-6
    # d = 3 radial normalization: int_0^inf p(t, r) 4 pi r^2 dr = 1
    val, _ = quad(lambda r: heat_kernel(2.0, r, 3) * 4 * math.pi * r**2, 0, 50)
    assert abs(val - 1.0) < 1e-6


def test_green_frozen_values_and_time_integral():
    assert abs(green_function([0.0] * 3, [1.0, 0, 0], 3) - GREEN_D3_R1) < 1e-12
    assert abs(green_function([0.0] * 3, [2.0, 0, 0], 3) - GREEN_D3_R2) < 1e-12
    assert abs(green_function([0.0] * 4, [1.0, 0, 0, 0], 4) - GREEN_D4_R1) < 1e-12
    # G(x, y) = int_0^inf p(2t, x - y) dt.  The head is integrated directly;
    # the algebraic tail under t -> 1/u, where it becomes a tame Gamma-type
    # integrand.  T is grown until the tail bound
    # (4 pi)^(-d/2) T^(1-d/2)/(d/2-1) drops below 1e-4 of the target.
    for dim, r in ((3, 1.0), (4, 1.5), (5, 0.8)):
        target = green_function(np.zeros(dim), np.r_[r, np.zeros(dim - 1)], dim)

        def partial(T, dim=dim, r=r):
            peak = r * r / (2 * dim)
            head, _ = quad(
                lambda t: heat_kernel(2 * t, r, dim), 0, 10, points=[peak, 10 * peak]
            )
            tail, _ = quad(
                lambda u: heat_kernel(2.0 / u, r, dim) / u**2, 1.0 / T, 0.1, limit=200
            )
            return head + tail

        T = 100.0
        while (4 * math.pi) ** (-dim / 2) * T ** (1 - dim / 2) / (dim / 2 - 1) > 1e-4 * target:
            T *= 4
        coarse, fine = partial(T / 16), partial(T)
        assert coarse <= fine + 1e-12  # monotone in the truncation horizon
        assert abs(fine - target) / target < 1e-3
    with pytest.raises(ValueError):
        green_function([0.0, 0.0], [1.0, 0.0], 2)
    with pytest.raises(ValueError):
        green_function([1.0, 0, 0], [1.0, 0, 0], 3)


def test_semigroup_identity_and_composition():
    grid = Grid(1, 8.0, 256)
    rng = np.random.default_rng(7)
    f = GridFunction(grid, np.exp(-grid.axis() ** 2) + 0.1 * rng.random(256))
    p0 = apply_heat_semigroup(f, 0.0)
    assert np.array_equal(p0.values, f.values)
    ab = apply_heat_semigroup(apply_heat_semigroup(f, 0.3), 0.5)
    once = apply_heat_semigroup(f, 0.8)
    assert np.max(np.abs(ab.values - once.values)) < 1e-10
    with pytest.raises(ValueError):
        apply_heat_semigroup(f, -0.1)


@pytest.mark.parametrize("shape", [(1, 129), (32, 256), (5, 32, 512), (3, 200)])
def test_one_dimensional_spectral_step_is_the_nd_transform(shape):
    # above the contraction cutoff a 1-d grid keeps the rfft pair, bit for bit
    grid = Grid(1, 8.0, shape[-1])
    mult = heat_multiplier(grid, 5e-4)
    assert mult.shape == (shape[-1] // 2 + 1,)
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    spec = np.fft.rfftn(values, axes=(-1,))
    spec *= mult
    reference = np.fft.irfftn(spec, s=grid.shape, axes=(-1,))
    assert np.array_equal(apply_spectral_multiplier(values, mult, grid.shape), reference)


def rfftn_heat_reference(values, grid, t):
    """The d-dimensional heat step as one rfftn/irfftn pair over the grid axes."""
    full = 2.0 * np.pi * np.fft.fftfreq(grid.cells, d=grid.spacing)
    half = 2.0 * np.pi * np.fft.rfftfreq(grid.cells, d=grid.spacing)
    sq = np.zeros((grid.cells,) * (grid.dim - 1) + (len(half),))
    for ax, w in enumerate([full] * (grid.dim - 1) + [half]):
        shape = [1] * grid.dim
        shape[ax] = len(w)
        sq = sq + (w * w).reshape(shape)
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    spec = np.fft.rfftn(values, axes=axes)
    spec *= np.exp(-0.5 * t * sq)
    return np.fft.irfftn(spec, s=grid.shape, axes=axes)


def test_long_one_dimensional_grid_gets_the_symbol_not_a_matrix():
    # a matrix would cost O(n^2) memory: 800 MB at 10 000 cells
    mult = heat_multiplier(Grid(1, 8.0, 4096), 0.01)
    assert mult.shape == (2049,)


@pytest.mark.parametrize(
    "grid",
    [Grid(1, 8.0, 64), Grid(1, 8.0, 32), Grid(1, 2.0, 7), Grid(1, 16.0, 128), Grid(2, 4.0, 8),
     Grid(2, 4.0, 7), Grid(3, 4.0, 6), Grid(3, 8.0, 16)],
    ids=["1d-64", "1d-32", "1d-7", "1d-128", "2d-8", "2d-7", "3d-6", "3d-16"])
def test_axis_contractions_are_the_nd_transform(grid):
    rng = np.random.default_rng(grid.cells)
    values = rng.standard_normal((33,) + grid.shape) + 0.5
    for t in (1e-3, 0.1, 1.0):
        mult = heat_multiplier(grid, t)
        assert mult.shape == (grid.cells, grid.cells)
        assert np.array_equal(mult, mult.T)
        out = apply_spectral_multiplier(values, mult, grid.shape)
        reference = rfftn_heat_reference(values, grid, t)
        assert np.abs(out - reference).max() <= 1e-13 * np.abs(values).max()
        # a field's bits do not depend on the fields stacked with it
        one_by_one = np.stack([apply_spectral_multiplier(v, mult, grid.shape) for v in values])
        for batch in (1, 2, 5, 33):
            assert np.array_equal(
                apply_spectral_multiplier(values[:batch], mult, grid.shape), one_by_one[:batch])
        for level in (1.0, 0.5, 3.0, 0.7):
            flat = np.full((3,) + grid.shape, level)
            assert np.array_equal(apply_spectral_multiplier(flat, mult, grid.shape), flat)


def test_semigroup_mass_and_positivity():
    for dim, cells in ((1, 256), (2, 64), (3, 16)):
        grid = Grid(dim, 8.0, cells)
        rng = np.random.default_rng(dim)
        f = GridFunction(grid, rng.random(grid.shape))
        out = apply_heat_semigroup(f, 0.7)
        assert abs(out.integral() - f.integral()) < 1e-10 * abs(f.integral())
        assert np.min(out.values) >= 0.0


def test_semigroup_matches_free_space_kernel():
    # wide torus, short time: periodization is negligible
    grid = Grid(1, 16.0, 512)
    f = GridFunction(grid, np.exp(-grid.axis() ** 2 / 0.5))
    out = apply_heat_semigroup(f, 0.5)
    # closed-form Gaussian convolution: width 0.25 -> 0.75, amplitude ratio
    w2 = 0.25
    expected = math.sqrt(w2 / (w2 + 0.5)) * np.exp(-grid.axis() ** 2 / (2 * (w2 + 0.5)))
    assert np.max(np.abs(out.values - expected)) < 1e-9


def test_heat_at_points_matches_grid_flow():
    def bump(pts):
        return np.exp(-np.sum(pts**2, -1) / 0.5)

    pts = np.array([[0.0], [0.4], [-1.2]])
    vals = heat_at_points(bump, 0.5, pts, 1)
    w2 = 0.25
    expected = math.sqrt(w2 / (w2 + 0.5)) * np.exp(-pts[:, 0] ** 2 / (2 * (w2 + 0.5)))
    assert np.max(np.abs(vals - expected)) < 1e-9


def test_riesz_potential_unit_ball():
    ball = IndicatorBall(radius=1.0, height=1.0)
    theta = riesz_potential_sup(ball, 3)
    assert abs(theta - UNIT_BALL_THETA_D3) < 1e-6
    oracle = lattice_theta_oracle(ball.envelope, np.zeros(3), half_width=2.0, spacing=0.02)
    assert abs(theta - oracle) / theta < 1e-3


def test_riesz_potential_zero_and_monotone_probes():
    zero = Constant(0.0)
    assert riesz_potential_sup(zero, 3) == 0.0
    ball = IndicatorBall(radius=1.0, height=1.0)
    at0 = riesz_potential(ball, 3, 0.0)
    for r in (0.3, 0.9, 2.0, 5.0):
        assert riesz_potential(ball, 3, r) <= at0 + 1e-12


def test_riesz_potential_power_envelope_against_lattice():
    kern = StationaryPower(eps=0.1, alpha=3.0)
    theta = riesz_potential_sup(kern, 3)
    assert abs(theta - POWER_THETA[0.1]) < 1e-8
    # amplitude halved lands below the d = 3 threshold; 0.1 does not
    small = riesz_potential_sup(StationaryPower(eps=0.05, alpha=3.0), 3)
    assert abs(small - POWER_THETA[0.05]) < 1e-8
    assert small < THRESHOLD[3] < theta
    # lattice cross-check on a compactly supported variant; the untruncated
    # tail shrinks only like 1/R so no feasible box reaches 1e-3
    trunc = _TruncatedPower(eps=0.1, alpha=3.0, cutoff=6.0)
    theta_t = riesz_potential_sup(trunc, 3)
    oracle = lattice_theta_oracle(
        trunc.envelope, np.zeros(3), half_width=6.3, spacing=0.04
    )
    assert abs(theta_t - oracle) / theta_t < 1e-3
    # removed mass is exactly the shell integral of 4 pi r g(r) past the cutoff
    lost, _ = quad(lambda r: 4 * math.pi * r * 0.1 / (1 + r**3), 6.0, np.inf)
    assert abs((theta - theta_t) - lost) < 1e-8


def test_riesz_potential_divergent_envelopes():
    assert riesz_potential_sup(Constant(1.0), 3) == math.inf
    assert riesz_potential_sup(StationaryPower(eps=0.1, alpha=2.0), 3) == math.inf
    assert riesz_potential_sup(Constant(0.0), 3) == 0.0


def test_classify_regime_follows_computed_numbers():
    for eps in (0.05, 0.1):
        kern = StationaryPower(eps=eps, alpha=3.0)
        report = classify_regime(kern, 3)
        expect = "PersistenceSufficient" if report.theta < report.threshold else "Inconclusive"
        assert report.classification == expect
        assert abs(report.gap - (report.theta - report.threshold)) < 1e-14
    assert classify_regime(StationaryPower(eps=0.05, alpha=3.0), 3).classification == (
        "PersistenceSufficient"
    )
    assert classify_regime(StationaryPower(eps=0.1, alpha=3.0), 3).classification == (
        "Inconclusive"
    )


def test_classify_regime_low_dimension_and_scaled_profiles():
    assert classify_regime(StationaryPower(0.05, 3.0), 2).classification == "Inconclusive"
    report = classify_regime(ScaledTheta(a=50.0), 3)
    assert report.classification == "ExtinctionSufficient"
    assert report.caveat == "requires a >= N_0, N_0 unknown"
    # gaussian profile: theta = 2 pi a in d = 3, so a < 1/6 is persistence
    small = classify_regime(ScaledTheta(a=0.1), 3)
    assert small.classification == "PersistenceSufficient"
    assert abs(classify_regime(ScaledTheta(a=1.0), 3).theta - 2 * math.pi) < 1e-8
    assert classify_regime(ScaledTheta(a=50.0), 2).classification == "ExtinctionSufficient"
    assert classify_regime(Constant(1.0), 3).classification == "Inconclusive"


def test_khasminskii_bound():
    assert khasminskii_bound(0.0) == 1.0
    assert khasminskii_bound(0.5) == 2.0
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            khasminskii_bound(bad)


def bridge_lattice_oracle(x, y, envelope, spacing, half_width=2.5):
    """Independent coarse lattice sum with its own singular-cell patches."""
    axis = np.arange(-half_width + spacing / 2, half_width, spacing)
    zz = np.stack([m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij")], -1)
    g = envelope(np.linalg.norm(zz, axis=-1))
    dx = np.linalg.norm(zz - x, axis=-1)
    dy = np.linalg.norm(zz - y, axis=-1)
    r0 = 1.5 * spacing
    keep = (dx > r0) & (dy > r0) & (g != 0)
    c = 1.0 / (4 * math.pi)
    rxy = np.linalg.norm(x - y)
    body = c * rxy * float(np.sum(g[keep] / (dx[keep] * dy[keep]))) * spacing**3
    patch = c * 4 * math.pi * r0**2 / 2
    gx = float(envelope(np.atleast_1d(np.linalg.norm(x)))[0])
    gy = float(envelope(np.atleast_1d(np.linalg.norm(y)))[0])
    return body + patch * (gx + gy)


def test_bridge_potential_ball_case():
    ball = IndicatorBall(radius=1.0, height=1.0)
    x = np.zeros(3)
    y = np.array([2.0, 0.0, 0.0])
    val = bridge_potential(x, y, ball, 3, spacing=0.05)
    oracle = bridge_lattice_oracle(x, y, ball.envelope, spacing=0.035)
    assert abs(val - oracle) / oracle < 1e-2
    # triangle-inequality bound, and the cruder 2 * theta bound implied by it
    bound = 2.0 * green_potential_sup(ball, 3)
    assert val <= bound * (1 + 1e-6)
    assert val <= 2.0 * UNIT_BALL_THETA_D3


def test_bridge_potential_properties():
    ball = IndicatorBall(radius=1.0, height=1.0)
    zero = Constant(0.0)
    x = np.array([0.3, 0.0, 0.0])
    y = np.array([1.4, 0.5, 0.0])
    assert bridge_potential(x, y, zero, 3, spacing=0.2) == 0.0
    a = bridge_potential(x, y, ball, 3, spacing=0.1)
    b = bridge_potential(y, x, ball, 3, spacing=0.1)
    assert abs(a - b) / a < 1e-10  # integrand is symmetric in the endpoints
    with pytest.raises(ValueError):
        bridge_potential(x, x, ball, 3)
    with pytest.raises(ValueError):
        bridge_potential([0.0, 0.0], [1.0, 0.0], ball, 2)


def test_bridge_triangle_bound_random_pairs():
    ball = IndicatorBall(radius=1.0, height=1.0)
    bound = 2.0 * green_potential_sup(ball, 3) * (1 + 1e-6)
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x - y) < 0.15:
            y = x + np.array([0.3, 0.0, 0.0])
        assert bridge_potential(x, y, ball, 3, spacing=0.1) <= bound


def test_weight_domination_finite():
    for dim in (1, 3):
        for rho in (2.0, 4.0):
            c = weight_domination_constant(rho, t_max=1.0, dim=dim)
            assert np.isfinite(c)
            assert c >= 1.0
    # short times barely move the weight
    assert weight_domination_constant(2.0, t_max=1e-4, dim=1) < 1.01


def test_weight_family_shape():
    w = PolynomialWeight(2.0)
    assert w(np.zeros((1, 3)))[0] == 1.0
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    vals = w(pts)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        PolynomialWeight(0.0)


def test_surface_area_values():
    assert abs(surface_area(3) - 4 * math.pi) < 1e-12
    assert abs(surface_area(2) - 2 * math.pi) < 1e-12
