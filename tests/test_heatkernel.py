"""Heat semigroup and persistence-potential tests.

Expected values are frozen from independent oracles: symbolic Gamma-function
simplification (sympy) for the dimension constants and Green normalizations,
brute-force 3-d lattice sums for the radial potentials, closed-form Gaussian
convolutions for the heat flow, and direct quadrature of the heat density for
the time-integral representation of the Green function.  The closed-form
potential suprema are checked against riesz_potential, an adaptive scipy
quadrature of the shell-reduced potential at any radius, which lives here
because no run integrates a potential.
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
    IndicatorBall,
    ScaledTheta,
    StationaryPower,
)
from sbmre.grids import Grid, GridFunction, PolynomialWeight
from sbmre.heatkernel import (
    apply_heat_semigroup,
    apply_spectral_multiplier,
    green_potential_sup,
    heat_at_points,
    heat_multiplier,
    khasminskii_bound,
    persistence_threshold,
    riesz_potential_sup,
    surface_area,
    weight_domination_constant,
)

# frozen oracle values (mpmath/sympy, 30 digits, rounded to double)
GREEN_UNIT_BALL = {3: 0.5, 4: 0.25}  # Gamma(d/2-1)/(4 pi^(d/2)) * omega_(d-1)/2
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


def _quad(fn, a, b, breakpoints=()):
    """Adaptive quadrature of fn on [a, b], asserting convergence to 1e-8 relative."""
    if np.isinf(b):
        # map the tail through u = 1/s; algebraic decay becomes a bounded
        # integrand, which quad resolves far better than its built-in
        # infinite-interval transform
        pivot = max(1.0, 2.0 * a, *(2.0 * p for p in breakpoints))
        head = _quad(fn, a, pivot, breakpoints) if pivot > a else 0.0
        with np.errstate(over="ignore", under="ignore"):
            tail, err = quad(lambda u: fn(1.0 / u) / (u * u), 0.0, 1.0 / pivot, limit=200)
        val = head + tail
    else:
        pts = [p for p in breakpoints if a < p < b]
        val, err = quad(fn, a, b, points=pts, limit=200)
    assert np.isfinite(val) and err <= 1e-8 * max(1.0, abs(val)), (a, b, val, err)
    return val


def riesz_potential(kernel, dim, r, support_radius=None):
    """Reference: I(r) = int |x-y|^(2-dim) g(|y|) dy at |x| = r, by shell-reduced quadrature.

    An envelope that vanishes past support_radius is integrated up to it,
    with the cutoff as a breakpoint.
    """
    def g(s):
        return float(np.asarray(kernel.envelope(np.asarray([s], dtype=float)))[0])

    upper = np.inf if support_radius is None else support_radius
    breaks = () if support_radius is None else (support_radius,)
    omega = surface_area(dim)
    tail = _quad(lambda s: g(s) * s, r, max(upper, r), breaks) if upper > r else 0.0
    if r == 0:
        return omega * tail
    inner = _quad(lambda s: g(s) * s ** (dim - 1), 0.0, min(r, upper), breaks)
    return omega * (r ** (2 - dim) * inner + tail)


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
    [Grid(1, 8.0, 64), Grid(1, 8.0, 32), Grid(1, 2.0, 7), Grid(1, 16.0, 128), Grid(1, 8.0, 18),
     Grid(2, 4.0, 8), Grid(2, 4.0, 7), Grid(3, 4.0, 6), Grid(3, 8.0, 16)],
    ids=["1d-64", "1d-32", "1d-7", "1d-128", "1d-18", "2d-8", "2d-7", "3d-6", "3d-16"])
def test_axis_contractions_are_the_nd_transform(grid):
    rng = np.random.default_rng(grid.cells)
    values = rng.standard_normal((33,) + grid.shape) + 0.5
    n = grid.cells
    for t in (1e-3, 0.1, 1.0):
        mult = heat_multiplier(grid, t)
        # a 1-d matrix carries zero columns up to a multiple of 8
        assert mult.shape == (n, n + (-n % 8 if grid.dim == 1 else 0))
        assert np.array_equal(mult[:, :n], mult[:, :n].T) and not mult[:, n:].any()
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
    # a point of another dimension is refused: [[0.7]] in d = 3 read (0.7, 0.7, 0.7)
    for t, wrong in ((0.5, pts), (0.0, pts), (0.5, [[0.7, 0.0]])):
        with pytest.raises(ValueError, match="need dim = 3"):
            heat_at_points(bump, t, wrong, 3)


def test_riesz_potential_unit_ball():
    ball = IndicatorBall(radius=1.0, height=1.0)
    theta = riesz_potential_sup(ball, 3)
    assert abs(theta - UNIT_BALL_THETA_D3) < 1e-6
    oracle = lattice_theta_oracle(ball.envelope, np.zeros(3), half_width=2.0, spacing=0.02)
    assert abs(theta - oracle) / theta < 1e-3


def test_riesz_potential_zero_and_monotone_probes():
    zero = Constant(0.0)
    assert riesz_potential_sup(zero, 3) == 0.0
    # off the origin the reference potential of a nonincreasing envelope
    # stays below the closed-form supremum
    for kern, support in ((IndicatorBall(radius=1.0, height=1.0), 1.0),
                          (StationaryPower(eps=0.1, alpha=3.0), None)):
        theta = riesz_potential_sup(kern, 3)
        for r in (0.3, 0.9, 2.0, 5.0):
            assert riesz_potential(kern, 3, r, support) < theta


@pytest.mark.parametrize("kern", [
    ScaledTheta(0.1), ScaledTheta(1.0, 2.0), ScaledTheta(3.0, 2.0),
    StationaryPower(eps=0.1, alpha=3.0), StationaryPower(eps=1.0, alpha=4.0),
    StationaryPower(eps=0.3, alpha=6.0),
    IndicatorBall(radius=1.0, height=1.0), IndicatorBall(radius=2.5, height=0.4),
], ids=repr)
def test_closed_form_potential_sup_matches_quadrature(kern):
    # omega_d int_0^inf s g(s) ds at the origin, in d = 3 and 5
    support = getattr(kern, "radius", None)
    for dim in (3, 5):
        theta = riesz_potential_sup(kern, dim)
        assert abs(theta - riesz_potential(kern, dim, 0.0, support)) < 1e-10 * theta


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
    theta_t = riesz_potential(trunc, 3, 0.0, trunc.cutoff)
    oracle = lattice_theta_oracle(
        trunc.envelope, np.zeros(3), half_width=6.3, spacing=0.04
    )
    assert abs(theta_t - oracle) / theta_t < 1e-3
    # removed mass is exactly the shell integral of 4 pi r g(r) past the cutoff
    lost, _ = quad(lambda r: 4 * math.pi * r * 0.1 / (1 + r**3), 6.0, np.inf)
    assert abs((theta - theta_t) - lost) < 1e-8


def test_riesz_potential_of_the_gaussian_profile_is_two_pi_a():
    # d = 3: a * 4 pi * int_0^inf s exp(-(s/w)^2) ds = 2 pi a w^2, so a < 1/6 persists
    for a in (0.1, 1.0, 50.0):
        assert abs(riesz_potential_sup(ScaledTheta(a), 3) - 2 * math.pi * a) < 1e-8 * a
    assert riesz_potential_sup(ScaledTheta(0.1), 3) < THRESHOLD[3]
    assert riesz_potential_sup(ScaledTheta(0.2), 3) > THRESHOLD[3]
    wide = riesz_potential_sup(ScaledTheta(1.0, 2.0), 3)
    assert abs(wide - 8 * math.pi) < 1e-8


def test_riesz_potential_sup_refuses_an_undeclared_envelope():
    # an envelope that is not radially nonincreasing may peak off the origin
    class Wavy(CovarianceKernel):
        def envelope(self, r):
            r = np.asarray(r, dtype=float)
            return np.exp(-r * r) * np.cos(3.0 * r)

    kernel = Wavy()  # has no closed-form radial moment
    with pytest.raises(ValueError, match="nonincreasing"):
        riesz_potential_sup(kernel, 3)
    with pytest.raises(ValueError, match="nonincreasing"):
        green_potential_sup(kernel, 3)


def test_green_potential_of_the_unit_ball_and_the_time_integral():
    ball = IndicatorBall(radius=1.0, height=1.0)
    for dim, expected in GREEN_UNIT_BALL.items():
        assert abs(green_potential_sup(ball, dim) - expected) < 1e-12
    with pytest.raises(ValueError):
        green_potential_sup(ball, 2)

    def heat_density(t, r, dim):
        return (2.0 * math.pi * t) ** (-dim / 2.0) * math.exp(-r * r / (2.0 * t))

    # the Green constant is int_0^inf p(2t, r) dt * r^(dim-2): the head is
    # integrated directly, the algebraic tail under t -> 1/u, where it becomes
    # a tame Gamma-type integrand.  T is grown until the tail bound
    # (4 pi)^(-d/2) T^(1-d/2)/(d/2-1) drops below 1e-4 of the target.
    for dim, r in ((3, 1.0), (4, 1.5), (5, 0.8)):
        constant = green_potential_sup(ball, dim) / riesz_potential_sup(ball, dim)
        target = constant * r ** (2 - dim)

        def partial(T, dim=dim, r=r):
            peak = r * r / (2 * dim)
            head, _ = quad(
                lambda t: heat_density(2 * t, r, dim), 0, 10, points=[peak, 10 * peak]
            )
            tail, _ = quad(
                lambda u: heat_density(2.0 / u, r, dim) / u**2, 1.0 / T, 0.1, limit=200
            )
            return head + tail

        T = 100.0
        while (4 * math.pi) ** (-dim / 2) * T ** (1 - dim / 2) / (dim / 2 - 1) > 1e-4 * target:
            T *= 4
        coarse, fine = partial(T / 16), partial(T)
        assert coarse <= fine + 1e-12  # monotone in the truncation horizon
        assert abs(fine - target) / target < 1e-3


def test_riesz_potential_divergent_envelopes():
    for dim in (3, 4):
        assert riesz_potential_sup(Constant(1.0), dim) == math.inf
        for alpha in (0.5, 2.0):
            assert riesz_potential_sup(StationaryPower(eps=0.1, alpha=alpha), dim) == math.inf
        # a zero amplitude has a zero potential, whatever the decay
        for zero in (Constant(0.0), StationaryPower(0.0, 2.0), StationaryPower(0.0, 4.0),
                     ScaledTheta(0.0), IndicatorBall(1.0, 0.0)):
            assert riesz_potential_sup(zero, dim) == 0.0


def test_khasminskii_bound():
    assert khasminskii_bound(0.0) == 1.0
    assert khasminskii_bound(0.5) == 2.0
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            khasminskii_bound(bad)


def test_weight_domination_finite():
    for dim in (1, 3):
        for rho in (2.0, 4.0):
            c = weight_domination_constant(rho, t_max=1.0, dim=dim)
            assert np.isfinite(c)
            assert c >= 1.0
    # short times barely move the weight
    assert weight_domination_constant(2.0, t_max=1e-4, dim=1) < 1.01
    # a weight that underflows on the box leaves no finite ratio
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflowed"):
            weight_domination_constant(1000.0, t_max=1.0, dim=1)


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
