"""Pair-path Monte Carlo tests.

Deterministic cases (zero or constant kernels, degenerate profiles) must come
out exact; genuinely stochastic estimates are checked against closed forms or
independent routes within standard-error bands.  All runs are seeded.
"""

import math
import pickle

import numpy as np
import pytest

from sbmre import feynmankac
from sbmre.covariance import Constant, ScaledTheta, _pair_distances
from sbmre.ensemble import BLOCK_VALUES, WorkerPool, batch_ranges, mean_se, stream_rng
from sbmre.feynmankac import (
    AtomicMeasure,
    _CHUNK,
    MCConfig,
    _diagonal_time_integral,
    _t_centered_cdf,
    _pair_paths,
    first_moment_rhs,
    ldp_tail_probe,
    ldp_tail_probes,
    lyapunov_estimate,
    pair_product,
    pam_second_moment_oracle,
    qtc,
    second_moment_rhs,
    wilson_interval,
)
from sbmre.grids import Grid, GridFunction
from sbmre.readouts import ConstantReadout, GaussianBump
from sbmre.spde import NoisePath, solve_pam

SEED = 20260814
ONE = ConstantReadout(1.0)


def test_config_and_measure_validation():
    with pytest.raises(ValueError):
        MCConfig(1, 0.1, SEED)
    with pytest.raises(ValueError):
        MCConfig(10, 0.0, SEED)
    assert MCConfig(10, 0.1, SEED).steps_for(1.0) == 10
    # 100.5 paths were accepted, and the first sampler then refused a "total"
    with pytest.raises(ValueError, match="n_paths must be an integer >= 2, got 100.5"):
        MCConfig(100.5, 0.1, SEED)
    assert type(MCConfig(np.int64(100), 0.1, SEED).n_paths) is int
    with pytest.raises(ValueError):
        MCConfig(10, 0.3, SEED).steps_for(1.0)
    nu = AtomicMeasure.delta(0.0)
    assert nu.dim == 1 and nu.weights.tolist() == [1.0]
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1.0, 2.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([-1.0]), np.zeros((1, 1)))


def test_pair_helpers():
    f = GaussianBump(center=0.2, width=0.7)
    F = pair_product(f)
    x = np.array([[0.1], [0.5]])
    y = np.array([[-0.3], [0.9]])
    assert np.allclose(F(x, y), f(x) * f(y))
    assert np.allclose(F(x, x), f(x) ** 2)


def test_pair_product_survives_a_pickle_round_trip():
    F = pair_product(GaussianBump(center=0.2, width=0.7))
    G = pickle.loads(pickle.dumps(F))
    x = np.linspace(-1.0, 1.0, 7)[:, None]
    assert np.array_equal(G(x, x[::-1]), F(x, x[::-1]))


def test_pair_path_oracle_on_a_pool_equals_one_process():
    # three qtc chunks and ten strata per atom, spread over two processes
    f, kernel = GaussianBump(center=0.1, width=0.8), ScaledTheta(1.0)
    mc = MCConfig(2 * _CHUNK + 100, 0.05, SEED)
    x, y = np.array([0.2]), np.array([-0.3])
    nu = AtomicMeasure(np.array([0.5, 1.5]), np.array([[0.0], [0.4]]))
    with WorkerPool(2) as pool:
        assert qtc(pair_product(f), x, y, 0.5, kernel, mc, pool) \
            == qtc(pair_product(f), x, y, 0.5, kernel, mc)
        assert second_moment_rhs(f, nu, 0.5, kernel, mc, pool) \
            == second_moment_rhs(f, nu, 0.5, kernel, mc)


def test_qtc_deterministic_cases_and_replay():
    mc = MCConfig(5000, 0.1, SEED)
    est, se = qtc(lambda bx, by: np.ones(len(bx)), 0.0, 0.0, 1.0, Constant(0.0), mc)
    assert est == 1.0 and se == 0.0
    est, se = qtc(lambda bx, by: np.ones(len(bx)), 0.3, -0.2, 1.0, Constant(1.0), mc)
    assert abs(est - math.e) < 1e-12 * math.e
    assert se < 1e-9
    # replay across the internal chunk boundary is bit-identical
    again = qtc(lambda bx, by: np.ones(len(bx)), 0.3, -0.2, 1.0, Constant(1.0), mc)
    assert again == (est, se)
    with pytest.raises(FloatingPointError):
        qtc(lambda bx, by: np.full(len(bx), np.inf), 0.0, 0.0, 1.0, Constant(0.0), mc)


def test_qtc_zero_kernel_factorizes_into_heat_flows():
    f = GaussianBump(center=0.0, width=1.0)
    mc = MCConfig(20000, 0.05, SEED)
    x, y, t = 0.2, -0.4, 0.5
    est, se = qtc(pair_product(f), x, y, t, Constant(0.0), mc)
    target = float(f.heat_flow(t, np.array([[x]]))[0] * f.heat_flow(t, np.array([[y]]))[0])
    assert se > 0
    assert abs(est - target) < 3 * se


@pytest.mark.parametrize("dim", [1, 2])
def test_qtc_pair_endpoints_are_independent_brownian(dim):
    # endpoints rebuilt from the difference path and the sum's endpoint:
    # B_t - x and B'_t - y are uncorrelated, each of variance t per axis
    mc = MCConfig(20000, 0.05, SEED)
    x, y, t = np.full(dim, 0.3), np.full(dim, -0.5), 0.5
    cases = [(lambda b, bp: (b[:, 0] - x[0]) * (bp[:, 0] - y[0]), 0.0),
             (lambda b, bp: (b[:, -1] - x[-1]) ** 2, t),
             (lambda b, bp: (bp[:, -1] - y[-1]) ** 2, t)]
    for F, target in cases:
        est, se = qtc(F, x, y, t, Constant(0.0), mc)
        assert se > 0 and abs(est - target) < 4 * se


def test_diagonal_pair_phase_endpoints_are_independent_brownian():
    # a jump of length t - s from x, then the pair for s: integrated over
    # s in [0, t], E(B - x)(B' - x) = t^2 / 2 and E(B - x)^2 = E(B' - x)^2 = t^2
    mc = MCConfig(20000, 0.05, SEED)
    x, t = np.array([0.3]), 0.5
    cases = [(lambda b, bp: (b[:, 0] - x[0]) * (bp[:, 0] - x[0]), t * t / 2),
             (lambda b, bp: (b[:, 0] - x[0]) ** 2, t * t),
             (lambda b, bp: (bp[:, 0] - x[0]) ** 2, t * t)]
    for F, target in cases:
        est, se = _diagonal_time_integral(F, x, t, Constant(0.0), mc)
        assert se > 0 and abs(est - target) < 4 * se


def _record_reductions(monkeypatch) -> list:
    """The values each _path_mean_se call reduces, in call order."""
    seen = []
    reduce = feynmankac._path_mean_se

    def record(blocks):
        seen.append(np.concatenate(blocks))
        return reduce(blocks)

    monkeypatch.setattr(feynmankac, "_path_mean_se", record)
    return seen


def test_qtc_blocks_equal_one_draw_per_chunk(monkeypatch):
    # each chunk is drawn and reduced in row blocks; the values must be those
    # of one _pair_paths draw of the whole chunk, bit for bit
    kernel, F = ScaledTheta(1.0), pair_product(GaussianBump(center=0.1, width=0.8))
    x, y, t, dt = np.array([0.2]), np.array([-0.3]), 0.5, 0.0125
    m, n_paths = 40, _CHUNK + 904
    rows = BLOCK_VALUES // (m + 1)
    assert _CHUNK % rows and 904 % rows  # a partial last block in both chunks
    seen = _record_reductions(monkeypatch)
    est = qtc(F, x, y, t, kernel, MCConfig(n_paths, dt, SEED))
    reference = []
    for c, lo, hi in batch_ranges(n_paths, _CHUNK):
        left, end_b, end_bp = _pair_paths(stream_rng(SEED, (0, c)), math.sqrt(2.0 * dt),
                                          math.sqrt(2.0 * t), (hi - lo, m, 1))
        left += x - y
        radii = np.sqrt(np.sum(left * left, axis=-1))
        exponent = dt * np.sum(kernel.envelope(radii), axis=1)
        reference.append(np.exp(exponent) * F(x + end_b, y + end_bp))
    reference = np.concatenate(reference)
    assert len(seen) == 1 and np.array_equal(seen[0], reference)
    assert est == mean_se(reference)


def test_diagonal_strata_blocks_equal_one_draw_per_stratum(monkeypatch):
    # two strata of 20000 paths: 16384-row blocks in stratum 0 (2 values a
    # row) and 10922-row blocks in stratum 1 (3 values a row), neither exact
    kernel, F = ScaledTheta(1.0), pair_product(GaussianBump(center=0.1, width=0.8))
    x, t, dt, n_paths = np.array([0.2]), 0.1, 0.05, 40000
    seen = _record_reductions(monkeypatch)
    value, se = _diagonal_time_integral(F, x, t, kernel, MCConfig(n_paths, dt, SEED))
    assert len(seen) == 2
    total, variance = 0.0, 0.0
    for j in range(2):
        rows = n_paths // 2
        assert rows % (BLOCK_VALUES // (j + 2)) and rows > BLOCK_VALUES // (j + 2)
        rng = stream_rng(SEED, (1, j))
        u = rng.random(rows)
        s = (j + u) * dt
        common = x + rng.standard_normal((rows, 1)) * np.sqrt(t - s)[:, None]
        widths = np.concatenate([np.full((rows, j), dt), (u * dt)[:, None]], axis=1)
        left, end_b, end_bp = _pair_paths(rng, np.sqrt(2.0 * widths)[..., None],
                                          np.sqrt(2.0 * s)[:, None], (rows, j + 1, 1))
        radii = np.sqrt(np.sum(left * left, axis=-1))
        exponent = np.sum(kernel.envelope(radii) * widths, axis=1)
        reference = np.exp(exponent) * F(common + end_b, common + end_bp)
        assert np.array_equal(seen[j], reference)
        mean, stratum_se = mean_se(reference)
        total += dt * mean
        variance += (dt * stratum_se) ** 2
    assert (value, se) == (total, math.sqrt(variance))


def test_qtc_standard_error_survives_a_large_shift():
    # a sum-of-squares reduction cancels to a negative variance at a 1e9 offset
    mc = MCConfig(2000, 0.05, 7)
    plain = qtc(lambda b, bp: b[:, 0], [0.0], [0.0], 1.0, Constant(0.0), mc)
    shifted = qtc(lambda b, bp: 1e9 + b[:, 0], [0.0], [0.0], 1.0, Constant(0.0), mc)
    assert plain[1] > 0.01
    assert shifted[1] == pytest.approx(plain[1], rel=1e-6)
    assert shifted[0] - 1e9 == pytest.approx(plain[0], abs=1e-6)


def test_qtc_mesh_refinement_coupled_bias():
    # three meshes on one draw of pair paths: qtc's finest mesh, and the
    # left-endpoint sums over every second and every fourth of its points,
    # so differences between meshes carry the discretization error only
    kernel, f, t, n_paths, dt = ScaledTheta(1.0), GaussianBump(center=0.0, width=1.0), 0.5, 4000, 0.00125
    left, end_b, end_bp = _pair_paths(stream_rng(SEED, (0, 0)), math.sqrt(2.0 * dt),
                                      math.sqrt(2.0 * t), (n_paths, round(t / dt), 1))
    potential = kernel.envelope(np.sqrt(np.sum(left * left, axis=-1)))
    F = pair_product(f)(end_b, end_bp)
    q = [np.exp(dt * s * np.sum(potential[:, ::s], axis=1)) * F for s in (1, 2, 4)]
    exact = qtc(pair_product(f), 0.0, 0.0, t, kernel, MCConfig(n_paths, dt, SEED))
    assert mean_se(q[0])[0] == pytest.approx(exact[0], rel=1e-12)
    # Meshes 2h and h: the exponents differ by h sum_i [C(Z_2ih) - C(Z_(2i+1)h)]
    # for the difference path Z (generator the Laplacian).  By Ito's formula
    # each term is a drift of at most h sup|C''| plus a martingale increment
    # of second moment at most 2 h sup|C'|^2, orthogonal to the others, so the
    # exponents differ by at most h (sqrt(t) sup|C'| + t sup|C''| / 2) in L1;
    # with |e^u - e^v| <= e^(t sup C) |u - v| and sup F = 1 that bounds the bias.
    a = kernel.a
    grad, curv = math.sqrt(2.0) * a * math.exp(-0.5), 2.0 * a  # C = a exp(-r^2)
    for j, h in ((1, dt), (2, 2.0 * dt)):
        gap, se = mean_se(q[j] - q[j - 1])
        bound = math.exp(t * a) * h * (math.sqrt(t) * grad + 0.5 * t * curv)
        assert 3.0 * se < gap <= bound + 3.0 * se  # resolved, and within the O(dt) bound
    # first order: halving the mesh halves the coupled difference
    slope, se = mean_se((q[2] - q[1]) - 2.0 * (q[1] - q[0]))
    assert abs(slope) <= 3.0 * se


def test_first_moment_rhs_heat_pairing():
    assert abs(first_moment_rhs(ONE, AtomicMeasure.delta(0.0), 1.0) - 1.0) < 1e-12
    f = GaussianBump(center=0.0, width=1.0)
    nu = AtomicMeasure.delta(0.3)
    val = first_moment_rhs(f, nu, 0.7)
    target = float(f.heat_flow(0.7, np.array([[0.3]]))[0])
    assert abs(val - target) < 1e-8
    double = AtomicMeasure(np.array([2.0]), np.array([[0.3]]))
    assert abs(first_moment_rhs(f, double, 0.7) - 2 * val) < 1e-14


def test_second_moment_rhs_zero_kernel_is_exact():
    nu = AtomicMeasure.delta(0.0)
    mc = MCConfig(400, 0.1, SEED)
    est, se = second_moment_rhs(ONE, nu, 1.0, Constant(0.0), mc)
    assert se == 0.0
    assert abs(est - 2.0) < 1e-12  # 1 + t with t = 1
    zero = ConstantReadout(0.0)
    est, se = second_moment_rhs(zero, nu, 1.0, Constant(1.0), mc)
    assert est == 0.0 and se == 0.0


def test_second_moment_rhs_constant_kernel_closed_form():
    nu = AtomicMeasure.delta(0.0)
    mc = MCConfig(4000, 0.05, SEED)
    est, se = second_moment_rhs(ONE, nu, 1.0, Constant(1.0), mc)
    target = math.e + (math.e - 1.0)
    assert 0 < se < 0.01
    assert abs(est - target) < 3 * se + 1e-9


def test_second_moment_dominates_squared_first_moment():
    f = GaussianBump(center=0.0, width=1.0)
    nu = AtomicMeasure.delta(0.0)
    mc = MCConfig(4000, 0.025, SEED)
    second, se = second_moment_rhs(f, nu, 0.5, ScaledTheta(1.0), mc)
    first = first_moment_rhs(f, nu, 0.5)
    assert second >= first**2 - 5 * se


def test_pam_oracle_matches_ensemble_two_point_moment():
    # independent estimates of the same annealed second moment: pair-path
    # sampling vs a seeded solver ensemble on a wide torus
    f = GaussianBump(center=0.0, width=1.0)
    kernel = ScaledTheta(1.0)
    t = 0.5
    oracle, oracle_se = pam_second_moment_oracle(
        f, t, 0.0, 0.0, kernel, MCConfig(20000, 0.0125, SEED))

    grid = Grid(dim=1, extent=16.0, cells=128)
    datum = GridFunction.from_callable(grid, f)
    noise = NoisePath(grid, kernel, 1e-3, SEED + 1, n_replicas=600)
    sol = solve_pam(datum, t, noise)
    center = grid.nearest_index(0.0)
    samples = sol.values[-1][(slice(None),) + center] ** 2
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    assert abs(mean - oracle) < 3 * math.hypot(se, oracle_se)


def test_wilson_interval_values():
    low, high = wilson_interval(50, 100)
    assert abs(low - 0.4039) < 5e-4 and abs(high - 0.5961) < 5e-4
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


def test_t_centered_cdf_matches_scipy():
    from scipy.special import stdtrit

    for nu in range(1, 301):
        for p in (0.9, 0.975, 0.995):
            t = float(stdtrit(nu, p))
            assert abs(_t_centered_cdf(t, nu) - (2 * p - 1)) <= 1e-13, (nu, p, t)
            assert _t_centered_cdf(-t, nu) == -_t_centered_cdf(t, nu)
    # closed forms: 2 F(t) - 1 is (2 / pi) atan t for nu = 1 and t / sqrt(2 + t^2) for nu = 2
    for t in (0.0, 0.3, 1.0, 3.078, 40.0):
        assert abs(_t_centered_cdf(t, 1) - 2.0 / math.pi * math.atan(t)) < 1e-15
        assert abs(_t_centered_cdf(t, 2) - t / math.sqrt(2.0 + t * t)) < 1e-15


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_distances_give_the_bits_of_the_oracle_s_former_radii(dim):
    # the pair-path oracle once spelled its radii three ways; _pair_distances gives their bits
    rng = np.random.default_rng(dim)
    left = rng.standard_normal((50, 40, dim)) * 0.3
    x, y = rng.standard_normal(dim), rng.standard_normal(dim)
    shifted = left + (x - y)
    assert np.array_equal(_pair_distances(left, y - x),
                          np.sqrt(np.sum(shifted * shifted, axis=-1)))
    assert np.array_equal(_pair_distances(left, np.zeros(dim)),
                          np.sqrt(np.sum(left * left, axis=-1)))
    assert np.array_equal(_pair_distances(left[:25], left[25:]),
                          np.linalg.norm(left[:25] - left[25:], axis=-1))


def test_lyapunov_zero_coupling_is_flat():
    grid = Grid(dim=1, extent=8.0, cells=64)
    est = lyapunov_estimate(ScaledTheta(0.0), grid, T=2.0, dt=1e-2, seed=5, n_replicas=3)
    assert np.array_equal(est.slopes, np.zeros(3))
    assert est.median == 0.0 and est.conclusive
    with pytest.raises(ValueError):
        lyapunov_estimate(ScaledTheta(1.0), grid, T=2.0, dt=1e-2, seed=5, n_replicas=1)


def test_lyapunov_route_shift_and_quenched_ladder():
    grid = Grid(dim=1, extent=8.0, cells=64)
    a = 1.0
    strat = lyapunov_estimate(ScaledTheta(a), grid, T=2.0, dt=5e-3, seed=7, n_replicas=3)
    ito = lyapunov_estimate(ScaledTheta(a), grid, T=2.0, dt=5e-3, seed=7,
                            n_replicas=3, stratonovich=False)
    # scalar exponential tilt shifts every slope by exactly a/2
    assert np.allclose(strat.slopes - ito.slopes, a / 2.0, atol=1e-9)

    # quenched decay steepens with coupling, replica by replica (shared seed)
    slopes = {}
    for coupling in (1.0, 16.0):
        est = lyapunov_estimate(ScaledTheta(coupling), grid, T=4.0, dt=2e-3,
                                seed=11, n_replicas=4)
        slopes[coupling] = est.slopes - coupling / 2.0
    assert np.all(slopes[16.0] < slopes[1.0])


def test_lyapunov_plateau_detector_accepts_stabilized_run():
    grid = Grid(dim=1, extent=8.0, cells=64)
    est = lyapunov_estimate(ScaledTheta(4.0), grid, T=8.0, dt=1e-3, seed=99, n_replicas=8)
    assert est.conclusive
    assert est.band[0] <= est.median <= est.band[1]


def test_tail_probe_directions_and_validation():
    grid = Grid(dim=1, extent=8.0, cells=64)
    frac = {}
    for a in (4.0, 16.0):
        for t in (1.0, 4.0):
            probe = ldp_tail_probe(ScaledTheta(a, width=8.0), grid, t=t, L=2.0,
                                   dt=1e-3, seed=31, n_replicas=100)
            assert probe.interval[0] <= probe.fraction <= probe.interval[1]
            assert probe.threshold == math.exp(-a * t / 3.0)
            frac[(a, t)] = probe.fraction
    assert frac[(16.0, 1.0)] < frac[(4.0, 1.0)]
    assert frac[(16.0, 4.0)] < frac[(4.0, 4.0)]
    assert frac[(4.0, 4.0)] < frac[(4.0, 1.0)]
    assert frac[(16.0, 4.0)] < frac[(16.0, 1.0)]

    with pytest.raises(ValueError):
        ldp_tail_probe(ScaledTheta(0.0), grid, t=1.0, L=2.0, dt=1e-3, seed=1, n_replicas=4)
    with pytest.raises(ValueError):
        ldp_tail_probe(Constant(1.0), grid, t=1.0, L=2.0, dt=1e-3, seed=1, n_replicas=4)
    with pytest.raises(ValueError):
        ldp_tail_probe(ScaledTheta(1.0), grid, t=1.0, L=5.0, dt=1e-3, seed=1, n_replicas=4)


def test_tail_probes_from_one_march_equal_per_time_probes():
    grid = Grid(dim=1, extent=8.0, cells=32)
    kern = ScaledTheta(4.0, width=8.0)
    times = (0.25, 0.05, 0.25, 0.1)
    probes = ldp_tail_probes(kern, grid, times, L=2.0, dt=5e-3, seed=31, n_replicas=40)
    assert len(probes) == len(times)
    for t, probe in zip(times, probes):
        assert probe == ldp_tail_probe(kern, grid, t=t, L=2.0, dt=5e-3, seed=31, n_replicas=40)
    assert len({p.fraction for p in probes}) > 1
    with pytest.raises(ValueError):
        ldp_tail_probes(kern, grid, (0.1, 0.0123), L=2.0, dt=5e-3, seed=31, n_replicas=4)
