"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single pass/fail line with the measured margins and then
asserts the gate and its wall-clock budget.  Statistical gates use the fixed
seed below; the margins quoted in the detail lines were verified to hold at
that seed before being frozen here.
"""

import glob
import math
import os
import time

import numpy as np

from sbmre.covariance import Constant, IndicatorBall, ScaledTheta
from sbmre.grids import Grid, GridFunction
from sbmre.heatkernel import (
    apply_heat_semigroup,
    persistence_threshold,
    riesz_potential_sup,
    weight_domination_constant,
)
from sbmre.spde import (
    NoisePath,
    derivative_quotient,
    solve_log_laplace,
    solve_pam,
    solve_stratonovich_pam,
)
from sbmre.particles import BranchingConfig, empirical_pairing, martingale_residual, run_ensemble
from sbmre.feynmankac import (
    AtomicMeasure,
    MCConfig,
    ldp_tail_probe,
    lyapunov_estimate,
    pam_second_moment_oracle,
    second_moment_rhs,
)
from sbmre.dual import (
    dual_route_samples,
    laplace_via_dual,
    laplace_via_log_laplace,
    third_moment_scan,
)
from sbmre.ensemble import mean_se
from sbmre.readouts import ConstantReadout, GaussianBump
from sbmre import cli

SEED = 20260814
GUARD = 1e-9  # deterministic estimators report SE = 0; keep float roundoff out of k*SE gates


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_threshold_arithmetic():
    start = time.perf_counter()
    targets = {3: math.pi / 3.0, 4: math.pi**2 / 4.0, 5: 3.0 * math.pi**2 / 10.0}
    worst = max(abs(persistence_threshold(d) - v) for d, v in targets.items())
    theta = riesz_potential_sup(IndicatorBall(1.0), 3)
    theta_err = abs(theta - 2.0 * math.pi)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and theta_err <= 1e-6
    assert _line(1, ok, f"threshold err {worst:.1e}, unit-ball theta err {theta_err:.1e}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_02_heat_semigroup_suite():
    start = time.perf_counter()
    mass_err = comp_err = 0.0
    for dim, cells in ((1, 256), (3, 16)):
        grid = Grid(dim, 8.0, cells)
        f = GridFunction.from_callable(grid, GaussianBump([0.0] * dim, 1.0))
        mass0 = grid.cell_volume * float(f.values.sum())
        flowed = apply_heat_semigroup(f, 0.7)
        mass_err = max(mass_err, abs(grid.cell_volume * float(flowed.values.sum()) - mass0))
        two_step = apply_heat_semigroup(apply_heat_semigroup(f, 0.3), 0.4)
        comp_err = max(comp_err, float(np.max(np.abs(two_step.values - flowed.values))))
        assert np.array_equal(apply_heat_semigroup(f, 0.0).values, f.values)
    constants = {(rho, dim): weight_domination_constant(rho, 1.0, dim)
                 for rho in (2.0, 4.0) for dim in (1, 3)}
    finite = all(np.isfinite(c) and c >= 1.0 for c in constants.values())
    elapsed = time.perf_counter() - start
    ok = mass_err <= 1e-10 and comp_err <= 1e-10 and finite
    assert _line(2, ok, f"mass err {mass_err:.1e}, composition err {comp_err:.1e}, "
                        f"domination C up to {max(constants.values()):.3f}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_03_zero_kernel_matches_heat_flow():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 256)
    f = GridFunction.from_callable(grid, GaussianBump(0.0, 1.0))
    noise = NoisePath(grid, Constant(0.0), 1e-3, SEED)
    sol = solve_pam(f, 1.0, noise)
    err = float(np.max(np.abs(sol.values[-1][0] - apply_heat_semigroup(f, 1.0).values)))
    elapsed = time.perf_counter() - start
    assert _line(3, err <= 1e-8, f"sup gap {err:.1e} at t=1 on 256 cells, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_04_constant_kernel_moments_and_oracle():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    f = GridFunction.constant(grid, 1.0)
    noise = NoisePath(grid, Constant(1.0), 1e-3, SEED, n_replicas=1024)
    final = solve_pam(f, 1.0, noise).values[-1]
    center = final[:, int(np.argmin(np.abs(grid.axis())))]
    m1, se1 = center.mean(), center.std(ddof=1) / math.sqrt(len(center))
    sq = center**2
    m2, se2 = sq.mean(), sq.std(ddof=1) / math.sqrt(len(sq))
    oracle, oracle_se = pam_second_moment_oracle(
        ConstantReadout(1.0), 1.0, np.zeros(1), np.zeros(1), Constant(1.0),
        MCConfig(20000, 0.0125, SEED + 202))
    agree_se = math.hypot(se2, oracle_se)
    ok = (abs(m1 - 1.0) <= 3.0 * se1 + GUARD
          and abs(m2 - math.e) <= 3.0 * se2 + GUARD
          and abs(oracle - math.e) <= 3.0 * oracle_se + GUARD
          and abs(m2 - oracle) <= 5.0 * agree_se + GUARD)
    elapsed = time.perf_counter() - start
    assert _line(4, ok, f"mean {m1:.4f}+-{se1:.4f}, square {m2:.4f}+-{se2:.4f}, "
                        f"oracle {oracle:.6f}+-{oracle_se:.1e}, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_05_comparison_and_positivity():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    f = GridFunction.from_callable(grid, GaussianBump(0.0, 1.0))
    noise = NoisePath(grid, ScaledTheta(1.0), 1e-3, SEED, n_replicas=100)
    margins = []
    for lam in (0.5, 1.0):
        pair = derivative_quotient(f, lam, 0.1, 1.0, noise, save_every=100)
        w_min, v_minus_w = pair.sandwich_margins()
        margins.extend([
            float(pair.lower.values.min()),
            float((lam * pair.pam.values - pair.lower.values).min()),
            float((pair.upper.values - pair.lower.values).min()),
            w_min,
            v_minus_w,
        ])
    worst = min(margins)
    elapsed = time.perf_counter() - start
    assert _line(5, worst >= -1e-12,
                 f"worst margin {worst:+.1e} over 100 shared-noise runs, lam in (0.5, 1.0), {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_06_extinction_closed_form_and_jensen_bound():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    flat_err = 0.0
    for k in (1.0, 10.0):
        fk = GridFunction.constant(grid, k)
        noise = NoisePath(grid, Constant(0.0), 1e-4, SEED)
        sol = solve_log_laplace(fk, 1.0, 4.0, noise, save_every=5000)
        for i, t in enumerate(sol.times):
            flat_err = max(flat_err, float(np.max(np.abs(
                sol.values[i][0] - 1.0 / (t / 2.0 + 1.0 / k)))))
    jensen_ok = True
    worst_excess = -np.inf
    for k in (1.0, 10.0):
        fk = GridFunction.constant(grid, k)
        noise = NoisePath(grid, ScaledTheta(4.0), 1e-3, SEED + int(k), n_replicas=64)
        sol = solve_log_laplace(fk, 1.0, 4.0, noise, save_every=1000)
        for i, t in enumerate(sol.times):
            if t == 0.0:
                continue
            means = sol.values[i].mean(axis=1)
            m, se = means.mean(), means.std(ddof=1) / math.sqrt(len(means))
            excess = m - 1.0 / (t / 2.0 + 1.0 / k)
            worst_excess = max(worst_excess, excess - 3.0 * se)
            jensen_ok = jensen_ok and excess <= 3.0 * se + GUARD
    elapsed = time.perf_counter() - start
    ok = flat_err <= 1e-6 and jensen_ok
    assert _line(6, ok, f"noise-off sup err {flat_err:.1e}, Jensen excess-3SE {worst_excess:+.3f}, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_07_particle_moments_triangle():
    start = time.perf_counter()
    n = 200
    f = ConstantReadout(1.0)
    # unit point mass at the origin is n particles at branching scale n
    config = BranchingConfig(n=n, dim=1, kernel=Constant(1.0),
                             initial=np.zeros((n, 1)), horizon=1.0,
                             max_population=2_000_000)

    def stat(snaps):
        return np.array(empirical_pairing(snaps[-1], f))

    rows, blowups = run_ensemble(config, [1.0], SEED, 1500, stat)
    rows = rows[np.isfinite(rows).all(axis=1)]
    m1, se1 = rows[:, 0].mean(), rows[:, 0].std(ddof=1) / math.sqrt(len(rows))
    m2, se2 = rows[:, 1].mean(), rows[:, 1].std(ddof=1) / math.sqrt(len(rows))
    closed = math.e + (math.e - 1.0)
    rhs, rhs_se = second_moment_rhs(f, AtomicMeasure.delta([0.0]), 1.0,
                                    Constant(1.0), MCConfig(20000, 0.0125, SEED + 5))
    ok = (len(blowups) == 0
          and abs(m1 - 1.0) <= 3.0 * se1 + GUARD
          and abs(m2 - closed) <= 5.0 * se2 + GUARD
          and abs(rhs - closed) <= 3.0 * rhs_se + GUARD)
    elapsed = time.perf_counter() - start
    assert _line(7, ok, f"mass {m1:.4f}+-{se1:.4f}, square {m2:.3f}+-{se2:.3f} vs {closed:.6f}, "
                        f"pair-integral {rhs:.6f}+-{rhs_se:.1e}, {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_08_martingale_residual_centering():
    start = time.perf_counter()
    n = 100
    config = BranchingConfig(n=n, dim=1, kernel=ScaledTheta(1.0),
                             initial=np.zeros((n, 1)), horizon=1.0,
                             max_population=2_000_000)
    f = GaussianBump(0.0, 1.0)
    saves = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def stat(snaps):
        return martingale_residual(snaps, f)[1][1:]

    rows, blowups = run_ensemble(config, saves, SEED, 1000, stat)
    rows = rows[np.isfinite(rows).all(axis=1)]
    means = rows.mean(axis=0)
    ses = rows.std(axis=0, ddof=1) / math.sqrt(len(rows))
    ratios = np.abs(means) / ses
    ok = len(blowups) == 0 and bool(np.all(ratios <= 3.0))
    elapsed = time.perf_counter() - start
    assert _line(8, ok, f"max |mean|/SE {ratios.max():.2f} over 5 save times, "
                        f"{len(rows)} replicas, {elapsed:.0f}s")
    assert elapsed < 300.0


def test_criterion_09_duality_ladder():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    phi = GridFunction.from_callable(grid, GaussianBump(0.0, 1.0))
    mu = (np.array([1.0]), np.zeros((1, 1)))
    t, dt = 0.5, 2e-3

    # zero kernel: both routes collapse to the same deterministic flow
    level = 1.5
    phi0 = GridFunction.constant(grid, level)
    left0, left0_se = laplace_via_log_laplace(phi0, mu, t, Constant(0.0), SEED + 11, 8, dt)
    right0, right0_se = laplace_via_dual(phi0, mu, t, 10.0, Constant(0.0), SEED + 12, 8, dt)
    closed0 = math.exp(-1.0 / (t / 2.0 + 1.0 / level))
    gap0 = abs(left0 - right0)
    zero_ok = (gap0 <= 2.0 * math.hypot(left0_se, right0_se) + 1e-12
               and abs(left0 - closed0) <= 1e-10 * closed0
               and abs(right0 - closed0) <= 1e-10 * closed0)

    left, left_se = laplace_via_log_laplace(phi, mu, t, Constant(1.0), SEED + 1, 240, dt)
    gaps = []
    counts_ok = True
    for n in (10.0, 40.0, 160.0):
        values, counts = dual_route_samples(phi, mu, t, n, Constant(1.0), SEED + 2, 240, dt)
        right, right_se = mean_se(values)
        gaps.append((abs(left - right), math.hypot(left_se, right_se)))
        c_mean, c_se = mean_se(counts)
        counts_ok = counts_ok and abs(c_mean - n * t) <= 3.0 * c_se
    ladder_ok = all(g_hi <= g_lo + math.hypot(s_lo, s_hi) + GUARD
                    for (g_lo, s_lo), (g_hi, s_hi) in zip(gaps, gaps[1:]))

    report = third_moment_scan(phi, (0.25, 0.5), (10.0, 40.0, 160.0), Constant(1.0),
                               probes=[[0.0], [1.0]], rho=2.0, seed=SEED + 3,
                               n_replicas=240, dt=dt)
    spread = report.spread()
    elapsed = time.perf_counter() - start
    ok = zero_ok and ladder_ok and counts_ok and spread < 0.5
    assert _line(9, ok, f"zero-kernel gap {gap0:.1e}, ladder gaps "
                        f"{[round(g, 4) for g, _ in gaps]}, third-moment spread {spread:.3f}, {elapsed:.0f}s")
    assert elapsed < 600.0


def test_criterion_10_stratonovich_identity():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    f = GridFunction.from_callable(grid, GaussianBump(0.0, 1.0))
    kernel = ScaledTheta(1.0)
    noise = NoisePath(grid, kernel, 1e-4, SEED)
    sol = solve_stratonovich_pam(f, kernel, 1.0, noise)
    elapsed = time.perf_counter() - start
    assert _line(10, sol.route_gap <= 1e-3,
                 f"route gap {sol.route_gap:.1e} at a=1, t=1, dt=1e-4, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_11_lyapunov_and_tail_ladders():
    start = time.perf_counter()
    grid = Grid(1, 8.0, 64)
    est1 = lyapunov_estimate(ScaledTheta(1.0), grid, 6.0, 1e-3, SEED, 8, stratonovich=False)
    est64 = lyapunov_estimate(ScaledTheta(64.0), grid, 6.0, 1e-3, SEED, 8, stratonovich=False)
    frac = float(np.mean(est64.slopes < est1.slopes))

    probes = {(a, t): ldp_tail_probe(ScaledTheta(a, 8.0), grid,
                                     t, 2.0, 1e-3, SEED + 7, 150)
              for a in (2.0, 32.0) for t in (0.5, 6.0)}
    dec_in_a = all(probes[(32.0, t)].fraction < probes[(2.0, t)].fraction for t in (0.5, 6.0))
    dec_in_t = all(probes[(a, 6.0)].fraction < probes[(a, 0.5)].fraction for a in (2.0, 32.0))
    separated = probes[(2.0, 0.5)].interval[0] > probes[(32.0, 6.0)].interval[1]
    elapsed = time.perf_counter() - start
    ok = frac >= 0.9 and dec_in_a and dec_in_t and separated
    fr = {k: p.fraction for k, p in sorted(probes.items())}
    assert _line(11, ok, f"paired slope-decrease fraction {frac:.2f}, tail fractions {fr}, {elapsed:.0f}s")
    assert elapsed < 900.0


def test_criterion_12_replay_bytes_across_worker_counts(tmp_path):
    start = time.perf_counter()
    config_paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.ini")))
    assert len(config_paths) == 8
    checked = []
    for path in config_paths:
        blobs = {}
        manifest = None
        for workers in (1, 4):
            out = tmp_path / f"{os.path.basename(path)}.w{workers}"
            cfg = cli.load_config(path, out_override=str(out))
            report = cli.run_experiment(cfg, workers=workers)
            assert report.exit_code == 0, f"{cfg.experiment} failed under workers={workers}"
            with open(report.csv_path, "rb") as fh:
                blobs[workers] = fh.read()
            manifest = report.manifest_path
        assert blobs[1] == blobs[4], f"{path} CSV differs across worker counts"
        replayed = cli.replay(manifest, workers=1)
        assert replayed.exit_code == 0
        assert replayed.rows[-1].name == "replay-identical-bytes" and replayed.rows[-1].passed
        checked.append(os.path.splitext(os.path.basename(path))[0])
    elapsed = time.perf_counter() - start
    assert _line(12, True, f"{len(checked)} experiments byte-identical for workers 1 vs 4 "
                           f"and under replay, {elapsed:.0f}s")
