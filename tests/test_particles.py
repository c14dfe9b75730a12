"""Branching-system tests.

Forced-environment runs pin the exact combinatorics (doubling, extinction,
truncation); seeded ensembles check criticality, the mean-measure identity
(exact in n, since epoch displacements are Gaussian), the second-moment
closed form for a constant kernel, and the martingale residual.
"""

import math

import numpy as np
import pytest

from sbmre import covariance
from sbmre.covariance import Constant, ScaledTheta, StationaryPower, points_covariance_factor
from sbmre.particles import (
    BranchingConfig,
    ParticlePopulation,
    PopulationBlowupError,
    empirical_pairing,
    martingale_residual,
    run_ensemble,
    snap_to_epoch,
    step_epoch,
)
from sbmre.readouts import ConstantReadout, GaussianBump

SEED = 20260814


def config(n=50, dim=1, kernel=None, k_start=None, horizon=1.0, cap=1_000_000):
    kernel = Constant(0.0) if kernel is None else kernel
    k_start = n if k_start is None else k_start
    return BranchingConfig(n=n, dim=dim, kernel=kernel,
                           initial=np.zeros((k_start, dim)), horizon=horizon,
                           max_population=cap)


def test_config_validation_and_epoch_snapping():
    cfg = config(n=10, horizon=0.52)
    assert cfg.truncation == math.sqrt(10)
    assert snap_to_epoch(0.25, 10) == 3  # half-up
    assert snap_to_epoch(0.24, 10) == 2
    assert snap_to_epoch(0.0, 7) == 0
    with pytest.raises(ValueError):
        config(n=0)
    with pytest.raises(ValueError):
        config(horizon=-1.0)
    with pytest.raises(ValueError):
        BranchingConfig(n=5, dim=2, kernel=Constant(0.0),
                        initial=np.zeros((3, 1)), horizon=1.0)
    with pytest.raises(ValueError):
        config(cap=0)


@pytest.mark.parametrize("name, value", [("n", 2.5), ("dim", 2.5), ("max_population", 2.5),
                                         ("n", True)])
def test_config_counts_must_be_integers(name, value):
    # n = 2.5 and max_population = 2.5 were accepted, and dim = 2.5 was
    # refused only as a mismatch with the initial positions
    counts = {"n": 4, "dim": 1, "max_population": 100, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value!r}"):
        BranchingConfig(kernel=Constant(0.0), initial=np.zeros((3, 1)), horizon=1.0, **counts)


@pytest.mark.parametrize("n_replicas, first_replica, message", [
    (2.5, 0, "n_replicas must be an integer >= 1, got 2.5"),  # was range()'s TypeError
    (2, 0.5, "first_replica must be an integer >= 0, got 0.5"),  # was the stream seed's error
    (2, -1, "first_replica must be an integer >= 0, got -1"),
], ids=["n_replicas-2.5", "first_replica-0.5", "first_replica-negative"])
def test_ensemble_counts_must_be_integers(n_replicas, first_replica, message):
    with pytest.raises(ValueError, match=message):
        run_ensemble(config(n=4, k_start=2), [0.5], SEED, n_replicas, len,
                     first_replica=first_replica)


def test_forced_doubling_and_extinction():
    cfg = config(n=4, k_start=5, horizon=1.0)
    rng = np.random.default_rng(0)
    pop = ParticlePopulation(0, cfg.initial.copy(), cfg.n)
    up = lambda pts: np.full(len(pts), 1e9)  # clipped to +sqrt(n): all split
    for epoch in range(1, 5):
        pop = step_epoch(pop, cfg, [rng], field_override=up)
        assert pop.count == 5 * 2**epoch
        assert pop.epoch == epoch
    down = lambda pts: np.full(len(pts), -1e9)  # all die
    pop = step_epoch(pop, cfg, [rng], field_override=down)
    assert pop.count == 0
    # empty populations stay empty and keep advancing the clock
    pop = step_epoch(pop, cfg, [rng])
    assert pop.count == 0 and pop.epoch == 6
    assert empirical_pairing(pop, ConstantReadout(1.0)) == (0.0, 0.0)


def test_field_override_sees_displaced_positions():
    cfg = config(n=9, k_start=3)
    seen = {}

    def probe(pts):
        seen["pts"] = pts.copy()
        return np.zeros(len(pts))

    rng = np.random.default_rng(1)
    pop = ParticlePopulation(0, cfg.initial.copy(), cfg.n)
    step_epoch(pop, cfg, [rng], field_override=probe)
    assert seen["pts"].shape == (3, 1)
    # displacement variance 1/n per axis: moved points differ from start
    assert np.all(seen["pts"] != 0.0)
    assert np.abs(seen["pts"]).max() < 10 / cfg.truncation


def test_population_bookkeeping_splits_plus_deaths():
    cfg = config(n=16, k_start=64, kernel=ScaledTheta(1.0))
    rng = np.random.default_rng(2)
    pop = ParticlePopulation(0, cfg.initial.copy(), cfg.n)
    for _ in range(10):
        new = step_epoch(pop, cfg, [rng])
        assert new.count % 2 == 0  # offspring come in pairs
        assert 0 <= new.count <= 2 * pop.count
        # offspring sit exactly at parent positions, duplicated
        if new.count:
            assert np.array_equal(new.positions[0::2], new.positions[1::2])
        pop = new


def test_split_frequency_truncated_standard_normal():
    # one particle, one epoch, c=1, n=1: split probability (1 + xi)/2 with xi
    # standard normal truncated at 1; by symmetry the mean probability is 1/2
    cfg = config(n=1, k_start=1, kernel=Constant(1.0))
    rng = np.random.default_rng(SEED)
    trials = 100_000
    splits = 0
    start = ParticlePopulation(0, cfg.initial.copy(), cfg.n)
    for _ in range(trials):
        splits += step_epoch(start, cfg, [rng]).count == 2
    freq = splits / trials
    assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(trials)


def test_cap_breach_raises_and_is_recorded_by_ensemble():
    cfg = config(n=4, k_start=8, horizon=1.0, cap=30)
    up = lambda pts: np.full(len(pts), 1e9)
    rng = np.random.default_rng(3)
    pop = ParticlePopulation(0, cfg.initial.copy(), cfg.n)
    pop = step_epoch(pop, cfg, [rng], field_override=up)  # 16
    pop = step_epoch(pop, cfg, [rng], field_override=up)  # 32 > 30
    with pytest.raises(PopulationBlowupError) as exc:
        step_epoch(pop, cfg, [rng], field_override=up)  # refused before any draw
    assert exc.value.population == 32 and exc.value.cap == 30
    assert exc.value.epoch == 2

    # supercritical-by-chance replicas show up as recorded blowups, not raises
    wild = config(n=2, k_start=20, kernel=Constant(40.0), horizon=3.0, cap=60)
    rows, blowups = run_ensemble(wild, [0.0, 3.0], seed=SEED, n_replicas=40,
                                 statistic=lambda snaps: [s.mass for s in snaps])
    assert len(blowups) > 0
    for r, _epoch, population in blowups:
        assert population > 60
        assert np.isnan(rows[r]).all()
    finite = rows[~np.isnan(rows[:, 0])]
    assert len(finite) == 40 - len(blowups)


def test_batch_step_draws_per_replica_and_skips_empty_replicas():
    # a ragged batch of 2, 0 and 3 particles: the override sees each nonempty
    # replica's own slice, the empty replica draws nothing, and every replica
    # ends where its own batch-of-one step ends
    cfg = config(n=4)
    starts = [np.full((2, 1), -1.0), np.zeros((0, 1)), np.full((3, 1), 1.0)]
    pop = ParticlePopulation(0, np.concatenate(starts), cfg.n, np.array([2, 0, 3]))
    seen = []

    def up(pts):
        seen.append(pts.copy())
        return np.full(len(pts), 1e9)

    rngs = [np.random.default_rng(i) for i in range(3)]
    out = step_epoch(pop, cfg, rngs, field_override=up)
    assert [len(pts) for pts in seen] == [2, 3]
    assert out.counts.tolist() == [4, 0, 6] and out.count == 10 and out.epoch == 1
    assert rngs[1].random() == np.random.default_rng(1).random()
    bounds = out.bounds
    for i, start in enumerate(starts):
        alone = step_epoch(ParticlePopulation(0, start, cfg.n), cfg,
                           [np.random.default_rng(i)], field_override=up)
        assert np.array_equal(alone.positions, out.positions[bounds[i]:bounds[i + 1]])
    with pytest.raises(ValueError):
        step_epoch(pop, cfg, rngs[:2])


@pytest.mark.parametrize("kernel", [Constant(4.0), ScaledTheta(4.0), StationaryPower(1.0, 1.5)])
def test_batch_rows_equal_single_replica_runs(kernel):
    # replicas [2, 10) march as one batch; every row is the row of the replica
    # run alone, and a replica past the cap inside the batch leaves it
    # without touching its neighbours
    cfg = config(n=4, k_start=8, kernel=kernel, horizon=2.0, cap=24)
    times = [0.5, 1.0, 2.0]

    def stat(snaps):
        return [s.mass for s in snaps] + [float(snaps[-1].positions.sum())]

    rows, blowups = run_ensemble(cfg, times, SEED, 8, stat, first_replica=2)
    lost = {r: (epoch, population) for r, epoch, population in blowups}
    assert [r for r, _, _ in blowups] == sorted(lost)  # replica order
    assert 0 < len(lost) < 8 and any(2 < r < 9 for r in lost)
    for r in range(2, 10):
        if r in lost:
            assert np.isnan(rows[r - 2]).all()
            with pytest.raises(PopulationBlowupError) as exc:
                run_ensemble(cfg, times, SEED, 1, stat, first_replica=r)
            assert (exc.value.epoch, exc.value.population) == lost[r]
        else:
            alone, none = run_ensemble(cfg, times, SEED, 1, stat, first_replica=r)
            assert none == [] and np.array_equal(alone[0], rows[r - 2])


def test_constant_field_takes_the_rank_one_draw():
    # the sequence of the rank-1 root: displacement normals, one (1, 1)
    # normal times sqrt(level), clip, then one uniform per particle
    for level in (0.0, 0.3, 40.0):
        cfg = config(n=9, k_start=7, kernel=Constant(level))
        pop = ParticlePopulation(0, np.linspace(-1.0, 1.0, 7)[:, None], cfg.n)
        ref = np.random.default_rng(SEED)
        root_n = cfg.truncation
        moved = pop.positions + ref.standard_normal(pop.positions.shape) / root_n
        xi = np.clip(np.full((7, 1), math.sqrt(level)) @ ref.standard_normal((1, 1)),
                     -root_n, root_n)[:, 0]
        split = ref.random(7) < 0.5 + xi / (2.0 * root_n)
        rng = np.random.default_rng(SEED)
        out = step_epoch(pop, cfg, [rng])
        assert np.array_equal(out.positions, np.repeat(moved[split], 2, axis=0))
        assert rng.random() == ref.random()  # the stream is left where it was


@pytest.mark.parametrize("kernel", [ScaledTheta(2.0, 0.7), StationaryPower(1.0, 1.5)])
def test_gaussian_epoch_takes_each_replica_factor_draw(kernel):
    # the epoch factors the whole batch in one call, yet every stream keeps
    # its order: displacement normals, the draw of the replica's own site
    # factor, then one uniform per particle (2-d, 3, 0, 6 and 1 particles);
    # a kernel that is not positive definite rides the same batch
    cfg = config(n=9, dim=2, kernel=kernel)
    rng = np.random.default_rng(4)
    starts = [rng.normal(size=(count, 2)) for count in (3, 0, 6, 1)]
    pop = ParticlePopulation(0, np.concatenate(starts), cfg.n, np.array([3, 0, 6, 1]))
    rngs = [np.random.default_rng(SEED + i) for i in range(4)]
    out = step_epoch(pop, cfg, rngs)
    root_n = cfg.truncation
    bounds = out.bounds
    for i, start in enumerate(starts):
        ref = np.random.default_rng(SEED + i)
        moved = start + ref.standard_normal(start.shape) / root_n
        offspring = np.zeros((0, 2))
        if len(start):
            xi = np.clip(points_covariance_factor(cfg.kernel, moved).sample(ref),
                         -root_n, root_n)
            split = ref.random(len(start)) < 0.5 + xi / (2.0 * root_n)
            offspring = np.repeat(moved[split], 2, axis=0)
        assert np.array_equal(out.positions[bounds[i]:bounds[i + 1]], offspring)
        assert rngs[i].random() == ref.random()  # each stream is left where it was


def test_dense_site_cap_is_a_counted_blowup(monkeypatch):
    monkeypatch.setattr(covariance, "DENSE_LIMIT", 20)
    scaled = config(n=4, k_start=25, kernel=ScaledTheta(1.0))
    assert scaled.population_cap == 20
    assert config(n=4, kernel=ScaledTheta(1.0), cap=10).population_cap == 10
    assert config(n=4, kernel=Constant(1.0), cap=50).population_cap == 50
    pop = ParticlePopulation(0, scaled.initial.copy(), scaled.n)
    with pytest.raises(PopulationBlowupError) as exc:
        step_epoch(pop, scaled, [np.random.default_rng(0)])
    assert exc.value.population == 25 and exc.value.cap == 20
    # the site count never reaches the factor's limit; breaches are counted
    wild = config(n=2, k_start=12, kernel=ScaledTheta(40.0), horizon=3.0)
    rows, blowups = run_ensemble(wild, [3.0], seed=SEED, n_replicas=40,
                                 statistic=lambda snaps: [snaps[-1].mass])
    assert 0 < len(blowups) < 40
    for r, _epoch, population in blowups:
        assert population > 20
        assert np.isnan(rows[r]).all()
    with pytest.raises(PopulationBlowupError):
        run_ensemble(scaled, [1.0], seed=SEED, n_replicas=2,
                     statistic=lambda snaps: [snaps[-1].mass])


def snapshots(cfg, save_times, seed):
    """The snapshots of replica 0 of run_ensemble(cfg, save_times, seed, 1, ...)."""
    kept = []
    run_ensemble(cfg, save_times, seed, 1, lambda snaps: kept.append(snaps) or [0.0])
    return kept[0]


def test_run_snapshots_snap_and_are_deterministic():
    cfg = config(n=10, k_start=30, kernel=ScaledTheta(0.5), horizon=1.0)
    times = [0.0, 0.24, 0.25, 1.0]
    snaps1 = snapshots(cfg, times, SEED)
    snaps2 = snapshots(cfg, times, SEED)
    assert [s.epoch for s in snaps1] == [0, 2, 3, 10]
    assert snaps1[0].count == 30
    for a, b in zip(snaps1, snaps2):
        assert np.array_equal(a.positions, b.positions)
    other = snapshots(cfg, times, SEED + 1)
    assert not np.array_equal(snaps1[-1].positions, other[-1].positions)
    with pytest.raises(ValueError):
        snapshots(cfg, [1.5], SEED)
    with pytest.raises(ValueError):
        snapshots(cfg, [-0.1], SEED)
    assert snapshots(config(horizon=0.0), [0.0], SEED)[0].count == 50


def test_pairing_formulas_exact():
    f = GaussianBump(center=0.3, width=0.9)
    one = ParticlePopulation(0, np.array([[0.7]]), 10)
    first, second = empirical_pairing(one, f)
    fx = float(f(np.array([[0.7]]))[0])
    assert abs(first - fx / 10) < 1e-15
    assert abs(second - fx * fx / 100) < 1e-15
    two = ParticlePopulation(0, np.array([[0.0], [1.0]]), 7)
    assert empirical_pairing(two, ConstantReadout(1.0)) == (2 / 7, 4 / 49)


def test_mass_martingale_and_mean_measure():
    # critical branching preserves expected mass for any kernel
    cfg = config(n=50, k_start=50, kernel=Constant(0.0), horizon=0.5)
    rows, blow = run_ensemble(cfg, [0.5], seed=SEED + 1, n_replicas=400,
                              statistic=lambda snaps: [snaps[0].mass])
    assert not blow
    mass = rows[:, 0]
    se = mass.std(ddof=1) / math.sqrt(len(mass))
    assert abs(mass.mean() - 1.0) < 3 * se

    # mean measure follows the exact heat flow (epoch sums of Gaussians)
    f = GaussianBump(center=0.0, width=1.0)
    cfg = config(n=100, k_start=100, kernel=Constant(1.0), horizon=0.5)
    rows, blow = run_ensemble(cfg, [0.5], seed=SEED + 2, n_replicas=1000,
                              statistic=lambda snaps: [empirical_pairing(snaps[0], f)[0]])
    assert not blow
    vals = rows[:, 0]
    target = float(f.heat_flow(0.5, np.zeros((1, 1)))[0])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se

    # same identity under a genuinely spatial kernel
    cfg = config(n=40, k_start=40, kernel=ScaledTheta(1.0), horizon=0.25)
    rows, blow = run_ensemble(cfg, [0.25], seed=SEED + 3, n_replicas=200,
                              statistic=lambda snaps: [empirical_pairing(snaps[0], f)[0]])
    assert not blow
    vals = rows[:, 0]
    target = float(f.heat_flow(0.25, np.zeros((1, 1)))[0])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_second_moment_constant_kernel_closed_form():
    # E<1,X_t>^2 -> e^(ct) + (e^(ct)-1)/c as n grows; n=100 sits within the
    # Monte Carlo band of the limit at these sizes
    c, t = 1.0, 0.5
    cfg = config(n=100, k_start=100, kernel=Constant(c), horizon=t)
    rows, blow = run_ensemble(cfg, [t], seed=SEED + 4, n_replicas=1500,
                              statistic=lambda snaps: [snaps[0].mass])
    assert not blow
    sq = rows[:, 0] ** 2
    target = math.exp(c * t) + (math.exp(c * t) - 1.0) / c
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - target) < 5 * se


def test_martingale_residual_zero_readout_and_centering():
    cfg = config(n=50, k_start=50, kernel=Constant(1.0), horizon=0.5)
    zero = ConstantReadout(0.0)
    times, resid = martingale_residual(snapshots(cfg, np.linspace(0, 0.5, 6), SEED), zero)
    assert np.array_equal(resid, np.zeros(6))

    f = GaussianBump(center=0.0, width=1.0)
    save = np.linspace(0.0, 0.5, 6)

    def stat(snaps):
        # the variance predictor int_0^t <f^2, X_s> + c <f, X_s>^2 ds of the
        # constant kernel c, by the trapezoid rule over the snapshot times
        times, resid = martingale_residual(snaps, f)
        rate = [float(np.sum(f(s.positions) ** 2)) / s.n
                + cfg.kernel.level * empirical_pairing(s, f)[0] ** 2 for s in snaps]
        pred = np.concatenate([[0.0], np.cumsum(
            0.5 * (np.array(rate)[1:] + np.array(rate)[:-1]) * np.diff(times))])
        return np.concatenate([resid, pred])

    rows, blow = run_ensemble(cfg, save, seed=SEED + 5, n_replicas=500,
                              statistic=stat)
    assert not blow
    resid, pred = rows[:, :6], rows[:, 6:]
    assert np.abs(resid[:, 0]).max() == 0.0
    for j in range(1, 6):
        se = resid[:, j].std(ddof=1) / math.sqrt(len(rows))
        assert abs(resid[:, j].mean()) < 3 * se
    # variance tracks the integrated quadratic-variation predictor
    for j in (3, 5):
        var = resid[:, j].var(ddof=1)
        se_var = (resid[:, j] ** 2).std(ddof=1) / math.sqrt(len(rows))
        mean_pred = pred[:, j].mean()
        se_pred = pred[:, j].std(ddof=1) / math.sqrt(len(rows))
        assert abs(var - mean_pred) < 5 * math.hypot(se_var, se_pred)
