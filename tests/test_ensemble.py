"""Tests of the one keying, batching and reduction layer (sbmre.ensemble)."""

import configparser
import math
from pathlib import Path

import numpy as np
import pytest

from sbmre import cli, ensemble
from sbmre.ensemble import (BATCH_SIZE, batch_jobs, batch_ranges, map_batches, mean_se,
                            run_jobs, stream_rng)
from sbmre.particles import PopulationBlowupError
from sbmre.spde import SchemeOverflowError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _batch_sum(scale, b, lo, hi):
    # a worker-independent function of the batch: its own stream and its replica range
    draws = stream_rng(5, (b,)).standard_normal(hi - lo)
    return b, lo, hi, float(scale * np.sum(draws))


@pytest.mark.parametrize("total", [1, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1,
                                   3 * BATCH_SIZE + 7])
def test_batch_ranges_cover_every_replica_once(total):
    ranges = batch_ranges(total)
    assert [b for b, _, _ in ranges] == list(range(math.ceil(total / BATCH_SIZE)))
    assert ranges[0][1] == 0 and ranges[-1][2] == total
    for (_, _, hi), (_, lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo
    assert all(0 < hi - lo <= BATCH_SIZE for _, lo, hi in ranges)
    assert all(hi - lo == BATCH_SIZE for _, lo, hi in ranges[:-1])


def test_batch_ranges_of_nothing_and_other_sizes():
    assert batch_ranges(0) == []
    assert batch_ranges(5, batch_size=2) == [(0, 0, 2), (1, 2, 4), (2, 4, 5)]
    # a batch size below 1 would cover nothing (-3) or fail inside range() (0)
    for size in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            batch_ranges(10, batch_size=size)


@pytest.mark.parametrize("total, batch_size, name", [
    (2.5, 2, "total"), (-1, 2, "total"), (True, 2, "total"),
    (10, 2.5, "batch_size"), (10, 2.0, "batch_size"), (10, True, "batch_size")])
def test_batch_ranges_refuse_counts_that_are_not_integers(total, batch_size, name):
    # a float once reached range() and raised its TypeError; a bool passed as 1
    with pytest.raises(ValueError, match=name):
        batch_ranges(total, batch_size)


def test_map_batches_keeps_batch_order_whatever_the_worker_count():
    total = 2 * BATCH_SIZE + 5
    serial = map_batches(_batch_sum, total, (2.0,))
    assert [r[:3] for r in serial] == batch_ranges(total)
    for workers in (2, 3):
        assert map_batches(_batch_sum, total, (2.0,), workers) == serial
    # one batch never starts a pool
    assert map_batches(_batch_sum, 3, (1.0,), workers=2) == [_batch_sum(1.0, 0, 0, 3)]


def serial_pools(monkeypatch, jobs: list = None) -> list:
    """Swap in a pool that maps in-process, so no process starts; returns the sizes asked for.

    Each job mapped on such a pool is appended to `jobs` when a list is given.
    """
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def shutdown(self):
            pass

        def map(self, fn, *iterables):
            if jobs is not None:
                jobs.extend(iterables[0])
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return asked


def test_map_batches_sizes_the_pool_to_the_batch_count(monkeypatch):
    asked = serial_pools(monkeypatch)
    total = 2 * BATCH_SIZE
    assert map_batches(_batch_sum, total, (2.0,), workers=16) \
        == [_batch_sum(2.0, *batch) for batch in batch_ranges(total)]
    assert asked == [2]


def test_worker_pool_starts_once_and_grows_only_for_more_batches(monkeypatch):
    asked = serial_pools(monkeypatch)
    with ensemble.WorkerPool(4) as pool:
        for total in (2 * BATCH_SIZE, 2 * BATCH_SIZE, 3, 5 * BATCH_SIZE, 3 * BATCH_SIZE):
            assert map_batches(_batch_sum, total, (2.0,), pool) \
                == [_batch_sum(2.0, *batch) for batch in batch_ranges(total)]
    # one batch runs in-process; a larger pool only when more batches can use it
    assert asked == [2, 4]


def test_run_jobs_returns_each_job_in_order_on_any_pool(monkeypatch):
    # batches and an unrelated job in one list
    jobs = batch_jobs(_batch_sum, 3 * BATCH_SIZE, (2.0,)) + [(divmod, 7, 2)]
    serial = [_batch_sum(2.0, *batch) for batch in batch_ranges(3 * BATCH_SIZE)] + [(3, 1)]
    assert run_jobs(jobs) == serial
    asked = serial_pools(monkeypatch)
    with ensemble.WorkerPool(2) as pool:
        assert run_jobs(jobs, pool) == serial
        assert run_jobs(jobs[-1:], pool) == serial[-1:]  # one job runs in-process
    assert asked == [2]


def _raise(error):
    raise error


@pytest.mark.parametrize("error", [
    SchemeOverflowError("state left the finite range at step 7", 7),
    PopulationBlowupError(120, 3, 100),
], ids=lambda error: type(error).__name__)
def test_a_job_error_reaches_the_caller_whole_from_a_pool(error):
    # the lab's errors with extra constructor arguments must unpickle in the
    # parent, or the pool reports a broken process instead of the error
    with pytest.raises(type(error)) as caught:
        run_jobs([(_raise, error), (abs, -1)], workers=2)
    assert str(caught.value) == str(error)
    assert vars(caught.value) == vars(error)


def _run_on_serial_pool(monkeypatch, tmp_path, name: str, **overrides) -> list:
    """Names of the job functions a shipped config's run at --workers 2 puts on its pool."""
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / f"{name}.ini")
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        parser[section][key] = value
    path = tmp_path / f"{name}.ini"
    with open(path, "w") as handle:
        parser.write(handle)
    jobs = []
    serial_pools(monkeypatch, jobs)
    cfg = cli.load_config(str(path), out_override=str(tmp_path / "out"))
    assert cli.run_experiment(cfg, workers=2).exit_code == 0
    return [job[0].__name__ for job in jobs]


def test_experiments_put_every_independent_unit_on_the_pool(monkeypatch, tmp_path):
    # moments-triangle: two particle batches, then the oracle's three qtc
    # chunks and its 80 strata (t = 1 on a 0.0125 mesh)
    assert _run_on_serial_pool(monkeypatch, tmp_path, "moments-triangle",
                               **{"mc.replicas": "64", "mc.paths": "9000", "params.n": "50"}) \
        == ["_particle_batch"] * 2 + ["_qtc_chunk"] * 3 + ["_diagonal_stratum"] * 80
    # lyapunov-ladder: its two growth-rate marches and its two tail marches
    assert _run_on_serial_pool(monkeypatch, tmp_path, "lyapunov-ladder") \
        == ["lyapunov_estimate"] * 2 + ["ldp_tail_probes"] * 2
    # extinction-scan: the noise-off closed-form march next to its one batch
    assert _run_on_serial_pool(monkeypatch, tmp_path, "extinction-scan") \
        == ["_noise_off_routes", "_log_laplace_mean_batch"]
    # comparison-suite: four batches, the noise-off march and the Stratonovich march
    assert _run_on_serial_pool(monkeypatch, tmp_path, "comparison-suite") \
        == ["_comparison_batch"] * 4 + ["_zero_kernel_gap", "_stratonovich_gap"]
    # duality-ladder: the zero-kernel pair, the log-Laplace route's three
    # batches, three dual batches per rung, then one third-moment batch per rung
    assert _run_on_serial_pool(monkeypatch, tmp_path, "duality-ladder") \
        == ["laplace_via_log_laplace", "laplace_via_dual"] + ["_log_laplace_batch"] * 3 \
        + ["_dual_batch"] * 6 + ["_dual_batch"] * 2


def test_mean_se_drops_non_finite_values():
    mean, se = mean_se([1.0, np.nan, 3.0, np.inf, -np.inf])
    assert mean == 2.0
    assert se == pytest.approx(1.0)


def test_mean_se_needs_two_finite_values():
    with pytest.raises(ValueError):
        mean_se([1.0, np.nan, np.inf])
    with pytest.raises(ValueError):
        mean_se([])


def test_mean_se_standard_error_is_shift_invariant():
    values = np.random.default_rng(3).standard_normal(5000) * 0.5
    mean, se = mean_se(values)
    shifted_mean, shifted_se = mean_se(values + 1e9)
    assert se == pytest.approx(0.5 / math.sqrt(values.size), rel=0.05)
    assert shifted_se == pytest.approx(se, rel=1e-6)
    assert shifted_mean - 1e9 == pytest.approx(mean, abs=1e-6)


def test_stream_rng_is_the_spawn_keyed_seed_sequence():
    for seed, key in [(20260814, ()), (7, (3,)), (7, (0, 12)), (1, (2, 1, 4))]:
        old = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
        assert np.array_equal(stream_rng(seed, key).standard_normal(16),
                              old.standard_normal(16))
    assert not np.array_equal(stream_rng(7, (0, 1)).random(4), stream_rng(7, (1, 0)).random(4))
