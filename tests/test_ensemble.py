"""Tests of the one keying, batching and reduction layer (sbmre.ensemble)."""

import math

import numpy as np
import pytest

from sbmre import ensemble
from sbmre.ensemble import BATCH_SIZE, batch_ranges, map_batches, mean_se, stream_rng


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


def test_map_batches_keeps_batch_order_whatever_the_worker_count():
    total = 2 * BATCH_SIZE + 5
    serial = map_batches(_batch_sum, total, (2.0,))
    assert [r[:3] for r in serial] == batch_ranges(total)
    for workers in (2, 3):
        assert map_batches(_batch_sum, total, (2.0,), workers) == serial
    # one batch never starts a pool
    assert map_batches(_batch_sum, 3, (1.0,), workers=2) == [_batch_sum(1.0, 0, 0, 3)]


def serial_pools(monkeypatch) -> list:
    """Swap in a pool that maps in-process, so no process starts; returns the sizes asked for."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", SerialPool)
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
