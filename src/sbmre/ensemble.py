"""Replica batches: the one rule for keying, distributing and reducing replicas.

Replicas are cut into batches of BATCH_SIZE; batch b covers replicas [lo, hi)
and keys its random streams by b or by absolute replica index, never by the
worker that runs it.  Batches may run on a process pool, but results come back
in batch order, so reductions depend only on the seed, not on the worker count.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

BATCH_SIZE = 32


def batch_ranges(total: int, batch_size: int = BATCH_SIZE) -> list:
    """[(b, lo, hi), ...] covering replicas 0..total-1 in fixed-size batches."""
    return [(b, lo, min(lo + batch_size, total))
            for b, lo in enumerate(range(0, total, batch_size))]


def map_batches(fn, total: int, args: tuple = (), workers: int = 1) -> list:
    """[fn(*args, b, lo, hi) for every batch], in batch order.

    fn and args must be picklable when workers > 1; the pool only changes
    which process computes a batch.
    """
    jobs = [tuple(args) + batch for batch in batch_ranges(total)]
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def mean_se(values) -> tuple:
    """(mean, standard error) over the finite entries; needs two of them."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size < 2:
        raise ValueError("fewer than two finite replicas; cannot form an SE")
    return float(values.mean()), float(values.std(ddof=1)) / math.sqrt(values.size)
