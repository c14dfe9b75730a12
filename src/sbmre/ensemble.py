"""Monte Carlo ensembles: the one rule for keying, distributing and reducing draws.

Every random stream in the lab is stream_rng(seed, key): a generator on the
SeedSequence spawn key `key` of the root seed, so a draw depends only on
(seed, key), never on the process or the order that asks for it.  Keys name
what is drawn: a replica batch (b,), a replica (r,), a noise chunk, a dual
clock or mark, a pair-path chunk (tag, c).

Replicas are cut into batches of BATCH_SIZE; batch b covers replicas [lo, hi)
and keys its streams by b or by absolute replica index, never by the worker
that runs it.  Batches may run on a process pool, but results come back in
batch order, so reductions depend only on the seed, not on the worker count.

Every estimate is reduced by mean_se, a two-pass mean and standard error.
It drops non-finite values, which only the particle ensembles produce (a
replica past its population cap, counted separately); the path samplers
raise FloatingPointError on a non-finite value before they reduce.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

BATCH_SIZE = 32


def stream_rng(seed: int, key: tuple) -> np.random.Generator:
    """The generator of stream `key` under the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def batch_ranges(total: int, batch_size: int = BATCH_SIZE) -> list:
    """[(b, lo, hi), ...] covering replicas 0..total-1 in fixed-size batches."""
    return [(b, lo, min(lo + batch_size, total))
            for b, lo in enumerate(range(0, total, batch_size))]


def map_batches(fn, total: int, args: tuple = (), workers: int = 1) -> list:
    """[fn(*args, b, lo, hi) for every batch], in batch order.

    fn and args must be picklable when workers > 1; the pool only changes
    which process computes a batch, and never starts more processes than
    there are batches.
    """
    jobs = [tuple(args) + batch for batch in batch_ranges(total)]
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def mean_se(values) -> tuple:
    """(mean, standard error) over the finite entries; needs two of them.

    Two passes (the mean, then squared deviations from it), so the SE does
    not cancel away when the values sit far from zero.
    """
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size < 2:
        raise ValueError("fewer than two finite replicas; cannot form an SE")
    return float(values.mean()), float(values.std(ddof=1)) / math.sqrt(values.size)
