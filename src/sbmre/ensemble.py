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
A WorkerPool carries one pool across many map_batches calls (an experiment
run owns one), so the processes start once per run, not once per call.

Every estimate is reduced by mean_se, a two-pass mean and standard error.
It drops non-finite values, which only the particle ensembles produce (a
replica past its population cap, counted separately); the path samplers
raise FloatingPointError on a non-finite value before they reduce.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

import numpy as np

BATCH_SIZE = 32


def stream_rng(seed: int, key: tuple) -> np.random.Generator:
    """The generator of stream `key` under the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def batch_ranges(total: int, batch_size: int = BATCH_SIZE) -> list:
    """[(b, lo, hi), ...] covering replicas 0..total-1 in fixed-size batches."""
    return [(b, lo, min(lo + batch_size, total))
            for b, lo in enumerate(range(0, total, batch_size))]


class WorkerPool:
    """At most one process pool for many map_batches calls, started on first use.

    Sized as one call's own pool would be, min(workers, batches); a later call
    with more batches to spread replaces it by a larger one.  Close it, or use
    it as a context manager, to stop the processes.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self._size = 1
        self._pool = None
        self._stack = ExitStack()

    def map(self, fn, jobs: list) -> list:
        """[fn(*job) for job in jobs], in order; in-process when one process is enough."""
        size = min(self.workers, len(jobs))
        if size <= 1:
            return [fn(*job) for job in jobs]
        if size > self._size:
            self.close()
            self._pool = self._stack.enter_context(ProcessPoolExecutor(max_workers=size))
            self._size = size
        return list(self._pool.map(fn, *zip(*jobs)))

    def close(self):
        self._stack.close()
        self._size, self._pool = 1, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def map_batches(fn, total: int, args: tuple = (), workers=1) -> list:
    """[fn(*args, b, lo, hi) for every batch], in batch order.

    workers is a process count or a WorkerPool to run on; a count above 1
    starts a pool for this call only.  fn and args must be picklable when
    batches run on a pool; the pool only changes which process computes a
    batch, and never starts more processes than there are batches.
    """
    jobs = [tuple(args) + batch for batch in batch_ranges(total)]
    if isinstance(workers, WorkerPool):
        return workers.map(fn, jobs)
    with WorkerPool(workers) as pool:
        return pool.map(fn, jobs)


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
