"""Monte Carlo ensembles: the one rule for keying, distributing and reducing draws.

Every random stream in the lab is stream_rng(seed, key): a generator on the
SeedSequence spawn key `key` of the root seed, so a draw depends only on
(seed, key), never on the process or the order that asks for it.  Keys name
what is drawn: a replica batch (b,), a replica (r,), a noise chunk, a dual
clock or mark, a pair-path chunk (tag, c).

A job is a tuple (fn, *args) that draws only from its own keyed streams, and
run_jobs runs a list of them, in-process or on a process pool, returning
fn(*args) in job order; reductions therefore depend only on the seed, not on
the worker count.  Jobs are replica batches, chunks of a pair-path sampler or
strata of its time integral, or whole marches that share nothing with the
rest of their experiment.  Replicas are cut into batches of BATCH_SIZE; batch
b covers replicas [lo, hi) and keys its streams by b or by absolute replica
index, never by the worker that runs it (map_batches).  A WorkerPool carries
one pool across many run_jobs calls (an experiment run owns one), so the
processes start once per run, not once per call; it is never an argument of
a job, so a job never starts a pool of its own inside a worker.

A draw too large for the cache is split into blocks of at most BLOCK_VALUES
values (256 KB of float64) where the stream allows it: the pair-path chunks
of feynmankac and the steps of an spde.NoisePath.  Blocks only split the
arithmetic, never a stream key, so the values are the unblocked ones.

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
BLOCK_VALUES = 32768  # values per block of a blocked draw: 256 KB per float64 array


def stream_rng(seed: int, key: tuple) -> np.random.Generator:
    """The generator of stream `key` under the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def require_count(name: str, value, minimum: int = 1) -> int:
    """value as an int; ValueError naming `name` unless it is an integer (not a
    bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def batch_ranges(total: int, batch_size: int = BATCH_SIZE) -> list:
    """[(b, lo, hi), ...] covering replicas 0..total-1 in fixed-size batches."""
    total = require_count("total", total, 0)
    batch_size = require_count("batch_size", batch_size)
    return [(b, lo, min(lo + batch_size, total))
            for b, lo in enumerate(range(0, total, batch_size))]


def _run(job):
    fn, *args = job
    return fn(*args)


class WorkerPool:
    """At most one process pool for many run_jobs calls, started on first use.

    Sized as one call's own pool would be, min(workers, jobs); a later call
    with more jobs to spread replaces it by a larger one.  Close it, or use
    it as a context manager, to stop the processes.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self._size = 1
        self._pool = None
        self._stack = ExitStack()

    def run(self, jobs: list) -> list:
        """[fn(*args) for fn, *args in jobs], in order; in-process when one process is enough."""
        size = min(self.workers, len(jobs))
        if size <= 1:
            return [_run(job) for job in jobs]
        if size > self._size:
            self.close()
            self._pool = self._stack.enter_context(ProcessPoolExecutor(max_workers=size))
            self._size = size
        return list(self._pool.map(_run, jobs))

    def close(self):
        self._stack.close()
        self._size, self._pool = 1, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def run_jobs(jobs, workers=1) -> list:
    """[fn(*args) for fn, *args in jobs], in job order.

    workers is a process count or a WorkerPool to run on; a count above 1
    starts a pool for this call only.  Each fn and its args must be picklable
    when jobs run on a pool; the pool only changes which process computes a
    job, and never starts more processes than there are jobs.
    """
    jobs = list(jobs)
    if isinstance(workers, WorkerPool):
        return workers.run(jobs)
    with WorkerPool(workers) as pool:
        return pool.run(jobs)


def batch_jobs(fn, total: int, args: tuple = ()) -> list:
    """[(fn, *args, b, lo, hi) for every batch of total replicas]: one job a batch."""
    return [(fn, *args, *batch) for batch in batch_ranges(total)]


def map_batches(fn, total: int, args: tuple = (), workers=1) -> list:
    """[fn(*args, b, lo, hi) for every batch], in batch order: run_jobs of batch_jobs."""
    return run_jobs(batch_jobs(fn, total, args), workers)


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
