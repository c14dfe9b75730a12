"""Runs over a workload, in one fresh interpreter started by perfbench/run.py.

    python3 perfbench/passrun.py --workload NAME --workers K[,K...] --seed N \
        --work DIR --result FILE [--seconds S] [--trace FILE] [--setup-only]

Set-up is importing sbmre.cli and loading the workload's configs; the process
stamps `ready` (CLOCK_MONOTONIC, shared with the parent) when set-up is done.
A run is one config through sbmre.cli.main, or the library segment, at one
worker count.  The process cycles through the workload's runs, each config at
every worker count in turn (config 1 at --workers 1, config 1 at --workers 2,
config 2 at --workers 1, ...), so that every worker count is measured across
the whole window and a slow stretch of the machine falls on all of them
alike.  The first cycle always completes; after it, a run starts only while
its previous repeat would still end within S seconds of the first run's start.
The JSON result holds, per run, the worker count, cycle, seconds, exit code,
CSV digest and the names of failed checks; and the peak resident set of this
process and of its pool workers.  With --trace the layers are wrapped
(perfbench/tracing.py), the spans are written to FILE and the per-layer
metrics go into the result.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from sbmre import cli  # noqa: E402

import workloads  # noqa: E402


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {"python": platform.python_version(), "sbmre": sys.modules["sbmre"].__version__}
    for pkg in ("numpy", "scipy"):
        versions[pkg] = importlib.metadata.version(pkg)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "versions": versions,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _run_config(run_main, experiment: str, path: str, seed: int, workers: int,
                outdir: str) -> dict:
    argv = [experiment, "--config", path, "--seed", str(seed),
            "--workers", str(workers), "--out", outdir]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run_main(argv)
    except Exception as err:  # an escaped exception is a failed run, not a crash of the process
        rc = f"{type(err).__name__}: {err}"
    out = {"rc": rc, "sha256": None, "failed_checks": []}
    csv = os.path.join(outdir, f"{experiment}.csv")
    if os.path.exists(csv):
        with open(csv, "rb") as handle:
            data = handle.read()
        out["sha256"] = hashlib.sha256(data).hexdigest()
        for line in data.decode().splitlines()[1:]:
            fields = line.split(",")
            if fields[4] != "pass":
                out["failed_checks"].append(fields[1])
    return out


def _run_cycles(steps: list, seconds: float, run_step) -> list:
    """Every (name, workers) step once per cycle, while each fits in the window."""
    runs, last = [], {}
    first_start = time.perf_counter()
    for cycle in itertools.count():
        for name, workers in steps:
            if cycle and time.perf_counter() - first_start + last[name, workers] > seconds:
                return runs
            start = time.perf_counter()
            run = run_step(name, workers, cycle)
            run.update(name=name, workers=workers, cycle=cycle,
                       seconds=time.perf_counter() - start)
            runs.append(run)
            last[name, workers] = run["seconds"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--workers", required=True,
                    type=lambda text: [int(k) for k in text.split(",")])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    paths = [workloads.config_path(name) for name in wl.configs]
    experiments = [cli.load_config(p, seed_override=args.seed).experiment for p in paths]
    result = {"ready": time.monotonic(), "machine": _machine()}
    if args.setup_only:
        with open(args.result, "w") as handle:
            json.dump(result, handle)
        return 0

    tracer = None
    run_main, run_library = cli.main, workloads.run_library_segment
    if args.trace:
        import tracing
        from sbmre import covariance, dual, feynmankac, heatkernel, particles, spde

        tracer = tracing.Tracer()
        tracer.install({"covariance": covariance, "heatkernel": heatkernel, "spde": spde,
                        "particles": particles, "feynmankac": feynmankac, "dual": dual,
                        "cli": cli})
        run_main = tracer.wrap("cli.run", run_main)
        run_library = tracer.wrap("library.segment", run_library)

    configs = dict(zip(wl.configs, zip(paths, experiments)))

    def run_step(name: str, workers: int, cycle: int) -> dict:
        if name == "library":
            return run_library(args.seed)
        path, experiment = configs[name]
        outdir = os.path.join(args.work, f"c{cycle}-w{workers}", os.path.splitext(name)[0])
        return _run_config(run_main, experiment, path, args.seed, workers, outdir)

    names = list(wl.configs) + (["library"] if wl.library else [])
    steps = [(name, w) for name in names for w in args.workers]
    runs = _run_cycles(steps, args.seconds, run_step)

    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = tracer.layer_metrics()
    result["runs"] = runs
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = rss_kb / 1024.0
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
