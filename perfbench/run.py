"""Benchmark of the sbmre experiment runner: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs building or installing
(the processes import `src/` directly).  Workloads are defined, with the reason
each was chosen, in perfbench/workloads.py.

Closed loop: this process starts one process at a time, each a fresh
interpreter (perfbench/passrun.py).  A run is one config of the workload
through sbmre.cli.main, or the library segment where the workload has one, at
one worker count; a pass is every run of the workload at one worker count.
The measuring process cycles through the runs for --seconds seconds, each
config at --workers 1 and then at --workers 2 before the next config, so both
worker counts are sampled across the whole window: the machine's speed drifts
by tens of percent over tens of seconds, and a worker count measured only in
one half of the window would carry that drift.  The first cycle always
completes.  Every process runs with one BLAS/OpenMP thread, so workers x
threads <= nproc.

--trace 0 prints the end-to-end metrics:
  wall_s_w1    seconds per pass at --workers 1: the sum over the workload's
               runs of each run's mean seconds over its repeats, the time
               inside sbmre.cli.main (or the library segment); interpreter
               start and imports are excluded
  wall_s_w2    the same at --workers 2, process-pool start included
  setup_s      fresh interpreter to `import sbmre.cli` plus config load,
               median over every process the run starts (3 set-up-only
               probes and the measuring process)
  peak_rss_mb  largest resident set of any single process (measuring process
               or pool worker)
--trace 1 runs one untraced and one traced pass at --workers 1, each in its
own process, and prints the per-layer metrics of perfbench/tracing.py plus
trace.overhead_s, the traced pass's seconds minus the untraced one's.  The
traced pass must reproduce the untraced pass's bytes.  Spans are written to
perfbench/_work/<workload>/spans.json.

Every run is checked: the exit code, byte identity of its CSV with the same
config's first --workers 1 run, and the library check.  failed_frac = failed
runs / attempted runs.  CSV digests are compared with perfbench/digests.json,
which holds them for the frozen seed, and a change is reported as "bytes
changed", not counted as a failure.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could not run
(for example, no sbmre source tree); no result line is printed then.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 3  # set-up-only processes per run, on top of the measuring process
BUDGET_S = 170.0  # whole-run limit; a process still running then is killed


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


class Runner:
    """Starts passrun processes one at a time and collects their JSON results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(HERE, "_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.count = 0

    def spawn(self, workers=(1,), seconds: float = 0.0, trace: bool = False,
              setup_only: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count:02d}"
        result_path = os.path.join(self.work, tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.workload, "--workers", ",".join(map(str, workers)),
               "--seed", str(self.seed), "--work", os.path.join(self.work, tag),
               "--result", result_path, "--seconds", str(seconds)]
        if trace:
            cmd += ["--trace", os.path.join(self.work, "spans.json")]
        if setup_only:
            cmd.append("--setup-only")
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"process {tag} did not finish within the run budget") from None
        finally:  # on timeout or interrupt, kill the process and its pool workers
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"process {tag} exited with {proc.returncode}: " + " | ".join(tail))
        with open(result_path) as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - started
        return result


def run_failure(name: str, run: dict, reference: dict, seed: int):
    """Why this run failed, or None.  `reference` is the same config's first w1 run."""
    if name == "library":
        if not run["ok"]:
            return "library check failed: " + run["detail"]
    else:
        rc = run["rc"]
        if rc not in (0, 1):
            return f"exit {rc}"
        failed = run["failed_checks"]
        if seed != workloads.FROZEN_SEED:
            failed = [c for c in failed if not c.startswith(workloads.STATISTICAL_CHECKS)]
        if failed:
            return "failed checks: " + ", ".join(failed)
    if run["sha256"] != reference["sha256"]:
        return "output bytes differ from the first --workers 1 run"
    return None


def first_pass(runs: list) -> dict:
    """name -> run, the first --workers 1 run of each name: the byte reference."""
    first = {}
    for run in runs:
        if run["workers"] == 1:
            first.setdefault(run["name"], run)
    return first


def check(runs: list, seed: int) -> tuple:
    """(attempted, failed, problems, notes) over every run."""
    reference = first_pass(runs)
    failed, problems, notes = 0, [], []
    for run in runs:
        name, where = run["name"], f"{run['name']} at --workers {run['workers']}"
        why = run_failure(name, run, reference[name], seed)
        if why:
            failed += 1
            problems.append(f"{where}: {why}")
        elif name != "library" and run["failed_checks"]:
            notes.append(f"{where}: statistical gates failed at seed {seed} (calibrated "
                         f"at {workloads.FROZEN_SEED}): " + ", ".join(run["failed_checks"]))
    return len(runs), failed, problems, notes


def pass_seconds(runs: list, workers: int) -> tuple:
    """(seconds per pass at this worker count, fewest repeats of any run).

    A pass is the sum over the workload's runs of each run's mean seconds over
    its repeats: a time average over the window.  The machine's speed moves in
    steps that last tens of seconds, so a median of a few repeats follows
    whichever step most of them fell in, while the mean weighs every step by
    its length and varies less from run to run.
    """
    repeats = {}
    for run in runs:
        if run["workers"] == workers:
            repeats.setdefault(run["name"], []).append(run["seconds"])
    return (sum(statistics.fmean(v) for v in repeats.values()),
            min(len(v) for v in repeats.values()))


def digest_report(runs: dict, workload: str, seed: int) -> str:
    with open(os.path.join(HERE, "digests.json")) as handle:
        stored = json.load(handle).get(str(seed), {}).get(workload)
    if stored is None:
        return f"no stored digests for seed {seed}"
    changed = [name for name, run in runs.items() if stored.get(name) != run["sha256"]]
    if changed:
        return "bytes changed against stored digests: " + ", ".join(changed)
    return "bytes identical to stored digests"


def measure(runner: Runner, seconds: float) -> tuple:
    setup = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    measured = runner.spawn((1, 2), seconds=seconds)
    setups = [p["setup_s"] for p in setup + [measured]]
    metrics = {
        "wall_s_w1": (*pass_seconds(measured["runs"], 1), "s"),
        "wall_s_w2": (*pass_seconds(measured["runs"], 2), "s"),
        "setup_s": (statistics.median(setups), len(setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], 1, "MB"),
    }
    return setup[0]["machine"], measured["runs"], metrics, None


def measure_traced(runner: Runner) -> tuple:
    plain = runner.spawn()
    traced = runner.spawn(trace=True)
    metrics = {name: (value, 1, unit) for name, (value, unit) in traced["layers"].items()}
    traced_s = pass_seconds(traced["runs"], 1)[0]
    metrics["trace.overhead_s"] = (traced_s - pass_seconds(plain["runs"], 1)[0], 1, "s")
    # the traced runs are checked against the untraced pass's bytes
    return traced["machine"], plain["runs"] + traced["runs"], metrics, traced_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.FROZEN_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "sbmre", "cli.py")):
        print(f"error: no sbmre source tree under {ROOT}/src", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so Runner.spawn kills the running process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    runner = Runner(args.workload, args.seed, time.monotonic() + BUDGET_S)
    try:
        if args.trace:
            machine, runs, metrics, traced_s = measure_traced(runner)
        else:
            machine, runs, metrics, traced_s = measure(runner, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    attempted, failed, problems, notes = check(runs, args.seed)
    first = first_pass(runs)
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}; nproc {machine['nproc']}; BLAS {machine['blas']}; "
          f"threads {machine['threads']}; versions {machine['versions']}")
    for name, state in workloads.config_drift(ROOT, wl.configs).items():
        print(f"config {name}: {state} against configs/")
    print(digest_report(first, wl.name, args.seed))
    for name, run in first.items():
        print(f"  {name} sha256 {run['sha256']} ({run['seconds']:.3f} s in the first pass)")
    for line in dict.fromkeys(notes):  # one line per distinct note
        print(f"note: {line}")
    for line in problems:
        print(f"FAILED: {line}")
    print(f"failed_frac = {failed / attempted:.4g} ratio ({failed}/{attempted} runs)")
    for name, (value, n, unit) in metrics.items():
        share = ""
        if args.trace and unit == "s":
            share = f", {value / traced_s:.1%} of the traced pass"
        print(f"{name} = {value:.6g} {unit} (n={n}{share})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
