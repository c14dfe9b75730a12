"""Batch experiment runner: argparse, configs, artifacts and replay.

A run reads a sectioned key-value config, hands it to its experiment in
sbmre.experiments together with one worker pool, and writes a long-format
CSV (one row per check: name, estimate, SE or tolerance, pass/fail) plus a
JSON manifest; both go to temp files first and are renamed into place
together.  Every random draw derives from per-replica or per-batch streams
spawned off the root seed, and reductions happen in batch-index order, so the
CSV bytes depend only on (config, seed), never on the worker count.  The
manifest embeds the canonical config text and its hash; `replay` recomputes
the CSV from the manifest alone, through the run's own step (_run), and
refuses to run across version or config drift.

`[readouts]` and `[params]` are checked whole at load, so `validate` refuses
the values a run would: `[readouts]` holds exactly one readout, and each
`[params]` key is converted to the kind its experiment declares in
experiments.PARAMS; a key the experiment does not declare is an error.
`[mc] replicas` and `paths` are at least 2, and experiments.check_runnable
refuses a kernel or grid the experiment cannot run (a grid field past
covariance.require_grid_size among them), and a time that is not a whole
number of its steps, also at load.  A run makes its output directory before
the experiment starts, so one that cannot be made is a config error too.

Exit codes: 0 all checks pass, 1 any check fails, 2 config or replay error,
3 an experiment raised (ExperimentError: a solver or sampler failed).
"""

import argparse
import configparser
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, replace

from . import __version__
from .covariance import Constant, CovarianceKernel, IndicatorBall, ScaledTheta, StationaryPower
from .ensemble import WorkerPool
from .experiments import EXPERIMENTS, PARAMS, CheckRow, ConfigError, Time, check_runnable
from .grids import Grid
from .readouts import parse_readout

__all__ = [
    "ConfigError",
    "ReplayRefusal",
    "ExperimentError",
    "ExperimentConfig",
    "CheckRow",
    "RunReport",
    "load_config",
    "run_experiment",
    "replay",
    "main",
]

# every config's sections; a config file also needs [output], which a manifest does not record
_REQUIRED_SECTIONS = ("experiment", "kernel", "grid", "scheme", "mc", "readouts")
_CSV_HEADER = "experiment,check,estimate,dispersion,passed,seed,config_hash"


class ReplayRefusal(RuntimeError):
    """Replay declined: the recorded run is not reproducible as stated."""


class ExperimentError(RuntimeError):
    """A module raised during an experiment; the cause carries the detail."""


@dataclass(frozen=True)
class RunReport:
    experiment: str
    config_hash: str
    seed: int
    rows: tuple
    wall_clock: float
    csv_path: str = None
    manifest_path: str = None
    csv_sha256: str = None

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    kernel: CovarianceKernel
    grid: Grid
    dt: float
    replicas: int
    paths: int
    seed: int
    readout: object  # the one [readouts] entry, parsed
    params: dict  # [params] key -> value of the kind experiments.PARAMS declares
    outdir: str
    text: str
    digest: str


@functools.cache
def _versions() -> dict:
    """Python, sbmre, numpy and scipy versions, read once per process (shared; copy to edit)."""
    out = {"python": platform.python_version(), "sbmre": __version__}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = "unknown"
    return out


def _canonical_text(parser: configparser.ConfigParser) -> str:
    """Sorted sections/keys, [output] excluded: the replay-relevant content."""
    lines = []
    for section in sorted(s for s in parser.sections() if s != "output"):
        lines.append(f"[{section}]")
        for key in sorted(parser.options(section)):
            lines.append(f"{key} = {parser.get(section, key).strip()}")
    return "\n".join(lines) + "\n"


def _finite(parser, section, key, fallback: float) -> float:
    """[section] key as a float, fallback if absent; inf and nan are config errors."""
    try:
        value = parser.getfloat(section, key, fallback=fallback)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {value}")
    return value


def _positive(parser, section, key, cast=float):
    """[section] key, positive and finite; key is named in messages as given
    (configparser matches it case-insensitively)."""
    try:
        value = cast(parser.get(section, key))
    except configparser.NoOptionError as err:
        raise ConfigError(f"[{section}] {key} is missing") from err
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"[{section}] {key} must be positive and finite, got {value}")
    return value


def _mc_count(parser, key) -> int:
    """[mc] key, a whole number of at least 2: a standard error needs two samples."""
    value = _positive(parser, "mc", key, cast=int)
    if value < 2:
        raise ConfigError(f"[mc] {key} must be >= 2, got {value}")
    return value


def _build_kernel(parser) -> CovarianceKernel:
    kind = parser.get("kernel", "type", fallback="").strip()
    if kind == "constant":
        return Constant(_finite(parser, "kernel", "level", fallback=1.0))
    if kind == "power":
        return StationaryPower(_positive(parser, "kernel", "eps"),
                               _positive(parser, "kernel", "alpha"))
    if kind == "scaled":
        return ScaledTheta(_positive(parser, "kernel", "a"),
                           _finite(parser, "kernel", "width", fallback=1.0))
    if kind == "indicator":
        return IndicatorBall(radius=_positive(parser, "kernel", "radius"),
                             height=_positive(parser, "kernel", "height"))
    raise ConfigError(f"[kernel] type must be constant|power|scaled|indicator, got {kind!r}")


def _build_grid(parser) -> Grid:
    d = _positive(parser, "grid", "d", cast=int)
    extent = _positive(parser, "grid", "L")
    h = _positive(parser, "grid", "h")
    cells = extent / h
    if abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
        raise ConfigError(f"[grid] h must divide L, got L/h = {cells}")
    cells = int(round(cells))
    if cells % 2:
        raise ConfigError(f"[grid] L/h must be even, got {cells}")
    return Grid(dim=d, extent=extent, cells=cells)


def _built(section: str, build, parser):
    """build(parser), with a constructor's ValueError reported as a ConfigError."""
    try:
        return build(parser)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from err


def _parse_params(parser, name: str) -> dict:
    """[params] converted to the kinds experiment `name` declares in PARAMS:
    float, int (a positive whole number), tuple (a lone number is a 1-tuple),
    or the float or tuple of a Time; a Time left out takes its default."""
    kinds = PARAMS[name]
    params = {key: kind.default for key, kind in kinds.items() if isinstance(kind, Time)}
    for key in parser.options("params") if parser.has_section("params") else ():
        if key not in kinds:
            reads = ", ".join(sorted(kinds)) or "no keys"
            raise ConfigError(f"[params] {key} is not read by {name}; it reads {reads}")
        raw = parser.get("params", key).strip()
        try:
            values = tuple(float(tok) for tok in raw.split(","))
        except ValueError as err:
            raise ConfigError(f"[params] {key}: {err}") from err
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ConfigError(f"[params] {key} must be positive and finite, got {raw}")
        kind = kinds[key]
        if isinstance(kind, Time):  # its steps are check_runnable's
            kind = kind.kind
        if kind is not tuple and len(values) > 1:
            raise ConfigError(f"[params] {key} must be a single number, got {values}")
        if kind is int and not values[0].is_integer():
            raise ConfigError(f"[params] {key} must be a positive whole number, got {values[0]}")
        params[key] = values if kind is tuple else kind(values[0])
    return params


def _read_config(text: str, source: str, error, what: str,
                 required=_REQUIRED_SECTIONS) -> configparser.ConfigParser:
    """A parser filled from config text; a parse error raises error(f"{what}: ...")
    on one line, a missing required section a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source)
    except configparser.Error as err:
        raise error(f"{what}: {err}".replace("\n", "; ")) from err
    missing = [s for s in required if not parser.has_section(s)]
    if missing:
        raise ConfigError(f"missing config sections: {', '.join(missing)}")
    return parser


def load_config(path: str, seed_override: int = None,
                out_override: str = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    parser = _read_config(text, path, ConfigError, f"malformed config {path}",
                          _REQUIRED_SECTIONS + ("output",))
    if seed_override is not None:
        parser["mc"]["seed"] = str(int(seed_override))
    return _config_from_parser(parser, out_override=out_override)


def _config_from_parser(parser, out_override: str = None) -> ExperimentConfig:
    name = parser.get("experiment", "name", fallback="").strip()
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment {name!r}; choices: {known}")
    ordering = parser.get("scheme", "ordering", fallback="symmetric").strip()
    if ordering != "symmetric":
        raise ConfigError(f"[scheme] ordering {ordering!r} is not supported; "
                          "the solvers run the symmetric splitting only")
    try:
        seed = parser.getint("mc", "seed")
    except (configparser.NoOptionError, ValueError) as err:
        raise ConfigError(f"[mc] seed: {err}") from err
    if seed < 0:
        raise ConfigError(f"[mc] seed must be nonnegative, got {seed}")
    entries = parser.options("readouts")
    if not entries:
        raise ConfigError("readout catalog is empty")
    if len(entries) > 1:
        raise ConfigError(f"[readouts] must hold exactly one entry, got {', '.join(entries)}")
    try:
        readout = parse_readout(parser.get("readouts", entries[0]))
    except ValueError as err:
        raise ConfigError(f"[readouts] {entries[0]}: {err}") from err
    text = _canonical_text(parser)
    cfg = ExperimentConfig(
        experiment=name,
        kernel=_built("kernel", _build_kernel, parser),
        grid=_built("grid", _build_grid, parser),
        dt=_positive(parser, "scheme", "dt"),
        replicas=_mc_count(parser, "replicas"),
        paths=_mc_count(parser, "paths"),
        seed=seed,
        readout=readout,
        params=_parse_params(parser, name),
        outdir=out_override or parser.get("output", "directory", fallback="out"),
        text=text,
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )
    check_runnable(cfg)
    return cfg


# ----------------------------------------------------------------- artifacts


def _run(cfg: ExperimentConfig, workers: int) -> tuple:
    """(RunReport naming no files, CSV bytes) of one run of cfg on one worker pool."""
    start = time.perf_counter()
    try:
        with WorkerPool(workers) as pool:  # one pool per run, started on first use
            rows = tuple(EXPERIMENTS[cfg.experiment](cfg, pool))
    except Exception as err:
        raise ExperimentError(f"{cfg.experiment} failed: {err}") from err
    names = [row.name for row in rows]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate check names in {cfg.experiment}")
    elapsed = time.perf_counter() - start
    lines = [_CSV_HEADER] + [
        ",".join([cfg.experiment, row.name, repr(float(row.estimate)), repr(float(row.dispersion)),
                  "pass" if row.passed else "fail", str(cfg.seed), cfg.digest])
        for row in rows]
    csv = ("\n".join(lines) + "\n").encode()
    return RunReport(experiment=cfg.experiment, config_hash=cfg.digest, seed=cfg.seed,
                     rows=rows, wall_clock=elapsed,
                     csv_sha256=hashlib.sha256(csv).hexdigest()), csv


def _write_atomically(files):
    """Write (path, mode, writer) files all-or-nothing: temp files, then os.replace.

    The temp files sit next to their targets; if any writer raises, every temp
    file is removed and no target is touched.
    """
    temps = []
    try:
        for path, mode, writer in files:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], mode) as handle:
                writer(handle)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    for temp, (path, _, _) in zip(temps, files):
        os.replace(temp, path)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Run one experiment, write CSV + manifest into cfg.outdir, made before the run."""
    try:
        os.makedirs(cfg.outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {cfg.outdir}: {err}") from err
    report, csv = _run(cfg, workers)
    csv_path = os.path.join(cfg.outdir, f"{cfg.experiment}.csv")
    manifest_path = os.path.join(cfg.outdir, f"{cfg.experiment}_manifest.json")
    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.digest,
        "config_text": cfg.text,
        "csv_name": os.path.basename(csv_path),
        "csv_sha256": report.csv_sha256,
        "n_rows": len(report.rows),
        "seed": cfg.seed,
        "versions": _versions(),
        "wall_clock_s": round(report.wall_clock, 3),
        "workers": workers,
    }

    def write_manifest(handle):
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _write_atomically([(csv_path, "wb", lambda handle: handle.write(csv)),
                       (manifest_path, "w", write_manifest)])
    return replace(report, csv_path=csv_path, manifest_path=manifest_path)


def replay(manifest_path: str, workers: int = 1) -> RunReport:
    """Recompute a recorded run from its manifest and compare CSV bytes.

    Refuses on version drift or when the embedded config no longer hashes to
    the recorded value (the run would not be comparable); appends a
    replay-identical-bytes check to the recomputed report.
    """
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ReplayRefusal(f"cannot load manifest {manifest_path}: {err}") from err
    if not isinstance(manifest, dict):
        raise ReplayRefusal(f"manifest {manifest_path} is not a JSON object")
    for key, kind in (("config_text", str), ("config_hash", str), ("csv_sha256", str),
                      ("versions", dict), ("seed", int)):
        if key not in manifest:
            raise ReplayRefusal(f"manifest missing field {key!r}")
        if not isinstance(manifest[key], kind):
            raise ReplayRefusal(f"manifest field {key!r} must be {kind.__name__}, "
                                f"got {type(manifest[key]).__name__}")

    current = _versions()
    drift = {k: (manifest["versions"].get(k), current.get(k))
             for k in set(manifest["versions"]) | set(current)
             if manifest["versions"].get(k) != current.get(k)}
    if drift:
        summary = "; ".join(f"{k}: recorded {a} != current {b}"
                            for k, (a, b) in sorted(drift.items()))
        raise ReplayRefusal(f"version mismatch, refusing to replay: {summary}")

    parser = _read_config(manifest["config_text"], "<string>", ReplayRefusal,
                          "manifest config text unparseable")
    text = _canonical_text(parser)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != manifest["config_hash"]:
        import difflib  # only a refused replay shows a diff

        diff = "\n".join(difflib.unified_diff(
            manifest["config_text"].splitlines(), text.splitlines(),
            "recorded", "canonical", lineterm="", n=1))
        raise ReplayRefusal("config hash mismatch, refusing to replay "
                            f"(recorded {manifest['config_hash'][:12]}, "
                            f"recomputed {digest[:12]}):\n{diff}")

    report, _ = _run(_config_from_parser(parser), workers)
    identical = report.csv_sha256 == manifest["csv_sha256"]
    return replace(report, rows=report.rows + (
        CheckRow("replay-identical-bytes", float(identical), 0.0, identical),))


# ----------------------------------------------------------------------- CLI


def _print_report(report: RunReport):
    for row in report.rows:
        flag = "PASS" if row.passed else "FAIL"
        print(f"[{flag}] {row.name}: estimate={row.estimate:.10g} "
              f"dispersion={row.dispersion:.4g}")
    verdict = "all checks passed" if report.all_pass else "CHECK FAILURES"
    print(f"{report.experiment}: {verdict} "
          f"({len(report.rows)} checks, {report.wall_clock:.2f}s, "
          f"seed {report.seed}, config {report.config_hash[:12]})")
    if report.csv_path:
        print(f"wrote {report.csv_path} and {report.manifest_path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmre",
        description="Seeded branching / random-environment experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(EXPERIMENTS):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", default=None)
    p = sub.add_parser("replay", help="recompute a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workers", type=int, default=1)
    p = sub.add_parser("validate", help="parse and validate a config")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"config ok: experiment {cfg.experiment}, seed {cfg.seed}, "
                  f"hash {cfg.digest[:12]}")
            return 0
        if args.command == "replay":
            report = replay(args.manifest, workers=workers)
        else:
            cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
            if cfg.experiment != args.command:
                raise ConfigError(f"config names experiment {cfg.experiment!r} "
                                  f"but {args.command!r} was requested")
            report = run_experiment(cfg, workers=workers)
        _print_report(report)
        return report.exit_code
    except (ConfigError, ReplayRefusal) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ExperimentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
