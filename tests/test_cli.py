"""Runner tests: config validation, hashing, artifacts, replay, worker invariance."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbmre import dual, ensemble
from sbmre.cli import ConfigError, ReplayRefusal, load_config, main, replay, run_experiment
from sbmre.covariance import ScaledTheta
from sbmre.experiments import EXPERIMENTS, _comparison_batch, _log_laplace_mean_batch
from sbmre.grids import Grid, GridFunction
from sbmre.spde import (Route, SchemeOverflowError, batch_noise, derivative_quotient,
                        solve_log_laplace)

ROOT = Path(__file__).resolve().parents[1]
BASE = {
    "experiment": {"name": "pam-oracle"},
    "kernel": {"type": "constant", "level": "1.0"},
    "grid": {"d": "1", "L": "8.0", "h": "0.25"},
    "scheme": {"dt": "0.005", "ordering": "symmetric"},
    "mc": {"replicas": "40", "paths": "400", "seed": "7"},
    "readouts": {"f": "constant(1.0)"},
    "params": {"t": "0.25", "mc_dt": "0.025"},
    "output": {"directory": "out"},
}


def write_config(tmp_path, name="cfg.ini", **overrides):
    sections = {k: dict(v) for k, v in BASE.items()}
    if "experiment.name" in overrides:  # BASE's [params] are pam-oracle's keys
        sections["params"] = {}
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        if value is None:
            sections[section].pop(key, None)
        else:
            sections.setdefault(section, {})[key] = str(value)
    lines = []
    for section, body in sections.items():
        if body is None:
            continue
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return str(path)


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing config sections"):
        path = tmp_path / "empty.ini"
        path.write_text("[experiment]\nname = pam-oracle\n")
        load_config(str(path))
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config(write_config(tmp_path, **{"experiment.name": "frobnicate"}))
    with pytest.raises(ConfigError, match="readout catalog is empty"):
        load_config(write_config(tmp_path, **{"readouts.f": None}))
    # experiments read one readout, so a second would be hashed but never read
    with pytest.raises(ConfigError,
                       match=r"^\[readouts\] must hold exactly one entry, got f, g$"):
        load_config(write_config(tmp_path, **{"readouts.g": "constant(2.0)"}))
    with pytest.raises(ConfigError, match="kernel"):
        load_config(write_config(tmp_path, **{"kernel.type": "mystery"}))
    with pytest.raises(ConfigError, match="even"):
        load_config(write_config(tmp_path, **{"grid.h": "8.0"}))
    with pytest.raises(ConfigError, match="divide"):
        load_config(write_config(tmp_path, **{"grid.h": "0.3"}))
    with pytest.raises(ConfigError, match="replicas"):
        load_config(write_config(tmp_path, **{"mc.replicas": "1"}))
    with pytest.raises(ConfigError, match="dt"):
        load_config(write_config(tmp_path, **{"scheme.dt": "-0.001"}))
    with pytest.raises(ConfigError, match="ordering"):
        load_config(write_config(tmp_path, **{"scheme.ordering": "stochastic"}))
    with pytest.raises(ConfigError, match="params"):
        load_config(write_config(tmp_path, **{"params.t": "0, -1"}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, **{"mc.seed": "-3"}))
    # constructor rejections: dim 4, L/h = 0 cells, a negative level, a zero width
    with pytest.raises(ConfigError, match=r"\[grid\] dim"):
        load_config(write_config(tmp_path, **{"grid.d": "4"}))
    with pytest.raises(ConfigError, match=r"\[grid\] need at least 2 cells"):
        load_config(write_config(tmp_path, **{"grid.h": "1e12"}))
    with pytest.raises(ConfigError, match=r"^\[kernel\] level must be nonnegative, got -1.0$"):
        load_config(write_config(tmp_path, **{"kernel.level": "-1"}))
    with pytest.raises(ConfigError, match=r"^\[kernel\] width must be positive, got 0.0$"):
        load_config(write_config(tmp_path, **{**SCALED, "kernel.width": "0"}))


def test_hash_covers_seed_but_not_output_dir(tmp_path):
    a = load_config(write_config(tmp_path, "a.ini"))
    b = load_config(write_config(tmp_path, "b.ini", **{"output.directory": "elsewhere"}))
    c = load_config(write_config(tmp_path, "c.ini"), seed_override=8)
    d = load_config(write_config(tmp_path, "d.ini", **{"mc.seed": "8"}))
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert c.digest == d.digest  # override and literal edit are the same config
    assert c.seed == 8


def test_threshold_table_artifacts_and_cli(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    out = str(tmp_path / "run")
    assert main(["threshold-table", "--config", cfg_path, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "all checks passed" in captured
    csv = (tmp_path / "run" / "threshold-table.csv").read_text().splitlines()
    assert csv[0] == "experiment,check,estimate,dispersion,passed,seed,config_hash"
    body = [line.split(",") for line in csv[1:]]
    assert len(body) == 4 and all(row[4] == "pass" for row in body)
    d3 = next(row for row in body if row[1] == "threshold-d3")
    assert math.isclose(float(d3[2]), math.pi / 3.0, rel_tol=0, abs_tol=1e-12)
    manifest = json.loads((tmp_path / "run" / "threshold-table_manifest.json").read_text())
    assert manifest["config_hash"] == body[0][6]
    assert {"config_text", "csv_sha256", "versions", "seed", "workers"} <= set(manifest)

    assert main(["validate", "--config", cfg_path]) == 0
    assert "config ok" in capsys.readouterr().out
    # experiment subcommand must match the config's declared name
    assert main(["pam-oracle", "--config", cfg_path, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_bad_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **{"kernel.type": "mystery"})
    assert main(["validate", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content, message", [
    (b"[experiment]\nname = \xff\xfe\n",
     "cannot read config {path}: 'utf-8' codec can't decode byte 0xff in position 20"),
    (b"name = pam-oracle\n", "malformed config {path}: File contains no section headers.; "
                            "file: '{path}', line: 1; 'name = pam-oracle\\n'"),
], ids=["not-utf-8", "no-section-header"])
def test_validate_refuses_unreadable_config_text_with_one_line(tmp_path, capsys, content,
                                                                message):
    # were a UnicodeDecodeError traceback with exit 1, and three lines on stderr
    path = tmp_path / "bad.ini"
    path.write_bytes(content)
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert len(captured.err.strip().splitlines()) == 1


SCALED = {"kernel.type": "scaled", "kernel.level": None, "kernel.a": "1.0"}
POWER_3D = {"kernel.type": "power", "kernel.level": None, "kernel.eps": "0.1",
            "kernel.alpha": "4.0", "grid.d": "3", "grid.h": "0.5"}
# the kernel and grid an experiment needs where BASE's constant kernel in d = 1 will not do
RUNNABLE = {"lyapunov-ladder": SCALED, "persistence-scan": POWER_3D}


def test_scaled_kernel_is_the_gaussian_of_its_width(tmp_path):
    cfg = load_config(write_config(tmp_path, **{**SCALED, "kernel.a": "2.5",
                                                "kernel.width": "8.0"}))
    assert cfg.kernel == ScaledTheta(2.5, 8.0)
    assert load_config(write_config(tmp_path, **SCALED)).kernel == ScaledTheta(1.0)


@pytest.mark.parametrize("overrides, message", [
    ({**POWER_3D, "experiment.name": "persistence-scan", "grid.d": "1"},
     "persistence-scan requires grid dimension >= 3"),
    ({"experiment.name": "persistence-scan", "grid.d": "3", "grid.h": "0.5"},
     "persistence-scan needs an amplitude-scalable kernel (power or indicator)"),
    ({"experiment.name": "lyapunov-ladder"}, "lyapunov-ladder needs a scaled kernel"),
    ({"mc.paths": "1"}, "[mc] paths must be >= 2, got 1"),  # was exit 3 after the ensemble
    ({"kernel.type": "indicator", "kernel.level": None, "kernel.radius": "1.0",
      "kernel.height": "1.0"},
     "pam-oracle: IndicatorBall(radius=1.0, height=1.0) is not positive definite, "
     "so it cannot be sampled"),  # was "config ok", then a sample of a non-covariance
    ({"kernel.type": "power", "kernel.level": None, "kernel.eps": "1.0", "kernel.alpha": "3"},
     "pam-oracle: StationaryPower(eps=1.0, alpha=3.0) is not positive definite, "
     "so it cannot be sampled"),  # was "config ok", then exit 3
    ({"kernel.type": "power", "kernel.level": None, "kernel.eps": "1.0", "kernel.alpha": "2.0",
      "grid.d": "3", "grid.h": "0.25"},
     "pam-oracle: 32768 grid cells; dense factorization is limited to 10000"),  # was exit 3
    ({**SCALED, "grid.h": "0.0004"},
     "pam-oracle: 20000 cells per axis; dense factorization is limited to 10000"),
], ids=["persistence-scan-d1", "persistence-scan-constant", "lyapunov-ladder-constant",
        "pam-oracle-one-path", "pam-oracle-indicator", "pam-oracle-power-alpha-3",
        "pam-oracle-dense-grid", "pam-oracle-scaled-axis"])
def test_validate_refuses_what_the_run_refuses(tmp_path, capsys, overrides, message):
    # each printed "config ok" before; the run then exited 2 or 3
    cfg_path = write_config(tmp_path, **overrides)
    name = overrides.get("experiment.name", "pam-oracle")
    assert main(["validate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert main([name, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.ini"))
                         + sorted(ROOT.glob("perfbench/configs/*.ini")),
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_shipped_and_benchmark_config_validates(path, capsys):
    # no validate rule may refuse a config that ships or that the benchmark runs
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("config ok: experiment ")


@pytest.mark.parametrize("key, value, extra", [
    ("grid.L", "inf", {}),  # was an OverflowError traceback, exit 1
    ("grid.h", "inf", {}),  # was the Grid constructor's "need at least 2 cells"
    ("kernel.level", "nan", {}),  # was "config ok", then exit 3 in a run
    ("kernel.width", "inf", SCALED),
    ("kernel.a", "nan", SCALED),
    ("scheme.dt", "nan", {}),
    ("params.t", "inf", {}),
    ("readouts.f", "gaussian_bump(nan, 1.0)", {}),  # was "config ok", then exit 3 in a run
    ("readouts.f", "constant(inf)", {}),
    ("readouts.f", "constant(-1.0)", {}),  # was "config ok", then exit 3 in a run
])
def test_non_finite_config_numbers_exit_2_with_one_line(tmp_path, capsys, key, value, extra):
    cfg_path = write_config(tmp_path, **{**extra, key: value})
    assert main(["validate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    section, name = key.split(".")
    assert err.startswith(f"error: [{section}] {name}") and value in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("overrides, message", [
    ({"params.t": "1.0", "params.mc_dt": "0.3"}, "[params] t: T=1.0 is not a whole number "
     "of steps of dt=0.3"),  # was exit 3 after the whole ensemble
    ({"params.t": "1.0", "scheme.dt": "0.3"}, "[params] t: T=1.0 is not a whole number "
     "of steps of dt=0.3"),
    ({"experiment.name": "moments-triangle", "params.mc_dt": "0.3"},
     "[params] t: T=0.25 is not a whole number of steps of dt=0.3"),
    ({**SCALED, "experiment.name": "lyapunov-ladder", "params.tail_t": "0.5, 0.0123"},
     "[params] tail_t: T=0.0123 is not a whole number of steps of dt=0.005"),
    ({"params.t": None, "scheme.dt": "0.3"}, "[params] t: T=1.0 is not a whole number "
     "of steps of dt=0.3"),  # the default t: was "config ok", then exit 3 in a run
], ids=["pam-oracle-mc-dt", "pam-oracle-dt", "moments-triangle-mc-dt", "lyapunov-tail-t",
        "pam-oracle-default-t"])
def test_a_time_that_is_not_a_whole_number_of_steps_exits_2(tmp_path, capsys, overrides,
                                                            message):
    name = overrides.get("experiment.name", "pam-oracle")
    overrides = {"params.t": "0.25", **overrides}
    cfg_path = write_config(tmp_path, **overrides)
    assert main(["validate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert main([name, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "run").exists()


def test_a_time_is_checked_only_against_the_steps_that_read_it(tmp_path, capsys):
    # moments-triangle reads t on the pair-path step, never on [scheme] dt
    cfg_path = write_config(tmp_path, **{"experiment.name": "moments-triangle",
                                         "params.t": "0.25", "scheme.dt": "0.3"})
    assert main(["validate", "--config", cfg_path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key, value, extra", [
    ("params.n", "0.5", {"experiment.name": "moments-triangle"}),  # was exit 3 at n = 0
    ("params.n", "200.5", {"experiment.name": "moments-triangle"}),  # ran n = 200
    ("params.cap", "2000000.5", {"experiment.name": "moments-triangle"}),
    ("params.tm_replicas", "2.5", {"experiment.name": "duality-ladder"}),
    ("params.tail_replicas", "0.5", {**SCALED, "experiment.name": "lyapunov-ladder"}),
])
def test_fractional_count_params_exit_2_before_the_run(tmp_path, capsys, key, value, extra):
    cfg_path = write_config(tmp_path, **{**extra, key: value})
    name = extra["experiment.name"]
    expected = f"error: [params] {key.split('.')[1]} must be a positive whole number, got {value}"
    assert main(["validate", "--config", cfg_path]) == 2  # was "config ok"
    assert capsys.readouterr().err.strip() == expected
    assert main([name, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert not (tmp_path / "run").exists()


def test_a_params_key_the_experiment_does_not_read_exits_2(tmp_path, capsys):
    # was exit 0 with the default delta = 0.1, the misspelt key recorded in the manifest
    cfg_path = write_config(tmp_path, **{"experiment.name": "comparison-suite",
                                         "params.detla": "0.2"})
    expected = ("error: [params] detla is not read by comparison-suite; "
                "it reads delta, lambdas, t")
    assert main(["validate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert main(["comparison-suite", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert not (tmp_path / "run").exists()


def test_a_list_where_one_number_is_needed_exits_2_naming_the_section(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **{"params.t": "1.0, 2.0"})
    assert main(["pam-oracle", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: [params] t must be a single number, got (1.0, 2.0)"
    assert not (tmp_path / "run").exists()


def test_validate_refuses_a_list_where_one_number_is_needed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, **{"params.t": "1.0, 2.0"})
    assert main(["validate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.strip() \
        == "error: [params] t must be a single number, got (1.0, 2.0)"
    # a key the experiment reads as a list may hold one
    cfg_path = write_config(tmp_path, **{"experiment.name": "duality-ladder",
                                         "params.n_ladder": "10, 40"})
    assert main(["validate", "--config", cfg_path]) == 0


@pytest.mark.parametrize("value, reason", [
    ("inf", "must be positive and finite, got inf"),
    ("-1", "must be positive and finite, got -1.0"),
    (None, "is missing"),
], ids=["inf", "negative", "missing"])
def test_grid_extent_errors_name_the_key_as_written(tmp_path, capsys, value, reason):
    cfg_path = write_config(tmp_path, **{"grid.L": value})
    assert main(["validate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.strip() == f"error: [grid] L {reason}"


def test_worker_invariance_and_seed_sensitivity(tmp_path):
    cfg_path = write_config(tmp_path)
    runs = {}
    for tag, workers, seed in (("w1", 1, None), ("w2", 2, None), ("s8", 1, 8)):
        cfg = load_config(cfg_path, seed_override=seed,
                          out_override=str(tmp_path / tag))
        runs[tag] = run_experiment(cfg, workers=workers)
    assert runs["w1"].csv_sha256 == runs["w2"].csv_sha256
    bytes_w1 = (tmp_path / "w1" / "pam-oracle.csv").read_bytes()
    bytes_w2 = (tmp_path / "w2" / "pam-oracle.csv").read_bytes()
    assert bytes_w1 == bytes_w2
    assert runs["s8"].csv_sha256 != runs["w1"].csv_sha256


def test_replay_identical_and_refusals(tmp_path):
    cfg = load_config(write_config(tmp_path), out_override=str(tmp_path / "orig"))
    run_experiment(cfg, workers=1)
    manifest_path = str(tmp_path / "orig" / "pam-oracle_manifest.json")

    report = replay(manifest_path, workers=2)
    assert report.rows[-1].name == "replay-identical-bytes"
    assert report.rows[-1].passed and report.exit_code == 0

    data = json.loads(open(manifest_path).read())
    tampered = dict(data)
    tampered["config_text"] = data["config_text"].replace("seed = 7", "seed = 8")
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    with pytest.raises(ReplayRefusal, match="hash mismatch"):
        replay(str(bad))

    drifted = dict(data)
    drifted["versions"] = dict(data["versions"], numpy="0.0.1")
    bad2 = tmp_path / "drifted.json"
    bad2.write_text(json.dumps(drifted))
    with pytest.raises(ReplayRefusal, match="numpy"):
        replay(str(bad2))

    assert main(["replay", "--manifest", str(bad2)]) == 2
    assert main(["replay", "--manifest", str(tmp_path / "nope.json")]) == 2


@pytest.fixture(scope="module")
def recorded_manifest(tmp_path_factory):
    """A threshold-table run's manifest, as JSON data: replay refusals edit copies."""
    tmp_path = tmp_path_factory.mktemp("recorded")
    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    run_experiment(load_config(cfg_path, out_override=str(tmp_path / "orig")))
    return json.loads((tmp_path / "orig" / "threshold-table_manifest.json").read_text())


def _no_config_hash(data):
    del data["config_hash"]


def _unparseable_text(data):
    data["config_text"] = "[mc\nseed = 7\n"


def _no_mc_section(data):  # hashed as recorded, so only the section check refuses it
    data["config_text"] = data["config_text"].replace("[mc]\n", "[mc-gone]\n")
    data["config_hash"] = hashlib.sha256(data["config_text"].encode()).hexdigest()


def _listed_versions(data):  # was an AttributeError traceback, exit 1
    data["versions"] = []


def _null_config_text(data):  # was a TypeError traceback, exit 1
    data["config_text"] = None


def _drifted_scipy(data):
    data["versions"]["scipy"] = "0.0.1"


def _tampered_seed(data):  # not canonical either, so the refusal shows a diff
    data["config_text"] = data["config_text"].replace("seed = 7", "seed=8")


@pytest.mark.parametrize("edit, message", [
    (b'{"experiment": "threshold-table", "seed"', "error: cannot load manifest {manifest}: "),
    (_no_config_hash, "error: manifest missing field 'config_hash'"),
    # configparser's own three lines, which name where it stopped, joined into one
    (_unparseable_text, "error: manifest config text unparseable: File contains no section "
                        "headers.; file: '<string>', line: 1; '[mc\\n'"),
    (_no_mc_section, "error: missing config sections: mc"),  # was a NoSectionError traceback
    (_drifted_scipy, "error: version mismatch, refusing to replay: scipy: recorded 0.0.1 != "),
    (_tampered_seed, "error: config hash mismatch, refusing to replay (recorded "),
    # the four below were tracebacks with exit 1
    (b'{"experiment": "\xff\xfe"}',
     "error: cannot load manifest {manifest}: 'utf-8' codec can't decode byte 0xff"),
    (b"5", "error: manifest {manifest} is not a JSON object"),
    (_listed_versions, "error: manifest field 'versions' must be dict, got list"),
    (_null_config_text, "error: manifest field 'config_text' must be str, got NoneType"),
], ids=["not-json", "missing-field", "unparseable-config", "missing-section", "version-drift",
        "hash-mismatch", "not-utf-8", "not-an-object", "versions-not-an-object",
        "config-text-not-a-string"])
def test_every_replay_refusal_exits_2_with_one_error_line(tmp_path, capsys, recorded_manifest,
                                                          edit, message):
    path = tmp_path / "manifest.json"
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        data = json.loads(json.dumps(recorded_manifest))
        edit(data)
        path.write_text(json.dumps(data))
    assert main(["replay", "--manifest", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[0].startswith(message.format(manifest=path))
    assert [line for line in lines if line.startswith("error:")] == lines[:1]
    if edit is _tampered_seed:  # the recorded text against its canonical form
        assert lines[1:3] == ["--- recorded", "+++ canonical"]
        assert "-seed=8" in lines and "+seed = 8" in lines
    else:
        assert len(lines) == 1


@pytest.mark.parametrize("experiment", ["comparison-suite", "duality-ladder",
                                        "extinction-scan", "lyapunov-ladder",
                                        "moments-triangle", "pam-oracle",
                                        "persistence-scan", "threshold-table"])
def test_symmetric_only_experiments_reject_other_orderings(tmp_path, capsys, experiment):
    # every solver runs the symmetric splitting, so another ordering in the
    # config (which is part of its hash) would be a lie
    runnable = {**RUNNABLE.get(experiment, {}), "experiment.name": experiment}
    load_config(write_config(tmp_path, **runnable))
    for ordering in ("heat-noise", "noise-heat"):
        cfg_path = write_config(tmp_path, **{**runnable, "scheme.ordering": ordering})
        with pytest.raises(ConfigError, match="ordering"):
            load_config(cfg_path)
        assert main([experiment, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "symmetric splitting only" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["0", "-1"], ids=["flag-0", "flag-minus-1"])
def test_worker_count_below_one_exits_2(tmp_path, capsys, flag):
    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    out = tmp_path / "w"
    assert main(["threshold-table", "--config", cfg_path, "--out", str(out),
                 "--workers", flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: workers must be >= 1")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_an_output_directory_that_cannot_be_made_exits_2_before_the_run(tmp_path, capsys,
                                                                        monkeypatch):
    # was the whole run, then a FileExistsError traceback from os.makedirs (exit 1)
    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    blocker = tmp_path / "a-file"
    blocker.write_text("kept\n")

    def must_not_run(cfg, pool):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(EXPERIMENTS, "threshold-table", must_not_run)
    for out in (blocker, blocker / "run"):
        assert main(["threshold-table", "--config", cfg_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot make output directory {out}: ")
        assert len(captured.err.strip().splitlines()) == 1
    assert blocker.read_text() == "kept\n"


def test_exit_codes_at_the_process_boundary(tmp_path):
    # `python -m sbmre.cli` returns main()'s code as the process's exit status
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "sbmre.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    done = cli("threshold-table", "--config", cfg_path, "--seed", "99",
               "--out", str(tmp_path / "run"))
    assert done.returncode == 0 and done.stderr == ""
    csv = (tmp_path / "run" / "threshold-table.csv").read_text().splitlines()
    assert csv[1].split(",")[5] == "99"
    bad = cli("validate", "--config", write_config(tmp_path, "bad.ini",
                                                   **{"kernel.type": "mystery"}))
    blocked = cli("threshold-table", "--config", cfg_path, "--out", cfg_path)
    for done, message in ((bad, "error: [kernel] type must be "),
                          (blocked, "error: cannot make output directory ")):
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(message) and len(done.stderr.splitlines()) == 1


def test_artifacts_written_atomically(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, **{"experiment.name": "threshold-table"})
    out = tmp_path / "atomic"
    run_experiment(load_config(cfg_path, out_override=str(out)))
    csv_before = (out / "threshold-table.csv").read_bytes()
    manifest_before = (out / "threshold-table_manifest.json").read_bytes()

    def dump_then_fail(obj, handle, **kwargs):
        handle.write('{"experiment": "threshold-table", "seed"')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(load_config(cfg_path, seed_override=8, out_override=str(out)))
    assert (out / "threshold-table_manifest.json").read_bytes() == manifest_before
    assert (out / "threshold-table.csv").read_bytes() == csv_before
    assert sorted(p.name for p in out.iterdir()) == ["threshold-table.csv",
                                                     "threshold-table_manifest.json"]


def test_persistence_scan_needs_scalable_kernel(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        **{"experiment.name": "persistence-scan", "grid.d": "3", "grid.h": "0.5"})
    assert main(["persistence-scan", "--config", cfg_path,
                 "--out", str(tmp_path / "ps")]) == 2
    assert "amplitude-scalable" in capsys.readouterr().err


def _overflow_the_log_laplace_route(monkeypatch):
    """Make the log-Laplace solver raise as an overflowing march does, a
    failure that validate cannot see; forked pool workers inherit the patch."""
    def overflow(*args):
        raise SchemeOverflowError("state left the finite range at step 7", 7)

    monkeypatch.setattr(dual, "solve_log_laplace", overflow)


def test_experiment_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # the log-Laplace route fails inside the experiment, after validation
    cfg_path = write_config(
        tmp_path,
        **{"experiment.name": "duality-ladder", "mc.replicas": "4", "params.t": "0.05",
           "params.n_ladder": "10"})
    assert main(["validate", "--config", cfg_path]) == 0
    capsys.readouterr()
    _overflow_the_log_laplace_route(monkeypatch)
    assert main(["duality-ladder", "--config", cfg_path,
                 "--out", str(tmp_path / "dl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: duality-ladder failed:")
    assert len(err.strip().splitlines()) == 1


def test_experiment_error_in_a_pool_worker_keeps_its_message(tmp_path, capsys, monkeypatch):
    # the same failure, now inside the log-Laplace route's jobs on a
    # two-process pool
    cfg_path = write_config(
        tmp_path,
        **{"experiment.name": "duality-ladder", "mc.replicas": "40", "params.t": "0.05",
           "params.n_ladder": "10"})
    _overflow_the_log_laplace_route(monkeypatch)
    assert main(["duality-ladder", "--config", cfg_path, "--workers", "2",
                 "--out", str(tmp_path / "dl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: duality-ladder failed: state left the finite range at step 7")
    assert len(err.strip().splitlines()) == 1


def test_duality_ladder_run_starts_one_process_pool(tmp_path, monkeypatch):
    # the log-Laplace route and both dual rungs have two batches each; one
    # pool, started at the first of them, serves all three
    started = []

    class SerialPool:  # maps in-process, so no process starts
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", SerialPool)
    cfg_path = write_config(
        tmp_path,
        **{"experiment.name": "duality-ladder", "mc.replicas": "40", "params.t": "0.05",
           "params.n_ladder": "10, 40", "params.tm_replicas": "4"})
    run_experiment(load_config(cfg_path, out_override=str(tmp_path / "dl")), workers=2)
    assert started == [2]


def test_check_rows_have_unique_names_and_hash(tmp_path):
    cfg = load_config(write_config(tmp_path), out_override=str(tmp_path / "u"))
    report = run_experiment(cfg)
    names = [row.name for row in report.rows]
    assert len(set(names)) == len(names)
    csv = (tmp_path / "u" / "pam-oracle.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[6] == cfg.digest for line in csv)
    assert all(np.isfinite(float(line.split(",")[2])) for line in csv)


def test_stacked_batches_equal_per_route_references():
    grid = Grid(1, 8.0, 32)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-np.sum(x * x, axis=-1)))
    kernel, t, dt, seed, batch = ScaledTheta(1.0), 0.1, 1e-3, 5, (1, 32, 36)
    lambdas, delta = (0.5, 1.0, 2.0), 0.1
    margins = _comparison_batch(f, kernel, t, dt, seed, lambdas, delta, 25, *batch)
    noise = batch_noise(grid, kernel, dt, seed, *batch)
    for lam, row in zip(lambdas, margins):
        pair = derivative_quotient(f, lam, delta, t, noise, save_every=25)
        expected = [pair.lower.values.min(),
                    (lam * pair.pam.values - pair.lower.values).min(),
                    (pair.upper.values - pair.lower.values).min(),
                    *pair.sandwich_margins()]
        assert np.array_equal(row, expected)

    ks = (1.0, 10.0)
    ones = GridFunction.constant(grid, 1.0)
    means = _log_laplace_mean_batch(ones, kernel, [Route(k, reaction=True) for k in ks],
                                    t, dt, seed, *batch)
    for k, row in zip(ks, means):
        final = solve_log_laplace(GridFunction.constant(grid, k), 1.0, t, noise).values[-1]
        assert np.array_equal(row, final.mean(axis=1))
