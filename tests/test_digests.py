"""Byte ledger: every shipped config must write the CSV recorded in configs/digests.json.

Each configs/*.ini runs in-process at --workers 1 and the frozen seed, and
its CSV sha256 is compared with the ledger row for the installed numpy and
scipy.  Floating-point bytes are not portable across library versions, so on
versions the ledger does not list the comparison is skipped, not failed.
"""

import importlib.metadata
import json
from pathlib import Path

import pytest

from sbmre.cli import load_config, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LEDGER = json.loads((CONFIGS / "digests.json").read_text())
VERSIONS = ", ".join(f"{pkg} {importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
SHIPPED = sorted(path.name for path in CONFIGS.glob("*.ini"))


def _recorded() -> dict:
    if VERSIONS not in LEDGER["digests"]:
        pytest.skip(f"configs/digests.json has no digests for {VERSIONS}")
    return LEDGER["digests"][VERSIONS]


def test_ledger_covers_every_shipped_config():
    for digests in LEDGER["digests"].values():
        assert sorted(digests) == SHIPPED


@pytest.mark.parametrize("name", SHIPPED)
def test_config_csv_matches_the_ledger(name, tmp_path):
    recorded = _recorded()[name]
    cfg = load_config(str(CONFIGS / name), seed_override=LEDGER["seed"],
                      out_override=str(tmp_path))
    report = run_experiment(cfg, workers=1)
    assert report.csv_sha256 == recorded, f"{name} moved bytes"
