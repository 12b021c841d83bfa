"""Short end-to-end soak runs: a few seconds per transport with the SMO
stream live, plus the fault-injection replay contract.  Marked
``soak_quick`` so they can be deselected (``-m 'not soak_quick'``); the
full-length runs live in CI's soak-smoke job, not in the test suite."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from soak import PROBE_FACTORIES, SoakConfig, run_soak

pytestmark = pytest.mark.soak_quick


def quick_config(**overrides):
    base = dict(
        seed=1,
        duration=2.5,
        clients=4,
        smo_rate=2.0,
        barrier_interval=1.0,
        transport="inproc",
    )
    base.update(overrides)
    return SoakConfig(**base)


def brief(report):
    """The failure context worth seeing when a quick soak goes red."""
    return {
        "repro": report["repro_command"],
        "probes": [p for p in report["probes"] if not p["ok"]],
        "fault": report["fault"],
        "client_errors": report["client_errors"],
        "smo_log": report["smo_log"],
    }


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_quick_soak_passes_on_both_transports(transport):
    report = run_soak(quick_config(transport=transport))
    assert report["ok"], brief(report)
    stats = report["stats"]
    assert stats["ops"] > 0
    assert stats["barriers"] >= 1
    assert {probe["name"] for probe in report["probes"]} == set(PROBE_FACTORIES)
    assert all(probe["ok"] for probe in report["probes"])
    assert f"--transport {transport}" in report["repro_command"]


def test_probe_selection_narrows_the_report():
    report = run_soak(quick_config(duration=1.0, probes=["lost-writes"]))
    assert [probe["name"] for probe in report["probes"]] == ["lost-writes"]


def test_injected_fault_reproduces_from_the_printed_seed():
    """The replay contract: a fault report carries the exact seed and
    fault spec, and re-running the same configuration dies at the same
    transition on the same script."""
    config = dict(
        seed=9,
        duration=6.0,
        clients=2,
        smo_rate=5.0,
        barrier_interval=30.0,
        fault_rates={"evolution:before-commit": 1.0},
    )
    first = run_soak(quick_config(**config))
    assert not first["ok"]
    assert first["fault"] is not None, brief(first)
    assert first["fault"]["point"] == "evolution:before-commit"
    assert "--inject-fault 'evolution:before-commit=1'" in first["repro_command"]
    assert first["injector"]["fired"]
    # The failed transition left the live engine as it was: the final
    # barrier still finds it equal to the oracle.
    assert first["stats"]["barriers"] >= 1
    assert not first["diverged"], brief(first)

    second = run_soak(quick_config(**config))
    assert second["fault"] is not None, brief(second)
    # Everything ahead of the first evolution is seed-deterministic, so
    # the replay dies on the same script at the same injector visit.
    assert second["fault"]["point"] == first["fault"]["point"]
    assert second["fault"]["script"] == first["fault"]["script"]
    assert second["fault"]["visit"] == first["fault"]["visit"]


def test_the_printed_replay_command_runs(tmp_path):
    """``repro_command()`` is the one-command replay: run from the
    repository root, it exits 0 and writes its JSON report."""
    command = shlex.split(SoakConfig(duration=1.0, clients=2, transport="inproc").repro_command())
    assert command[:2] == ["python", "benchmarks/soak"]
    report = tmp_path / "soak.json"
    done = subprocess.run(
        [sys.executable, *command[1:], "--json", str(report)],
        cwd=Path(__file__).resolve().parents[2],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(report.read_text())["ok"]
