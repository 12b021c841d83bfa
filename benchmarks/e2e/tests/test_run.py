"""The runner end to end, at the ``--smoke`` size."""

import json
import os
import subprocess
import sys

import metrics
import run as runner
from workloads import WORKLOADS, rounds_for

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def smoke(workload, trace, seed=15):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "15", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, check=False, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_untraced_result_line_has_exactly_the_end_to_end_metrics():
    result, output = smoke("wire_oltp", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 500
    assert list(result["metrics"]) == [metric.name for metric in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
        assert f"{metric.name}.wall" in output


def test_traced_counters_repeat_exactly_for_a_seed():
    first, output = smoke("chain_write", 1)
    second, _ = smoke("chain_write", 1)
    assert list(first["metrics"]) == [metric.name for metric in metrics.PER_LAYER]
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for metric in metrics.PER_LAYER:
        if metric.exact:
            assert first["metrics"][metric.name] == second["metrics"][metric.name], metric.name
    assert "trace closure" in output and "residual=" in output
    # The cascade: a write far from the data fires many more statements.
    values = {name: entry["value"] for name, entry in first["metrics"].items()}
    assert values["backend.trigger_invocations.fwd"] > values["backend.trigger_invocations.local"]
    assert values["backend.view_vm_steps.bwd"] > values["backend.view_vm_steps.local"]


def test_committed_contract_matches_the_code():
    root = os.path.dirname(os.path.dirname(os.path.dirname(RUN)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == runner.contract()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["end_to_end"]) <= 16 and len(committed["per_layer"]) <= 128
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])


def test_steady_phase_is_whole_rotations_of_the_batch():
    for workload in WORKLOADS:
        for seconds in (1, 10, 15, 60):
            rounds = rounds_for(workload, seconds)
            assert rounds >= 3 and rounds % 3 == 0
