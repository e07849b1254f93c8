"""Short mode of the benchmark: each workload twice, same seed, same rounds.

Every count must repeat exactly (RPC calls and bytes, OPRF evaluations,
chunks, container fetches, bytes held), every check must pass, and the
only failed operation is the ``backup`` owner-down delete drill.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_short.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 2
SEED = 11
COUNTS = (
    "net.rpc_calls", "net.rpc_bytes", "mle.oprf_evals", "chunking.chunks",
    "aont.chunks", "abe.calls", "keyreg.unwind_steps", "keystore.calls",
    "storage.container_fetches", "gc.bytes_relocated", "gc.bytes_reclaimed",
)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--rounds", str(ROUNDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, diagnostics, result = out.stdout.strip().splitlines()
    return json.loads(diagnostics)["diagnostics"], json.loads(result)


@pytest.mark.parametrize("workload", ["backup", "revoke"])
def test_counts_repeat_for_one_seed(workload):
    (first_diag, first), (second_diag, second) = run(workload, 1), run(workload, 1)
    for diag, result in ((first_diag, first), (second_diag, second)):
        assert result["correct"], diag["check_failures"]
        assert diag["rounds"] == ROUNDS
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    assert first_diag["stored_bytes"] == second_diag["stored_bytes"] > 0
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(first["metrics"]) == {metric["name"] for metric in spec["per_layer"]}
    assert first["metrics"]["chunking.chunks"]["value"] > 0
    assert first["metrics"]["net.rpc_calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["backup", "revoke"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    diag, result = run(workload, 0)
    assert result["correct"], diag["check_failures"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # The drill fails once per round until deletes survive a down owner.
    assert result["failed"] == (ROUNDS if workload == "backup" else 0)
