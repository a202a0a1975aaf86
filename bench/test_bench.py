"""Smoke test of the benchmark itself (``python -m pytest bench -q``).

Not in ``testpaths``: tier-1 never collects it.  Runs the real command
at 5% duration, so it checks the plumbing — names, limits, checks and
digests — not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _suite(tmp_path: Path, *extra: str) -> dict:
    out = tmp_path / "results.json"
    subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--scale", "0.05", "--seconds", "0.5", "--out", str(out), *extra,
        ],
        check=True, timeout=600,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    return _suite(tmp_path_factory.mktemp("bench"))


def test_spec_is_within_the_contract_limits():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["bench"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_emitted_names_equal_the_spec(results):
    assert list(results["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload in results["workloads"].values():
        assert workload["correct"]
        assert set(workload["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(workload["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert workload["per_layer"]["trace.digest_matches"]["value"] == 1
        assert workload["end_to_end"]["state_digest_stable"]["value"] == 1


def test_driver_form_ends_with_the_result_object():
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", "fcfs_pool",
            "--seed", "5", "--seconds", "0.5", "--scale", "0.05", "--trace", "0",
        ],
        check=True, timeout=300, stdout=subprocess.PIPE, text=True,
    )
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_digest_follows_the_seed(results, tmp_path):
    name = "tenant_outage"
    again = _suite(tmp_path, "--workload", name)
    other = _suite(tmp_path, "--workload", name, "--seed", "4")
    digest = results["workloads"][name]["digest"]
    assert again["workloads"][name]["digest"] == digest
    assert other["workloads"][name]["digest"] != digest
