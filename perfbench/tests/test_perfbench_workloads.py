import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.attribution import LAYERS
from perfbench.ops import check
from perfbench.registry_view import layer_counts
from perfbench.workloads import WORKLOADS, load_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_op_is_checked(name):
    wl = load_workload(name)
    ids = [op.id for op in wl.ops + wl.fork_ops]
    assert len(set(ids)) == len(ids)
    # A serial twin has no golden of its own: it is the reference its
    # sharded runs must match.
    references = {op.twin for op in wl.ops + wl.fork_ops}
    for op in wl.ops + wl.fork_ops:
        assert op.expect or op.twin in ids or op.id in references, op.id


def test_spec_lists_the_workloads_and_every_layer():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert f"host_self_s.{layer}" in per_layer
        assert f"host_calls.{layer}" in per_layer
    assert set(layer_counts({"metrics": {}})) <= per_layer
    assert {"obs.overhead_ratio", "trace_overhead_ratio"} <= per_layer
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_cheap_ops_match_their_goldens():
    pingpong = {op.id: op for op in load_workload("pingpong").ops}
    churn = {op.id: op for op in load_workload("churn").ops}
    for op in (pingpong["figure7/OVERLAP/65536"], churn["capacity/32"]):
        assert check(op, op.fn(**op.kwargs), {}) is None, op.id


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pingpong",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
