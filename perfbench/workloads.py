"""The benchmark's workloads: op lists drawn from the paper's artifacts.

Every op calls a public experiment entry point with the arguments the
quick grid of ``python -m repro.experiments`` uses, so its result must
match the committed golden ``benchmarks/baseline_results.json`` exactly.
The cache-capacity ablation only prints, so its golden lives in this
directory (``golden.json``).  Sharded runs are checked against their
serial twins, which the same run computes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from perfbench.ops import Op

__all__ = ["WORKLOADS", "Workload", "load_workload"]

HERE = Path(__file__).resolve().parent
BASELINE = HERE.parent / "benchmarks" / "baseline_results.json"
LOCAL_GOLDEN = HERE / "golden.json"

WORKLOADS = ("pingpong", "collectives", "churn", "sharded")


@dataclass(frozen=True)
class Workload:
    """``ops`` run one after another in-process (``wall_s``, ``cpu_s``) and
    fanned out through ``parallel_map(jobs=2)`` (``wall_jobs2_s``).
    ``fork_ops`` run only in the traced run (see :func:`_sharded`)."""

    name: str
    ops: tuple[Op, ...]
    op_deadline_s: float
    # Seconds one serial + fan-out pair of passes takes on a 2-vCPU Xeon
    # host.  It fixes how many pairs a run budget buys, so the count never
    # depends on how fast the host happened to be during the run.
    pair_s: float
    fork_ops: tuple[Op, ...] = ()

    def pairs(self, seconds: float) -> int:
        """Pairs of passes that fill ``seconds`` (at least one)."""
        return max(1, round(seconds / self.pair_s))


def _pingpong(golden: dict) -> Workload:
    from repro.experiments.figures67 import FAST_SIZES, pingpong_point
    from repro.openmx import PinningMode
    from repro.util.units import MIB

    # Figure 7's series, in run_figure7's order.  The 16 MiB column is 70 %
    # of the grid's host time and is left out to fit the run budget.
    # Largest messages first, so the fan-out pass ends on short tasks.
    modes = (PinningMode.PIN_PER_COMM, PinningMode.OVERLAP,
             PinningMode.CACHE, PinningMode.OVERLAP_CACHE)
    sizes = [(col, n) for col, n in enumerate(FAST_SIZES) if n <= 4 * MIB]
    ops = tuple(
        Op(f"figure7/{mode.name}/{nbytes}", pingpong_point,
           {"mode": mode, "use_ioat": False, "nbytes": nbytes},
           expect=(((), golden["figure7"][series]["points"][col]),))
        for col, nbytes in reversed(sizes)
        for series, mode in enumerate(modes)
    )
    return Workload("pingpong", ops, op_deadline_s=30.0, pair_s=7.5)


def _collectives(golden: dict) -> Workload:
    from repro.experiments.table2 import run_table2

    rows = {row["application"]: row for row in golden["table2"]}
    # NPB IS first: it is over half the work, so the fan-out pass's wall is
    # that one task, whichever worker is free first.
    ops = [Op("table2/NPB is", run_table2,
              {"benchmarks": [], "include_is": True},
              expect=(((), [rows["NPB is (scaled C.4)"]]),))]
    ops.extend(
        Op(f"table2/IMB {name}", run_table2,
           {"benchmarks": [name], "include_is": False},
           expect=(((), [rows[f"IMB {name}"]]),))
        for name in ("Allreduce", "SendRecv")
    )
    return Workload("collectives", tuple(ops), op_deadline_s=60.0, pair_s=18.0)


def _churn(golden: dict, local: dict) -> Workload:
    from repro.experiments.ablations import cache_capacity_point
    from repro.experiments.overlap_miss import (run_miss_probability,
                                                run_overloaded_core)
    from repro.experiments.reuse_sweep import reuse_point
    from repro.openmx import PinningMode
    from repro.util.units import KIB, MIB

    # Section 4.3 first (the longest ops): regular load and the overloaded
    # interrupt core.
    ops = [Op("overlap-miss/regular", run_miss_probability,
              expect=(((), golden["miss_probability"]),)),
           Op("overlap-miss/overloaded", run_overloaded_core,
              expect=(((), golden["overloaded_core"]),))]
    # Buffer-reuse sweep: run_reuse_sweep's tasks, one op per (reuse, mode),
    # at 0, 50 and 100 % reuse.
    for row in golden["reuse_sweep"]:
        reuse = row["reuse_fraction"]
        if reuse not in (0.0, 0.5, 1.0):
            continue
        for mode, expect in (
            (PinningMode.PIN_PER_COMM,
             ((("throughput_mib_s",), row["regular_mib_s"]),)),
            (PinningMode.CACHE,
             ((("throughput_mib_s",), row["cache_mib_s"]),
              (("hit_rate",), row["cache_hit_rate"]))),
            (PinningMode.OVERLAP,
             ((("throughput_mib_s",), row["overlap_mib_s"]),)),
        ):
            ops.append(Op(f"reuse/{reuse}/{mode.name}", reuse_point,
                          {"mode": mode, "nbytes": 1 * MIB, "messages": 12,
                           "reuse": reuse},
                          expect=expect))
    # Region-cache capacity ablation (16 buffers cycled through the LRU).
    for point in local["cache_capacity"]:
        cap = int(point["label"].split()[-1])
        ops.append(Op(f"capacity/{cap}", cache_capacity_point,
                      {"cap": cap, "nbuffers": 16, "nbytes": 256 * KIB},
                      expect=(((), point),)))
    return Workload("churn", tuple(ops), op_deadline_s=30.0, pair_s=12.5)


def _sharded() -> Workload:
    from repro.sim.openmx_shard import openmx_params, run_openmx

    # The full-size scenario clean and under chaos faults (fault seed 7),
    # the pair the CI shard-digest gate diffs across shard counts.  Each
    # runs on one engine (the serial twin) and on 2 PDES shards driven
    # in-process, whose end state must equal the twin's.  The same 2-shard
    # runs on forked workers are timed only in the traced run: on a shared
    # 2-vCPU host their wall time swings with how fast idle vCPUs are woken
    # at every window barrier, far beyond any bound an end-to-end metric
    # can hold.  Longest ops first.
    ops, fork_ops = [], []
    for name, params in (("chaos", openmx_params(fault_seed=7)),
                         ("clean", openmx_params())):
        twin = f"openmx_shard/{name}/1"
        ops.append(Op(f"openmx_shard/{name}/2-inline", run_openmx,
                      {"params": params, "nshards": 2, "mode": "inline"},
                      twin=twin, twin_path=("state",)))
        ops.append(Op(twin, run_openmx, {"params": params, "nshards": 1}))
        fork_ops.append(Op(f"openmx_shard/{name}/2-fork", run_openmx,
                           {"params": params, "nshards": 2, "mode": "fork"},
                           twin=twin, twin_path=("state",)))
    return Workload("sharded", tuple(ops), op_deadline_s=30.0, pair_s=9.0,
                    fork_ops=tuple(fork_ops))


def load_workload(name: str) -> Workload:
    """Build workload ``name`` with its goldens resolved."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if name == "sharded":
        return _sharded()
    golden = json.loads(BASELINE.read_text())
    if name == "pingpong":
        return _pingpong(golden)
    if name == "collectives":
        return _collectives(golden)
    return _churn(golden, json.loads(LOCAL_GOLDEN.read_text()))
