"""Run one workload: untraced end-to-end passes or one traced run.

Untraced (``trace=False``) the run alternates two passes over the
workload's ops, as many pairs as the workload's nominal pair time fits in
the budget (at least one):

* the fan-out pass hands the ops to ``parallel_map(jobs=2)``
  (``wall_jobs2_s``);
* the serial pass runs ``ops`` in-process one after another, each through
  ``parallel_map([task], jobs=1)`` exactly as ``python -m repro.experiments``
  does (``wall_s``, ``cpu_s``).

The traced run (``trace=True``) makes one serial pass with the ambient
metric registry, one with no registry at all (``obs.overhead_ratio``),
one under cProfile (per-layer host time, ``trace_overhead_ratio``) and
one over the workload's PDES runs on forked shard workers.

Every result of every pass is checked against its golden.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from perfbench.attribution import LAYERS, attribute, profile_stats
from perfbench.ops import DeadlineExceeded, Op, Tally, check, deadline
from perfbench.registry_view import layer_counts
from perfbench.workloads import Workload, load_workload
from repro.cluster import build_cluster
from repro.experiments.parallel import parallel_map
from repro.obs import MetricRegistry, use_registry

__all__ = ["BuildTimer", "Runner", "run_workload"]

SRC = Path(__file__).resolve().parent.parent / "src"
# No new op starts after this many seconds, so a run that keeps hitting
# deadlines still exits well inside three minutes.
RUN_LIMIT_S = 150.0
IMPORT_SAMPLES = 3


def _cpu_now() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class BuildTimer:
    """Times ``repro.cluster.build_cluster`` where experiment modules bound it.

    Only calls made in this process are seen; clusters built inside forked
    workers (the fan-out pool, PDES shards) are not.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    @contextlib.contextmanager
    def installed(self, modules: list[Any]) -> Iterator["BuildTimer"]:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return build_cluster(*args, **kwargs)
            finally:
                self.calls += 1
                self.seconds += time.perf_counter() - start

        patched = [m for m in modules
                   if getattr(m, "build_cluster", None) is build_cluster]
        for module in patched:
            module.build_cluster = timed
        try:
            yield self
        finally:
            for module in patched:
                module.build_cluster = build_cluster


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    build_calls: int = 0
    build_s: float = 0.0
    op_walls: list[float] = field(default_factory=list)
    op_cpus: list[float] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)


class Runner:
    """Runs passes of one workload, counting every op into ``tally``."""

    def __init__(self, workload: Workload, tally: Tally, stop_at: float,
                 timer: BuildTimer) -> None:
        self.workload = workload
        self.tally = tally
        self.stop_at = stop_at
        self.timer = timer

    def _time_left(self, budget: float) -> float:
        return min(budget, self.stop_at - time.perf_counter())

    def _check_all(self, done: list[tuple[Op, Any]], twins: dict[str, Any],
                   out: PassResult) -> None:
        """Check a pass's results; an op's twin may be any op of the pass."""
        twins = {**twins, **{op.id: result for op, result in done}}
        for op, result in done:
            reason = check(op, result, twins)
            self.tally.record(op.id, reason)
            if reason is None:
                out.results[op.id] = result

    def serial_pass(self, ops: tuple[Op, ...], registry: Any = None,
                    twins: dict[str, Any] | None = None) -> PassResult:
        """Run ``ops`` in-process.  With a ``registry`` each op goes through
        ``parallel_map(jobs=1)`` under it; with None the op function is
        called bare, with no ambient registry, so every cluster it builds
        gets a disabled one."""
        out = PassResult()
        done: list[tuple[Op, Any]] = []
        gc.collect()  # start every pass from the same heap, untimed
        calls0, build0 = self.timer.calls, self.timer.seconds
        wall0, cpu0 = time.perf_counter(), _cpu_now()
        for op in ops:
            start, start_cpu = time.perf_counter(), _cpu_now()
            try:
                with deadline(self._time_left(self.workload.op_deadline_s)):
                    if registry is None:
                        result = op.fn(**op.kwargs)
                    else:
                        with use_registry(registry):
                            result = parallel_map([op.task], jobs=1)[0]
                done.append((op, result))
            except DeadlineExceeded as exc:
                self.tally.timed_out = True
                self.tally.record(op.id, str(exc))
            except Exception as exc:  # a failing op is counted, not fatal
                self.tally.record(op.id, f"raised {type(exc).__name__}: {exc}")
            finally:
                out.op_walls.append(time.perf_counter() - start)
                out.op_cpus.append(_cpu_now() - start_cpu)
        out.wall_s = time.perf_counter() - wall0
        out.cpu_s = _cpu_now() - cpu0
        out.build_calls = self.timer.calls - calls0
        out.build_s = self.timer.seconds - build0
        self._check_all(done, twins or {}, out)
        return out

    def fanout_pass(self, ops: tuple[Op, ...]) -> PassResult:
        """Fan ``ops`` out over two worker processes with ``parallel_map``."""
        out = PassResult()
        budget = self.workload.op_deadline_s * len(ops) / 2
        gc.collect()
        wall0 = time.perf_counter()
        try:
            with deadline(self._time_left(budget)), \
                    use_registry(MetricRegistry()):
                results = parallel_map([op.task for op in ops], jobs=2)
        except DeadlineExceeded as exc:
            self.tally.timed_out = True
            for op in ops:
                self.tally.record(op.id, f"fan-out pass {exc}")
            return out
        except Exception as exc:  # a failing pass is counted, not fatal
            for op in ops:
                self.tally.record(op.id, f"fan-out pass raised "
                                         f"{type(exc).__name__}: {exc}")
            return out
        finally:
            out.wall_s = time.perf_counter() - wall0
        self._check_all(list(zip(ops, results)), {}, out)
        return out


# -- the two kinds of run -------------------------------------------------------


def import_seconds(modules: list[str]) -> float:
    """Seconds a fresh interpreter spends importing ``modules``."""
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            f"import {', '.join(modules)}\n"
            "sys.stdout.write(repr(time.perf_counter() - t))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=20, check=True)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _per_op_median(passes: list[PassResult], attr: str) -> float:
    """Sum over ops of each op's median across passes: a spike in one op
    of one pass does not move it."""
    columns = zip(*(getattr(p, attr) for p in passes))
    return sum(statistics.median(column) for column in columns)


def _untraced(runner: Runner, modules: list[str],
              seconds: float) -> dict[str, float]:
    ops = runner.workload.ops
    imports = [import_seconds(modules) for _ in range(IMPORT_SAMPLES)]
    serial: list[PassResult] = []
    fanout: list[PassResult] = []
    peak_rss_mb = None
    for _ in range(runner.workload.pairs(seconds)):
        fanout.append(runner.fanout_pass(ops))
        serial.append(runner.serial_pass(ops, registry=MetricRegistry()))
        if peak_rss_mb is None:
            # Read after the first pair, so it does not depend on how many
            # pairs the budget buys.
            peak_rss_mb = _peak_rss_mb()
        if runner.tally.timed_out:
            break
    return {
        "wall_s": _per_op_median(serial, "op_walls"),
        "cpu_s": _per_op_median(serial, "op_cpus"),
        "wall_jobs2_s": statistics.median(p.wall_s for p in fanout),
        "setup_s": (statistics.median(imports)
                    + statistics.median(p.build_s for p in serial)),
        "peak_rss_mb": peak_rss_mb,
    }


def _traced(runner: Runner, start: float, seconds: float) -> dict[str, float]:
    wl = runner.workload
    registry = MetricRegistry()
    with_obs = [runner.serial_pass(wl.ops, registry=registry)]
    without_obs = [runner.serial_pass(wl.ops, registry=None)]
    with cProfile.Profile() as profiler:
        traced = runner.serial_pass(wl.ops, registry=MetricRegistry())
    first = with_obs[0]
    fork = runner.serial_pass(wl.fork_ops, registry=MetricRegistry(),
                              twins=first.results)
    # More obs on/off pairs while the budget allows: the ratio is noisy.
    while not runner.tally.timed_out:
        pair = with_obs[-1].wall_s + without_obs[-1].wall_s
        if time.perf_counter() - start + pair > seconds:
            break
        with_obs.append(runner.serial_pass(wl.ops, registry=MetricRegistry()))
        without_obs.append(runner.serial_pass(wl.ops, registry=None))

    metrics: dict[str, float] = {}
    split = attribute(profile_stats(profiler))
    for layer in LAYERS + ("other",):
        metrics[f"host_self_s.{layer}"] = split["self_s"][layer]
    for layer in LAYERS:
        metrics[f"host_calls.{layer}"] = split["calls"][layer]
    metrics.update(layer_counts(registry.snapshot()))
    events = metrics["sim.events"]
    metrics["sim.host_ns_per_event"] = (first.cpu_s / events * 1e9
                                        if events else 0.0)
    metrics["cluster.build_calls"] = first.build_calls
    metrics["cluster.build_s"] = first.build_s
    metrics["experiments.task_count"] = len(wl.ops)
    longest = max(first.op_walls, default=0.0)
    metrics["experiments.longest_task_s"] = longest
    metrics["experiments.longest_task_share"] = (
        longest / sum(first.op_walls) if first.op_walls else 0.0)
    twin_ids = {op.twin for op in wl.ops + wl.fork_ops}
    metrics["pdes.serial_wall_s"] = sum(
        wall for op, wall in zip(wl.ops, first.op_walls) if op.id in twin_ids)
    metrics["pdes.fork_wall_s"] = fork.wall_s if wl.fork_ops else 0.0
    stats = [r["stats"] for r in fork.results.values()]
    metrics["pdes.barrier_idle_s"] = sum(s["barrier_idle_s"] for s in stats)
    metrics["pdes.critical_path_s"] = sum(s["critical_path_s"] for s in stats)
    with_wall = statistics.median(p.wall_s for p in with_obs)
    metrics["obs.overhead_ratio"] = (
        with_wall / statistics.median(p.wall_s for p in without_obs))
    metrics["trace_overhead_ratio"] = traced.wall_s / with_wall
    return metrics


def run_workload(name: str, seconds: float,
                 trace: bool) -> tuple[Tally, dict[str, float]]:
    """Run workload ``name``; return its op tally and its metric values."""
    start = time.perf_counter()
    wl = load_workload(name)
    tally = Tally()
    timer = BuildTimer()
    runner = Runner(wl, tally, start + RUN_LIMIT_S, timer)
    names = sorted({op.fn.__module__ for op in wl.ops + wl.fork_ops})
    modules = [sys.modules[n] for n in names]
    with timer.installed(modules):
        if trace:
            metrics = _traced(runner, start, seconds)
        else:
            metrics = _untraced(runner, names, seconds)
    return tally, metrics
