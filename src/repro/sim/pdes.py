"""Conservative-lookahead parallel discrete-event simulation (PDES).

One scenario's hosts are partitioned across shards
(:func:`repro.cluster.builder.partition_hosts`); each shard runs its own
:class:`~repro.sim.Environment` — in a forked worker process or inline —
and the coordinator advances all of them in lock-stepped *conservative
windows* derived from the minimum cross-shard fabric latency.

Window rule.  Let ``gmin`` be the global minimum over (a) every shard's
:meth:`~repro.sim.Environment.next_event_time` and (b) the arrival
instants of cross-shard frames routed at the last barrier but not yet
ingested.  The next window runs every shard to::

    end = gmin + lookahead - 1          (lookahead <= min fabric latency)

Any frame carried *during* that window is sent at an instant ``t >= gmin``
(causality: nothing can fire before the global minimum), so it arrives at
``t + latency >= gmin + lookahead > end`` — strictly after the window.
Cross-shard traffic therefore only ever lands in a *future* window, and
exchanging frames at the barrier between windows is race-free.
:meth:`repro.cluster.network.ShardEtherFabric.ingress` enforces this with
a hard error rather than trusting the math.  The null-message trick falls
out of the same rule: an idle shard reports ``next_event_time() = None``
and simply stops constraining ``gmin``, so windows stretch to the next
real work instead of ticking through dead air.

Determinism.  The whole point of the exercise is that sharded runs are
**byte-identical** to serial ones.  Two disciplines make that true:

* *Canonical same-instant merge order* — the shard fabric batches
  deliveries per ``(arrival, destination)`` and sorts each batch by the
  frame's ``(src, seq, copy)`` key, so delivery order never depends on
  which shard a frame came from or when its timer object was created.
* *Pure fault plans* — :class:`SeededFaultPlan` decides drop/duplicate/
  delay from a hash of ``(seed, src, dst, seq)`` alone, so chaos verdicts
  are identical at every shard count.

Because the window sequence itself is a pure function of global event
times (identical at every shard count), a one-shard run *is* the serial
baseline: same code path, same windows, no cross-shard traffic.  The
full-stack scenario riding on this coordinator is
:mod:`repro.sim.openmx_shard`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import time as _time
import traceback
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.builder import ShardPlan
from repro.experiments.parallel import merge_worker_registries
from repro.obs.metrics import MetricRegistry, current_registry
from repro.sim.engine import SimulationError

__all__ = [
    "SeededFaultPlan",
    "host_core_count",
    "resolve_shards",
    "run_partitioned",
]

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64 finalizer: a high-quality pure integer hash.

    Python's builtin ``hash`` is salted per-process for strings and is
    the identity for small ints — useless for cross-process-reproducible
    fault verdicts.  This is the standard 64-bit mixer instead.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SeededFaultPlan:
    """Chaos verdicts as a pure function of the frame key.

    ``plan(src, dst, seq) -> (drop, copies, extra_delay_ns)`` depends only
    on ``(seed, src, dst, seq)`` — never on which shard evaluates it or in
    what order — so a faulted run makes identical decisions at every shard
    count.  Extra delay is a whole number of ``delay_quantum_ns``.
    """

    seed: int
    drop_per_mille: int = 0
    dup_per_mille: int = 0
    delay_per_mille: int = 0
    delay_quantum_ns: int = 2_000
    max_delay_quanta: int = 8

    def __post_init__(self) -> None:
        if self.max_delay_quanta <= 0:
            raise ValueError("max_delay_quanta must be positive")

    @property
    def max_extra_delay_ns(self) -> int:
        return self.max_delay_quanta * self.delay_quantum_ns

    def __call__(self, src: int, dst: int, seq: int) -> tuple[bool, int, int]:
        h = _mix(self.seed * 0x9E3779B97F4A7C15
                 + _mix((src << 40) ^ (dst << 20) ^ seq))
        drop = h % 1000 < self.drop_per_mille
        h = _mix(h)
        copies = 2 if h % 1000 < self.dup_per_mille else 1
        h = _mix(h)
        extra = 0
        if h % 1000 < self.delay_per_mille:
            extra = (1 + _mix(h) % self.max_delay_quanta) * self.delay_quantum_ns
        return drop, copies, extra


# -- worker plumbing ----------------------------------------------------------
#
# The plumbing is *generic*: a shard factory is any picklable callable
# ``factory(shard_id, plan) -> shard`` returning an object with the shard
# protocol — ``next_time()``, ``ingress(entries)``,
# ``run_window(until) -> (egress, next_time, busy_s)``, ``end_state()``,
# and a ``registry`` attribute (see
# :class:`repro.sim.openmx_shard.OpenmxShard`).


def _shard_worker(conn, shard_id: int, plan: ShardPlan, factory) -> None:
    """Forked shard worker: build the shard, then serve window commands."""
    try:
        shard = factory(shard_id, plan)
        conn.send(("time", shard.next_time()))
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                _, end, ingress = msg
                shard.ingress(ingress)
                egress, nxt, busy = shard.run_window(end)
                conn.send(("done", egress, nxt, busy))
            elif msg[0] == "finish":
                conn.send(("state", shard.end_state(), shard.registry))
                return
            else:
                raise SimulationError(f"unknown shard command {msg[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ForkHandle:
    """Coordinator-side proxy for a forked shard worker.

    A worker that dies without reporting (killed by a signal, the OOM
    killer, ``os._exit``) breaks the pipe; both directions turn that into
    a :class:`SimulationError` naming the shard and the worker's exit
    code instead of a bare ``BrokenPipeError`` or ``EOFError``.
    """

    def __init__(self, shard_id: int, plan: ShardPlan, factory, ctx) -> None:
        self.shard_id = shard_id
        self.finished = False
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_worker,
                                args=(child, shard_id, plan, factory),
                                daemon=True)
        self.proc.start()
        child.close()

    def _died(self, exc: BaseException) -> SimulationError:
        self.proc.join(timeout=1)
        return SimulationError(
            f"PDES shard {self.shard_id} worker died without reporting "
            f"(exitcode {self.proc.exitcode}): {exc!r}")

    def _send(self, msg: tuple) -> None:
        try:
            self.conn.send(msg)
        except OSError as exc:
            raise self._died(exc) from exc

    def _recv(self, want: str):
        try:
            msg = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc
        if msg[0] == "error":
            raise SimulationError(f"PDES shard worker failed:\n{msg[1]}")
        if msg[0] != want:
            raise SimulationError(f"expected {want!r} from shard worker, "
                                  f"got {msg[0]!r}")
        return msg[1:]

    def initial_next(self):
        return self._recv("time")[0]

    def start_window(self, end: int, ingress) -> None:
        self._send(("window", end, ingress))

    def finish_window(self):
        return self._recv("done")

    def finish(self):
        self._send(("finish",))
        reply = self._recv("state")
        self.finished = True
        return reply

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if not self.finished:
            # Aborted run: the worker still waits for a command.  It holds
            # its own copy of this pipe, so closing our end cannot wake it.
            self.proc.terminate()
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=10)


class _InlineHandle:
    """Same protocol as :class:`_ForkHandle`, driven in-process.  Used for
    the serial baseline (``shards=1``) and for fast property tests — the
    shard code path is identical either way."""

    def __init__(self, shard_id: int, plan: ShardPlan, factory) -> None:
        self.shard = factory(shard_id, plan)
        self._reply = None

    def initial_next(self):
        return self.shard.next_time()

    def start_window(self, end: int, ingress) -> None:
        self.shard.ingress(ingress)
        self._reply = self.shard.run_window(end)

    def finish_window(self):
        reply, self._reply = self._reply, None
        return reply

    def finish(self):
        return self.shard.end_state(), self.shard.registry

    def close(self) -> None:
        pass


# -- coordinator --------------------------------------------------------------


def _merge_states(states: Sequence[dict]) -> dict:
    """Fold per-shard end states into one shard-count-independent state.

    ``now_ns`` must agree (shards barrier on the same window end);
    ``events`` sum; ``hosts`` concatenate sorted by global id; any other
    top-level key must be a flat dict of numeric totals (e.g. the fabric
    counters) and is summed field-wise — which keeps the function generic
    across scenarios without per-scenario merge code.
    """
    nows = {st["now_ns"] for st in states}
    if len(nows) != 1:
        raise SimulationError(
            f"shard clocks diverged at the final barrier: {sorted(nows)}")
    state = {
        "now_ns": nows.pop(),
        "events": sum(st["events"] for st in states),
        "hosts": sorted((h for st in states for h in st["hosts"]),
                        key=lambda h: h["id"]),
    }
    for key, value in states[0].items():
        if key in ("now_ns", "events", "hosts"):
            continue
        if not isinstance(value, dict):
            raise SimulationError(
                f"cannot merge shard-state key {key!r}: expected a dict of "
                f"numeric totals, got {type(value).__name__}")
        state[key] = {k: sum(st[key][k] for st in states) for k in value}
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    state["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    return state


def run_partitioned(factory, plan: ShardPlan, *, lookahead_ns: int,
                    mode: str | None = None,
                    registry: MetricRegistry | None = None) -> dict:
    """Drive one partitioned scenario through conservative windows.

    ``factory(shard_id, plan)`` builds one shard (see the worker-plumbing
    note above for the shard protocol); it must be picklable so forked
    workers can reconstruct their shard after ``fork()``.  ``mode`` is
    ``"fork"`` (worker processes) or ``"inline"`` (all shards driven in
    this process — same code path, no parallelism); the default forks
    only when there is more than one shard.  Returns ``{"state": ...,
    "stats": ...}`` where ``state`` is byte-identical for every
    ``(nshards, mode, partition)`` choice and ``stats`` carries the
    window/barrier accounting.
    """
    if lookahead_ns <= 0:
        raise ValueError(f"lookahead_ns must be positive, got {lookahead_ns}")
    if mode is None:
        mode = "fork" if plan.nshards > 1 else "inline"
    if mode not in ("fork", "inline"):
        raise ValueError(f"unknown mode {mode!r}")

    wall_start = _time.perf_counter()
    if mode == "fork":
        ctx = multiprocessing.get_context("fork")
        # Frozen objects are invisible to the workers' collector: a full
        # collection in a worker would otherwise touch every object it
        # inherited and copy-on-write the coordinator's whole heap.
        gc.freeze()
        try:
            handles = [_ForkHandle(s, plan, factory, ctx)
                       for s in range(plan.nshards)]
        finally:
            gc.unfreeze()
    else:
        handles = [_InlineHandle(s, plan, factory)
                   for s in range(plan.nshards)]
    try:
        next_times = [h.initial_next() for h in handles]
        pending: list[list] = [[] for _ in handles]
        windows = 0
        advance_ns = 0
        cross_frames = 0
        barrier_idle_s = 0.0
        critical_path_s = 0.0
        prev_end = 0
        while True:
            cands = [t for t in next_times if t is not None]
            cands.extend(a for ing in pending for a, _ in ing)
            if not cands:
                break
            end = min(cands) + lookahead_ns - 1
            # Send every window command before reading any reply: with
            # forked workers this is what makes the shards actually run
            # concurrently rather than round-robin.
            for handle, ingress in zip(handles, pending):
                handle.start_window(end, ingress)
            pending = [[] for _ in handles]
            replies = [h.finish_window() for h in handles]
            windows += 1
            advance_ns += end - prev_end
            prev_end = end
            busies = [r[2] for r in replies]
            bmax = max(busies)
            critical_path_s += bmax
            barrier_idle_s += sum(bmax - b for b in busies)
            next_times = [r[1] for r in replies]
            for egress, _, _ in replies:
                for arrival, frame in egress:
                    pending[plan.shard_of(frame.dst)].append((arrival, frame))
                    cross_frames += 1
        states = []
        registries = []
        for handle in handles:
            st, reg = handle.finish()
            states.append(st)
            registries.append(reg)
    finally:
        for handle in handles:
            handle.close()
    wall = _time.perf_counter() - wall_start

    target = current_registry() if registry is None else registry
    if target is not None:
        target.counter(
            "pdes_windows",
            "conservative windows executed by the PDES coordinator",
        ).inc(windows)
        target.counter(
            "pdes_lookahead_ns",
            "simulated nanoseconds advanced across PDES windows",
        ).inc(advance_ns)
        target.counter(
            "pdes_barrier_wait_us",
            "aggregate shard idle time at PDES window barriers",
        ).inc(int(barrier_idle_s * 1e6))
    # Worker registries carry the per-shard pdes_frames_*, omx_* and sim_*
    # series; fold them in shard order so aggregation is deterministic.
    merge_worker_registries(registries, into=registry)

    return {
        "state": _merge_states(states),
        "stats": {
            "shards": plan.nshards,
            "mode": mode,
            "lookahead_ns": lookahead_ns,
            "windows": windows,
            "advance_ns": advance_ns,
            "cross_shard_frames": cross_frames,
            "wall_s": wall,
            "critical_path_s": critical_path_s,
            "barrier_idle_s": barrier_idle_s,
        },
    }


# -- shard-count policy -------------------------------------------------------


def host_core_count() -> int:
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_shards(spec: int | str, default: int = 4) -> int:
    """Resolve a ``--shards`` value; ``"auto"`` caps at the core count.

    Forked shards beyond the host's cores only time-share — the wall can
    even regress vs serial while the critical path still shrinks (the
    ``core_starved`` flag in A/B reports makes that explicit).  ``auto``
    picks ``min(default, host_core_count())`` so a laptop CI runner never
    starts a core-starved fleet by default, while an explicit integer is
    always honoured.
    """
    if isinstance(spec, str):
        spec = spec.strip().lower()
        if spec == "auto":
            return max(1, min(default, host_core_count()))
        try:
            value = int(spec)
        except ValueError:
            raise ValueError(f"--shards expects an integer or 'auto', "
                             f"got {spec!r}") from None
    else:
        value = spec
    if value <= 0:
        raise ValueError(f"shard count must be positive, got {value}")
    return value
