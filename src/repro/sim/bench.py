"""Engine and data-path microbenchmarks — ``python -m repro.sim.bench``.

Measures host time per simulated event on scenarios that mirror how the
protocol layers drive the discrete-event kernel:

* ``timer_churn`` — the retransmit idiom: an ack racing a long timer that
  almost always loses (the protocol's backoff timers create these in
  volume).
  Exercises lazy cancellation and the Timeout free-list.
* ``timeout_ladder`` — many concurrent processes sleeping in a loop; the
  pure heap + process-resume path.
* ``event_pingpong`` — two processes alternating via bare events; the
  succeed/dispatch fast path with a single callback per event.
* ``condition_fanout`` — ``any_of`` over several timers each round; the
  condition attach/detach path, with losing timers cancelled into the
  free-list (dead entries still pop, so event counts are unchanged).
* ``wheel_storm`` — timers spread across every timer-wheel level plus the
  overflow heap (short acks, microsecond retransmits, millisecond
  watchdogs, far-future blackout timers that always cancel), with
  zero-delay timeouts mixed in; the scenario the wheel rewrite targets,
  and the one that exercises cascades/promotions hardest.
* ``datapath_pull`` — a full NIC→fabric→softirq receive storm (two senders
  bursting 4 KiB frames at one receiver whose bottom half is the
  bottleneck); the workload the data-path event-coalescing change targets.
* ``vm_churn`` — many processes mmap/write/declare/pin/probe/munmap/COW/
  swap in a loop; the VM-layer index and fused pin charge.
* ``openmx_shard`` (:mod:`repro.sim.openmx_shard`) — 16 hosts, each with a
  complete kernel/MMU-notifier/pin-service/driver/NIC stack, exchanging
  mixed eager/rendezvous traffic under pin pressure, partitioned across
  ``--shards`` forked workers of the conservative-PDES coordinator
  (:mod:`repro.sim.pdes`).  ``--shards auto`` caps the count at the
  host's usable cores (reports flag ``core_starved`` otherwise).

Every scenario is deterministic, so one timed round gives an exact event
count; wall time is the only noise, which ``--repeat`` (best-of) tames.
Naming no scenario runs every one that runs on a single engine (all but
``openmx_shard``).

Usage::

    python -m repro.sim.bench                 # full scale, 3 repeats
    python -m repro.sim.bench --quick         # CI smoke (~1 s)
    python -m repro.sim.bench --json BENCH_engine.json
    python -m repro.sim.bench --ab benchmarks/engine_seed_reference.py
    python -m repro.sim.bench --ab benchmarks/vm_seed_reference.py vm_churn
    python -m repro.sim.bench --shards auto openmx_shard
    python -m repro.sim.bench --quick --state-json s.json datapath_pull

``--ab REF`` is the interleaved A/B: every repetition times a reference
side and then the current tree on the same scenario (ref, current, ref,
current, ...) in one process, so host-load drift hits both sides equally;
each side reports its best of ``--repeat``.  What the reference swaps is
fixed per scenario (:data:`SCENARIOS`): the engine scenarios run on the
``Environment`` class ``REF`` exports (e.g. the frozen seed engine,
``benchmarks/engine_seed_reference.py``); ``datapath_pull`` and
``vm_churn`` build on the class ``STACK`` it exports (the frozen
pre-coalescing and pre-index stacks in ``benchmarks/``) on the current
engine; ``openmx_shard``'s reference is built in — the in-process serial
run against forked shards, plus one sharded run per block/stripe/affinity
partition — so naming it is enough.
Every repetition must pass the equivalence gate or the run aborts naming
every differing leaf (e.g. ``procs[3].pins``): equal event counts for the
engine scenarios, an equal simulated end state everywhere else (those
sides dispatch different event counts by design).  Without ``--ab`` the
other scenarios time the current tree alone.  A reference that does not
fit a named scenario is rejected before anything runs; with no scenario
named, ``--ab`` runs every scenario the reference fits.

``--state-json PATH`` writes one scenario's exact simulated end state —
no timing — for the zero-tolerance drift gates that diff it against
``benchmarks/datapath_sim_quick.json``, ``benchmarks/vm_sim_quick.json``
and ``benchmarks/openmx_shard_quick.json`` (the last at ``--shards 2``;
CI also diffs it across ``--shards {1,2,4}``).  It takes exactly one
scenario that has a state schema.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.sim.engine import Environment

__all__ = ["SCENARIOS", "Scenario", "format_report", "run_benchmarks",
           "sim_state"]


# -- scenarios ----------------------------------------------------------------


def _timer_churn(env: Environment, rounds: int, procs: int = 16) -> None:
    """The retransmit idiom: ack at +10 ns races a timer at +1000 ns."""

    def worker():
        for _ in range(rounds):
            ack = env.event()
            env.timeout(10).callbacks.append(
                lambda _ev, ack=ack: ack.succeed()
            )
            timer = env.timeout(1000)
            yield env.any_of([ack, timer])
            cancel = getattr(timer, "cancel", None)
            if cancel is not None:
                cancel()

    for _ in range(procs):
        env.process(worker())


def _timeout_ladder(env: Environment, rounds: int, procs: int = 64) -> None:
    """Many processes sleeping in lockstep: heap + resume throughput."""

    def worker():
        for _ in range(rounds):
            yield env.timeout(7)

    for _ in range(procs):
        env.process(worker())


def _event_pingpong(env: Environment, rounds: int) -> None:
    """Two processes alternating on bare events (single-callback dispatch)."""
    ping = [env.event()]
    pong = [env.event()]

    def a():
        for i in range(rounds):
            ping[0].succeed(i)
            yield pong[0]
            pong[0] = env.event()

    def b():
        for _ in range(rounds):
            yield ping[0]
            ping[0] = env.event()
            pong[0].succeed()

    env.process(a())
    env.process(b())


def _condition_fanout(env: Environment, rounds: int, width: int = 8) -> None:
    """any_of over ``width`` timers; one wins, the losers are cancelled.

    Cancelling the detached losers (getattr-guarded: the frozen seed
    engine's Timeout has no ``cancel``) routes them through the free-list
    without changing simulated behavior — dead entries still pop at their
    original expiry, so the event count stays identical on both engines.
    """

    def worker():
        for _ in range(rounds):
            timers = [env.timeout(j + 1) for j in range(width)]
            yield env.any_of(timers)
            for t in timers:
                cancel = getattr(t, "cancel", None)
                if cancel is not None:
                    cancel()

    env.process(worker())


def _wheel_storm(env: Environment, rounds: int, procs: int = 8) -> None:
    """Timers on every wheel level at once — the wheel-stress workload.

    Each round every process races a fast ack against four timers whose
    expiries land in different wheel levels: a short poll (level 0), a
    microsecond retransmit (level 1), a millisecond watchdog (level 2) and
    a far-future blackout timer (overflow heap).  The ack wins, the losers
    are cancelled (getattr-guarded for the seed engine) and pop dead at
    their original expiries — so the tail of the run is dominated by the
    wheel advancing across sparse, multi-level expiries, exercising
    cascades, overflow promotions and bitmap tick-finding.  Every seventh
    round adds a zero-delay timeout (the ready-FIFO path).
    """

    def worker(k: int):
        for i in range(rounds):
            ack = env.event()
            env.timeout(3 + k).callbacks.append(
                lambda _ev, ack=ack: ack.succeed()
            )
            racers = (
                env.timeout(40 + 7 * k),                   # level 0
                env.timeout(2_000 + 130 * k),              # level 1
                env.timeout(300_000 + 1_000 * k),          # level 2
                env.timeout(50_000_000 + 100_000 * k),     # overflow heap
            )
            yield env.any_of([ack, *racers])
            for t in racers:
                cancel = getattr(t, "cancel", None)
                if cancel is not None:
                    cancel()
            if i % 7 == 0:
                yield env.timeout(0)

    for k in range(procs):
        env.process(worker(k))


# Data-path scenario constants: 4 KiB frames arrive from two senders every
# ~1.65 us while the bottom half needs ~3.8 us per frame (per-packet cost
# plus a 4 KiB memcpy at 1.25 GB/s), so the RX ring backs up, the NAPI
# budget trips, and ksoftirqd rounds run — the regime the data-path
# event-coalescing change targets.
_DP_FRAME_BYTES = 4096
_DP_BURST = 64          # frames per sender per message
_DP_GAP_NS = 600_000    # inter-message settle gap (ring fully drains)


def _datapath_stack() -> dict[str, type]:
    """The current tree's classes ``datapath_pull`` builds on."""
    from repro.cluster.network import Fabric
    from repro.hw.nic import EthernetFrame, Nic
    from repro.kernel.interrupts import SoftirqEngine

    return {"EthernetFrame": EthernetFrame, "Nic": Nic, "Fabric": Fabric,
            "SoftirqEngine": SoftirqEngine}


def _datapath_pull(env: Environment, rounds: int, stack=None):
    """Two senders burst 4 KiB frames at one receiver's bottom half.

    ``stack`` picks the Nic/Fabric/SoftirqEngine classes to build on
    (default: the current tree); the frozen pre-coalescing stack lives in
    ``benchmarks/datapath_seed_reference.py``.  Returns a probe reading the
    complete simulated end state, with the constructed parts hung off it
    (``probe.fabric`` and friends) for tests.
    """
    from repro.hw.cpu import CpuCore
    from repro.hw.specs import MYRI_10G, XEON_E5460

    s = stack or _datapath_stack()
    frame_cls = s["EthernetFrame"]
    fabric = s["Fabric"](env, latency_ns=1_000)
    rx = s["Nic"](env, MYRI_10G, "rxhost")
    senders = [s["Nic"](env, MYRI_10G, f"txhost{i}") for i in range(2)]
    for nic in (rx, *senders):
        fabric.attach(nic)
    core = CpuCore(env, XEON_E5460, "rxhost", 0)
    handled = {"frames": 0, "bytes": 0}

    def handler(frame, ctx):
        handled["frames"] += 1
        handled["bytes"] += frame.payload_bytes
        yield from ctx.memcpy(frame.payload_bytes)

    softirq = s["SoftirqEngine"](env, core, rx, handler)
    # The handler charges before any externally visible action, so every
    # frame is fusable.  Plain attribute assignment works on both stacks
    # (the seed engine simply never reads the hint).
    softirq.fuse_hint = lambda frame: True
    rx.set_rx_callback(softirq.raise_irq)

    def sender(nic):
        for _ in range(rounds):
            for _ in range(_DP_BURST):
                nic.send(frame_cls(
                    src=nic.address, dst=rx.address, ethertype=0x86DF,
                    payload=None, payload_bytes=_DP_FRAME_BYTES))
            yield env.timeout(_DP_GAP_NS)

    for nic in senders:
        env.process(sender(nic), name=f"{nic.name}.app")

    def probe():
        return {
            "now_ns": env.now,
            "handled_frames": handled["frames"],
            "handled_bytes": handled["bytes"],
            "tx_frames": sum(n.tx_frames for n in senders),
            "tx_bytes": sum(n.tx_bytes for n in senders),
            "rx_frames": rx.rx_frames,
            "rx_bytes": rx.rx_bytes,
            "rx_ring_drops": rx.rx_ring_drops,
            "frames_carried": fabric.frames_carried,
            "frames_dropped": fabric.frames_dropped,
            "bh_runs": softirq.bh_runs,
            "frames_processed": softirq.frames_processed,
            "ksoftirqd_rounds": softirq.ksoftirqd_rounds,
        }

    probe.fabric = fabric
    probe.softirq = softirq
    probe.rx_nic = rx
    probe.senders = senders
    return probe


# VM-churn scenario constants: independent processes hammer the VM layer —
# allocate + write (page faults), declare + pin regions, probe the pinned
# watermark and residency, then churn with munmap/COW/swap invalidations.
# Every per-process structure (address space, memory, core, RNG) is private,
# so process interleaving cannot change any per-process result.
_VM_PROCS = 6
_VM_BUFS_PER_ROUND = 3


def _vm_stack() -> dict[str, type]:
    """The current tree's classes ``vm_churn`` builds on."""
    from repro.kernel.address_space import AddressSpace
    from repro.kernel.mmu_notifier import IntervalIndex
    from repro.kernel.pinning import PinService
    from repro.openmx.regions import UserRegion

    return {"AddressSpace": AddressSpace, "UserRegion": UserRegion,
            "PinService": PinService, "RegionIndex": IntervalIndex}


def _vm_churn(env: Environment, rounds: int, stack=None):
    """Many processes churning mmap/pin/probe/invalidate on the VM layer.

    ``stack`` picks the AddressSpace/UserRegion/PinService/region-index
    classes to build on (default: the current tree); the frozen pre-index
    stack lives in ``benchmarks/vm_seed_reference.py``.  Returns a probe
    reading the complete simulated end state: final clock plus, per
    process, every VM/pin/notifier counter and a digest of all data read.
    """
    import hashlib
    import random

    from repro.hw.cpu import CpuCore
    from repro.hw.memory import PAGE_SIZE, PhysicalMemory
    from repro.hw.specs import XEON_E5460
    from repro.kernel.address_space import page_count
    from repro.kernel.mmu_notifier import CallbackNotifier
    from repro.obs.metrics import MetricRegistry
    from repro.openmx.regions import Segment

    s = stack or _vm_stack()
    registry = MetricRegistry()  # private: keep the ambient registry clean
    parts: list[dict | None] = [None] * _VM_PROCS

    def worker(pid: int):
        rng = random.Random(1_000_003 * (pid + 1))
        memory = PhysicalMemory(64 << 20)
        aspace = s["AddressSpace"](memory, name=f"vm{pid}")
        core = CpuCore(env, XEON_E5460, f"vmhost{pid}", 0)
        pin = s["PinService"](metrics=registry, host=f"vmhost{pid}")
        index = s["RegionIndex"]()
        regions: dict[int, object] = {}
        next_rid = 1
        buffers: list[tuple[int, int]] = []  # (addr, nbytes)
        fixed_maps: list[tuple[int, int]] = []
        digest = hashlib.sha256()
        stats = {"notifier_unpins": 0, "covers_hits": 0, "resident": 0,
                 "reuse_hits": 0, "cow_pages": 0, "swapped_pages": 0,
                 "mapped_probes": 0}

        def on_invalidate(start: int, end: int) -> None:
            # The driver-style dispatch: consult the region index, unpin
            # every still-watermarked region the invalidation hits.
            for rid in index.overlapping(start, end):
                region = regions[rid]
                if region.watermark == 0:
                    continue
                pin.unpin_now(aspace, region.take_pinned_frames())
                stats["notifier_unpins"] += 1

        aspace.notifiers.register(CallbackNotifier(on_invalidate))
        fixed_base = aspace.MMAP_BASE - (1 << 36) + pid * (1 << 32)

        for rnd in range(rounds):
            # -- allocate: fresh buffers, fully written (faults every page)
            for b in range(_VM_BUFS_PER_ROUND):
                npages = rng.randrange(2, 12)
                nbytes = npages * PAGE_SIZE - rng.randrange(0, PAGE_SIZE // 2)
                addr = aspace.mmap(nbytes)
                pat = bytes((pid * 37 + rnd * 11 + b * 5 + j) % 251
                            for j in range(256))
                payload = (pat * (nbytes // len(pat) + 1))[:nbytes]
                aspace.write(addr, payload)
                buffers.append((addr, nbytes))
            yield env.timeout(rng.randrange(200, 1500))

            # -- declare two regions: one contiguous, one vectorial
            addr, nbytes = buffers[rng.randrange(len(buffers))]
            new_regions = [(Segment(addr, nbytes),)]
            vec = []
            for _ in range(rng.randrange(3, 7)):
                a2, n2 = buffers[rng.randrange(len(buffers))]
                off = rng.randrange(0, max(1, n2 // 2))
                ln = rng.randrange(1, max(2, n2 - off))
                vec.append(Segment(a2 + off, ln))
            new_regions.append(tuple(vec))
            pin_rids = []
            for segs in new_regions:
                region = s["UserRegion"](next_rid, aspace, segs)
                regions[next_rid] = region
                index.add(next_rid,
                          [(sg.va, sg.va + sg.length) for sg in segs])
                pin_rids.append(next_rid)
                next_rid += 1

            # -- pin the new regions fully, one segment at a time
            for rid in pin_rids:
                region = regions[rid]
                for sg in region.segments:
                    frames = yield from pin.pin_user_pages(
                        core, aspace, sg.va, page_count(sg.va, sg.length))
                    region.attach_frames(region.watermark, frames)

            # -- probe storm: watermark covers(), residency, mappedness
            for rid in sorted(regions):
                region = regions[rid]
                for _ in range(8):
                    off = rng.randrange(0, region.total_length)
                    ln = rng.randrange(1, region.total_length - off + 1)
                    stats["covers_hits"] += bool(region.covers(off, ln))
                if region.fully_pinned:
                    digest.update(
                        region.read(0, min(region.total_length, 4096)))
            for a2, n2 in buffers:
                stats["mapped_probes"] += aspace.is_mapped_range(a2, n2)
                stats["resident"] += aspace.resident_pages(a2, n2)
            heap_span = (buffers[-1][0] + buffers[-1][1]) - aspace.MMAP_BASE
            stats["resident"] += aspace.resident_pages(aspace.MMAP_BASE,
                                                       heap_span)
            digest.update(aspace.read(addr, min(nbytes, 2048)))
            yield env.timeout(rng.randrange(200, 1500))

            # -- churn: destroy, munmap (+LIFO re-mmap), COW/swap pressure
            if regions and rng.random() < 0.7:
                rid = min(regions)
                region = regions.pop(rid)
                index.remove(rid)
                if region.watermark:
                    yield from pin.unpin_user_pages(
                        core, aspace, region.take_pinned_frames())
            if len(buffers) > 4:
                i = rng.randrange(len(buffers))
                a2, n2 = buffers.pop(i)
                aspace.munmap(a2, n2)  # notifiers fire through the index
                if rng.random() < 0.5:
                    a3 = aspace.mmap(n2)
                    buffers.append((a3, n2))
                    stats["reuse_hits"] += a3 == a2
            a2, n2 = buffers[rng.randrange(len(buffers))]
            if rnd % 2:
                stats["cow_pages"] += aspace.cow_duplicate(a2, n2)
            else:
                stats["swapped_pages"] += aspace.swap_out(a2, n2)
            if rnd % 5 == pid % 5:
                fa = fixed_base + rnd * 0x40_0000
                aspace.mmap_fixed(fa, 2 * PAGE_SIZE)
                aspace.write(fa, b"fixed")
                fixed_maps.append((fa, 2 * PAGE_SIZE))
                if len(fixed_maps) > 2:
                    fa2, fl2 = fixed_maps.pop(0)
                    aspace.munmap(fa2, fl2)
            yield env.timeout(rng.randrange(500, 3000))

        parts[pid] = {
            **stats,
            "faults": aspace.faults,
            "cow_breaks": aspace.cow_breaks,
            "swapins": aspace.swapins,
            "invalidations": aspace.notifiers.invalidations,
            "orphans": aspace.orphan_count,
            "pins": pin.pins,
            "unpins": pin.unpins,
            "pages_pinned": pin.pages_pinned,
            "pin_failures": pin.pin_failures,
            "free_frames": memory.free_frames,
            "pinned_frames": memory.pinned_frames,
            "regions_live": len(regions),
            "index_len": len(index),
            "digest": digest.hexdigest(),
        }

    for pid in range(_VM_PROCS):
        env.process(worker(pid), name=f"vmchurn.{pid}")

    def probe():
        return {"now_ns": env.now, "procs": list(parts)}

    return probe


def _openmx_shard(rounds: int):
    """The canned full-stack PDES scenario's parameters at ``rounds``."""
    from repro.sim.openmx_shard import OpenmxParams

    return OpenmxParams(rounds=rounds)


@dataclass(frozen=True)
class Scenario:
    """One bench scenario and what an A/B's reference side swaps.

    ``swaps`` is ``"Environment"`` (``build(env, rounds)`` runs on the
    reference's engine class), ``"STACK"`` (``build(env, rounds, stack=)``
    runs on the reference's class stack, which must hold every key
    ``stack()`` does) or ``"serial"`` (``build(rounds)`` returns the
    :class:`~repro.sim.openmx_shard.OpenmxParams` whose in-process serial
    run is the built-in reference for the forked shards).
    ``state_schema`` is set for the scenarios with a committed drift
    reference (``--state-json``).
    """

    build: Callable[..., Any]
    rounds: int
    quick_rounds: int
    swaps: str = "Environment"
    stack: Callable[[], dict[str, type]] | None = None
    state_schema: str | None = None

    def rounds_for(self, quick: bool) -> int:
        return self.quick_rounds if quick else self.rounds


SCENARIOS: dict[str, Scenario] = {
    "timer_churn": Scenario(_timer_churn, 6_000, 600),
    "timeout_ladder": Scenario(_timeout_ladder, 3_000, 300),
    "event_pingpong": Scenario(_event_pingpong, 120_000, 12_000),
    "condition_fanout": Scenario(_condition_fanout, 30_000, 3_000),
    "wheel_storm": Scenario(_wheel_storm, 1_500, 150),
    "datapath_pull": Scenario(_datapath_pull, 150, 15, "STACK",
                              _datapath_stack, "repro.bench.datapath-sim/v1"),
    "vm_churn": Scenario(_vm_churn, 150, 8, "STACK", _vm_stack,
                         "repro.bench.vm-sim/v1"),
    "openmx_shard": Scenario(_openmx_shard, 30, 6, "serial",
                             state_schema="repro.openmx-shard.sim/v1"),
}


# -- harness ------------------------------------------------------------------


# Engine counters sampled per scenario.  They are read off the
# Environment *instance* that ran the timed round — each round builds a
# fresh env, so the counts are per-scenario by construction.  getattr
# defaults keep the harness compatible with the frozen seed engine, which
# has neither the free-list nor the wheel.
_ENGINE_COUNTERS = ("timeouts_recycled", "timeouts_reused",
                    "wheel_ticks", "wheel_cascades", "wheel_promotions")


class _Run(NamedTuple):
    """One timed round of one side of an A/B."""

    wall_s: float
    events: int
    state: Any  # simulated end state; None for the engine scenarios
    stats: dict[str, Any]  # engine counters, or the PDES coordinator's


def _run_env(sc: Scenario, rounds: int, swapped: Any = None) -> _Run:
    """One timed round on one engine; ``swapped`` is the reference's
    ``Environment`` class or ``STACK`` (None: the current tree)."""
    if sc.swaps == "Environment":
        env = (swapped or Environment)()
        probe = sc.build(env, rounds)
    else:
        env = Environment()
        probe = sc.build(env, rounds, stack=swapped)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    counters = {name: getattr(env, name, 0) for name in _ENGINE_COUNTERS}
    return _Run(wall, env.events_processed, probe() if probe else None,
                counters)


def _run_openmx(params: Any, shards: int, mode: str,
                strategy: str = "block") -> _Run:
    from repro.sim.openmx_shard import run_openmx

    out = run_openmx(params, shards, mode=mode, strategy=strategy)
    return _Run(out["stats"]["wall_s"], out["state"]["events"], out["state"],
                out["stats"])


def _state_diff(ref: Any, cur: Any, path: str = "") -> list[str]:
    """Every leaf where two simulated end states differ, by path."""
    if isinstance(ref, dict) and isinstance(cur, dict):
        return [line for key in sorted(ref.keys() | cur.keys(), key=str)
                for line in _state_diff(ref.get(key), cur.get(key),
                                        f"{path}.{key}" if path else key)]
    if isinstance(ref, list) and isinstance(cur, list) \
            and len(ref) == len(cur):
        return [line for i, (r, c) in enumerate(zip(ref, cur))
                for line in _state_diff(r, c, f"{path}[{i}]")]
    return [] if ref == cur else [f"{path}: ref={ref!r} cur={cur!r}"]


def _gate(label: str, ref: _Run, cur: _Run) -> None:
    """Abort unless both sides simulated the same world: equal event
    counts on the engine scenarios, else an equal end state (those sides
    dispatch different event counts by design)."""
    if ref.state is None:
        if ref.events != cur.events:
            raise SystemExit(
                f"{label}: engines disagree on event count "
                f"({ref.events} vs {cur.events}) — not comparable")
        return
    diffs = _state_diff(ref.state, cur.state)
    if diffs:
        raise SystemExit(
            f"{label}: reference and current disagree on simulated end "
            "state — not comparable:\n  " + "\n  ".join(diffs))


def _interleave(label: str, sides: list[Callable[[], _Run]],
                repeat: int) -> list[_Run]:
    """Best-of-``repeat`` per side; within each repetition the sides run
    back to back (reference first) and must pass :func:`_gate`."""
    best: list[_Run | None] = [None] * len(sides)
    for _ in range(repeat):
        runs = [side() for side in sides]
        if len(runs) == 2:
            _gate(label, *runs)
        best = [run if b is None or run.wall_s < b.wall_s else b
                for b, run in zip(best, runs)]
    return best


def _rate(events: int, wall: float) -> int:
    return round(events / wall) if wall else 0


def _openmx_extras(params: Any, shards: int, serial: _Run,
                   sharded: _Run) -> dict[str, Any]:
    """The partition comparison — one sharded run per strategy, each
    gated against the serial end state — and the PDES coordinator stats."""
    from repro.sim.pdes import host_core_count

    strategies = {}
    for strategy in ("block", "stripe", "affinity"):
        run = _run_openmx(params, shards, "fork", strategy)
        _gate(f"openmx_shard ({strategy} partition)", serial, run)
        strategies[strategy] = run.stats["cross_shard_frames"]
    stats = sharded.stats
    host_cores = host_core_count()
    return {
        "nhosts": params.nhosts,
        "shards": stats["shards"],
        "host_cores": host_cores,
        "core_starved": host_cores < stats["shards"],
        "windows": stats["windows"],
        "cross_shard_frames": stats["cross_shard_frames"],
        "barrier_idle_s": round(stats["barrier_idle_s"], 6),
        "critical_path_s": round(stats["critical_path_s"], 6),
        "critical_path_speedup": round(
            serial.wall_s / stats["critical_path_s"], 3)
        if stats["critical_path_s"] else 0.0,
        "strategies": strategies,
        "affinity_cut_vs_block":
            round(1 - strategies["affinity"] / (strategies["block"] or 1), 3),
        "affinity_cut_vs_stripe":
            round(1 - strategies["affinity"] / (strategies["stripe"] or 1), 3),
        "digest": sharded.state["digest"],
    }


def _measure(name: str, ref: Any, quick: bool, repeat: int,
             shards: int) -> dict[str, Any]:
    """One scenario's report row: time it (interleaved against its
    reference when it has one) and gate every repetition."""
    sc = SCENARIOS[name]
    rounds = sc.rounds_for(quick)
    if sc.swaps == "serial":
        params = sc.build(rounds)
        sides = [partial(_run_openmx, params, 1, "inline"),
                 partial(_run_openmx, params, shards, "fork")]
    else:
        sides = [partial(_run_env, sc, rounds)]
        if ref is not None:
            sides.insert(0, partial(_run_env, sc, rounds,
                                    getattr(ref, sc.swaps)))
    *base, cur = _interleave(name, sides, repeat)
    row = {"rounds": rounds, "events": cur.events,
           "wall_s": round(cur.wall_s, 6),
           "events_per_sec": _rate(cur.events, cur.wall_s)}
    if base:
        b = base[0]
        row.update(
            baseline_events=b.events,
            baseline_wall_s=round(b.wall_s, 6),
            baseline_events_per_sec=_rate(b.events, b.wall_s),
            event_reduction=round(1 - cur.events / b.events, 3)
            if b.events else 0.0,
            speedup=round(b.wall_s / cur.wall_s, 3) if cur.wall_s else 0.0)
    if sc.swaps == "serial":
        row.update(_openmx_extras(params, shards, base[0], cur))
    else:
        row.update(cur.stats)
        if cur.state is not None:
            row["sim_state"] = cur.state
    return row


def _load_reference(path: str) -> Any:
    """Import a frozen reference module from a file."""
    spec = importlib.util.spec_from_file_location("repro_bench_reference",
                                                  path)
    if spec is None or spec.loader is None:
        raise ValueError(f"--ab {path}: not a Python module")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except OSError as exc:
        raise ValueError(f"--ab {path}: {exc}") from None
    return module


def _misfit(name: str, ref: Any, path: str) -> str | None:
    """Why the ``--ab`` reference cannot swap into scenario ``name``."""
    sc = SCENARIOS[name]
    if sc.swaps == "serial":
        return (f"{name}: its reference (the in-process serial run) is built "
                "in; name it without --ab")
    exports = [attr for attr in ("Environment", "STACK") if hasattr(ref, attr)]
    if sc.swaps not in exports:
        return (f"{name}: swaps {sc.swaps}, but {path} exports "
                f"{' and '.join(exports) or 'neither Environment nor STACK'}")
    if sc.swaps == "STACK":
        missing = sorted(set(sc.stack()) - set(ref.STACK))
        if missing:
            return (f"{name}: builds on STACK {sorted(sc.stack())}, but "
                    f"{path}'s STACK lacks {missing}")
    return None


def _select(names: list[str], ref_path: str | None) -> tuple[list[str], Any]:
    """Resolve which scenarios run and load the ``--ab`` reference,
    raising ValueError on any mismatch before anything runs."""
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; choose from "
                         f"{list(SCENARIOS)}")
    if ref_path is None:
        return (list(names) or [n for n, sc in SCENARIOS.items()
                                if sc.swaps != "serial"]), None
    ref = _load_reference(ref_path)
    if names:
        misfits = [why for n in names if (why := _misfit(n, ref, ref_path))]
        if misfits:
            raise ValueError("\n".join(misfits))
        return list(names), ref
    fits = [n for n in SCENARIOS if _misfit(n, ref, ref_path) is None]
    if not fits:
        raise ValueError(f"--ab {ref_path}: no scenario fits it; it exports "
                         "neither an Environment nor a STACK any scenario "
                         "builds on")
    return fits, ref


def run_benchmarks(scenarios: list[str] | None = None, *, quick: bool = False,
                   repeat: int = 3, ref: str | None = None,
                   shards: int = 4) -> dict[str, Any]:
    """Time ``scenarios`` (default: every single-engine scenario, or with
    ``ref`` every scenario the reference fits) into one report."""
    names, module = _select(list(scenarios or []), ref)
    return _report(names, module, ref, quick=quick, repeat=repeat,
                   shards=shards)


def _report(names: list[str], module: Any, ref: str | None, *, quick: bool,
            repeat: int, shards: int) -> dict[str, Any]:
    rows = {name: _measure(name, module, quick, repeat, shards)
            for name in names}
    events = sum(r["events"] for r in rows.values())
    wall = sum(r["wall_s"] for r in rows.values())
    total: dict[str, Any] = {"events": events, "wall_s": round(wall, 6),
                             "events_per_sec": _rate(events, wall)}
    if all("baseline_wall_s" in r for r in rows.values()):
        base_events = sum(r["baseline_events"] for r in rows.values())
        base_wall = sum(r["baseline_wall_s"] for r in rows.values())
        total.update(baseline_events=base_events,
                     baseline_wall_s=round(base_wall, 6),
                     baseline_events_per_sec=_rate(base_events, base_wall),
                     speedup=round(base_wall / wall, 3) if wall else 0.0)
    report = {"schema": "repro.bench/v2", "quick": quick, "repeat": repeat,
              "scenarios": rows, "total": total}
    if ref is not None:
        report["ab_reference"] = ref
    return report


def sim_state(name: str, quick: bool = False, shards: int = 1
              ) -> dict[str, Any]:
    """Scenario ``name``'s exact simulated end state (no wall-clock
    noise), which the drift gates diff with zero tolerance."""
    sc = SCENARIOS[name]
    if sc.swaps == "serial":
        from repro.sim.openmx_shard import openmx_sim_state

        return openmx_sim_state(quick=quick, shards=shards)
    rounds = sc.rounds_for(quick)
    return {"schema": sc.state_schema, "quick": quick, "rounds": rounds,
            "state": _run_env(sc, rounds).state}


def _format_openmx(row: dict[str, Any]) -> list[str]:
    lines = [
        f"openmx_shard: {row['nhosts']} hosts, serial "
        f"{row['baseline_wall_s']:.4f} s vs {row['shards']} forked shards "
        f"{row['wall_s']:.4f} s ({row['windows']} windows, "
        f"{row['cross_shard_frames']} cross-shard frames, "
        f"{row['host_cores']} host cores)",
        f"  wall speedup {row['speedup']:.2f}x; critical path "
        f"{row['critical_path_s']:.4f} s "
        f"({row['critical_path_speedup']:.2f}x attainable with "
        f">= {row['shards']} free cores)",
    ]
    if row["core_starved"]:
        lines.append(
            f"  CORE-STARVED: {row['host_cores']} cores < "
            f"{row['shards']} shards — wall speedup is meaningless "
            "here; critical path is the honest number "
            "(try --shards auto)")
    strat = row["strategies"]
    lines += [
        "  partition strategies (cross-shard frames, identical digests): "
        + ", ".join(f"{k}={v}" for k, v in strat.items()),
        f"  affinity cut: {row['affinity_cut_vs_block']:.1%} vs block, "
        f"{row['affinity_cut_vs_stripe']:.1%} vs stripe",
        f"  end-state digest {row['digest']}  "
        "[identical serial and all sharded runs]",
    ]
    return lines


def format_report(report: dict[str, Any]) -> str:
    lines = [f"{'scenario':18s} {'events':>10s} {'wall s':>9s} "
             f"{'events/sec':>12s} {'recycled':>9s} {'ticks':>9s} "
             f"{'speedup':>8s}"]
    rows = list(report["scenarios"].items()) + [("TOTAL", report["total"])]
    for name, r in rows:
        speedup = r.get("speedup")
        lines.append(
            f"{name:18s} {r['events']:>10,} {r['wall_s']:>9.4f} "
            f"{r['events_per_sec']:>12,} "
            f"{str(r.get('timeouts_recycled', '')):>9s} "
            f"{str(r.get('wheel_ticks', '')):>9s} "
            f"{f'{speedup:.2f}x' if speedup else '-':>8s}"
        )
    for name, r in report["scenarios"].items():
        if "strategies" in r:
            lines += _format_openmx(r)
        elif r.get("baseline_events", r["events"]) != r["events"]:
            lines.append(
                f"{name}: {r['baseline_events']:,} reference events -> "
                f"{r['events']:,} ({r['event_reduction']:.1%} fewer), "
                "simulated end state identical")
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_json(path: str, data: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parser() -> argparse.ArgumentParser:
    from repro.sim.pdes import resolve_shards

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.bench",
        description="Microbenchmark the simulator's hot paths, optionally "
                    "interleaved against a frozen reference.",
        allow_abbrev=False,
    )
    parser.add_argument("scenario", nargs="*", metavar="SCENARIO",
                        help=f"from: {', '.join(SCENARIOS)} (default: every "
                             "single-engine scenario, or every one --ab fits)")
    parser.add_argument("--quick", action="store_true",
                        help="small rounds for CI smoke runs")
    parser.add_argument("--repeat", type=_positive_int, default=3,
                        metavar="N",
                        help="timed repetitions per side, best-of "
                             "(default 3)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here")
    parser.add_argument("--ab", metavar="REF",
                        help="interleaved A/B against the Environment or "
                             "STACK a frozen reference module exports "
                             "(e.g. benchmarks/engine_seed_reference.py)")
    parser.add_argument("--shards", type=resolve_shards, default="4",
                        metavar="N",
                        help="PDES shard count for openmx_shard; 'auto' "
                             "caps the default at the host's usable cores "
                             "(default 4)")
    parser.add_argument("--state-json", metavar="PATH",
                        help="write one scenario's exact simulated end "
                             "state here (no timing) for a drift gate")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_intermixed_args(argv)
    if args.state_json is not None:
        with_state = [n for n, sc in SCENARIOS.items() if sc.state_schema]
        if len(args.scenario) != 1:
            parser.error(f"--state-json needs exactly one scenario, got "
                         f"{len(args.scenario)}; choose from {with_state}")
        name = args.scenario[0]
        if name not in with_state:
            parser.error(f"--state-json: {name} has no state schema; choose "
                         f"from {with_state}")
        if args.ab is not None or args.json is not None:
            parser.error("--state-json writes the end state only; drop --ab "
                         "and --json")
        _write_json(args.state_json,
                    sim_state(name, quick=args.quick, shards=args.shards))
        print(f"({name} sim state saved to {args.state_json})")
        return 0
    try:
        names, module = _select(args.scenario, args.ab)
    except ValueError as exc:
        parser.error(str(exc))
    report = _report(names, module, args.ab, quick=args.quick,
                     repeat=args.repeat, shards=args.shards)
    print(format_report(report))
    if args.json:
        _write_json(args.json, report)
        print(f"(report saved to {args.json})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
