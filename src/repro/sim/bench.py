"""Engine microbenchmark — ``python -m repro.sim.bench``.

Measures raw dispatch throughput (events/sec) of the discrete-event kernel
on four synthetic workloads that mirror how the protocol layers actually
drive it:

* ``timer_churn`` — the retransmit idiom: an ack racing a long timer that
  almost always loses (PR 2's backoff timers create these in volume).
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

Every scenario is deterministic, so one timed round gives an exact event
count; wall time is the only noise, which ``--repeat`` (best-of) tames.

Usage::

    python -m repro.sim.bench                 # full scale, 3 repeats
    python -m repro.sim.bench --quick         # CI smoke (~1 s)
    python -m repro.sim.bench --json BENCH_engine.json
    python -m repro.sim.bench --baseline old.json   # annotate speedups
    python -m repro.sim.bench --ab benchmarks/engine_seed_reference.py

``--ab`` runs each timed repetition against *both* the current engine and a
frozen reference engine loaded from the given file, strictly interleaved
(ref, current, ref, current, ...) within the same process.  On a noisy or
single-core host this cancels load drift that back-to-back whole-suite runs
cannot, so the reported speedup is an honest like-for-like ratio.

``--ab-datapath`` does the same for the *data path* instead of the engine:
the ``datapath_pull`` scenario is built once on a frozen pre-coalescing
Nic/Fabric/SoftirqEngine stack (``benchmarks/datapath_seed_reference.py``)
and once on the current one, interleaved, on the same current engine.  The
two stacks intentionally differ in heap-event count — that is the whole
optimization — so instead of comparing event totals the harness compares
the complete simulated end state (final clock, every frame/byte/drop/BH
counter) and aborts on any difference.  ``--sim-json`` writes that end
state for the CI drift gate (``benchmarks/datapath_sim_quick.json``).

``--ab-vm`` applies the same discipline to the *VM layer*: the ``vm_churn``
scenario (many processes mmap/write/declare/pin/probe/munmap/COW/swap in a
loop) is built once on a frozen pre-index AddressSpace/UserRegion/
PinService/linear-region-index stack (``benchmarks/vm_seed_reference.py``)
and once on the current bisect-indexed one.  Equivalence is again the
complete simulated end state — final clock plus per-process fault/pin/
notifier counters and data digests.  ``--vm-sim-json`` writes that end
state for the CI drift gate (``benchmarks/vm_sim_quick.json``).

``openmx_shard`` (:mod:`repro.sim.openmx_shard`) is the conservative-PDES
scenario (:mod:`repro.sim.pdes`): 16 hosts, each with a complete
kernel/MMU-notifier/pin-service/driver/NIC stack, exchanging mixed
eager/rendezvous traffic under pin pressure, partitioned across
``--shards`` worker processes advancing in lookahead-bounded windows.
``--ab-openmx`` interleaves serial (``shards=1``, in-process) against
sharded (forked) runs with a hard end-state equality gate, plus a
block/stripe/affinity partition comparison; ``--openmx-sim-json`` writes
the scenario's exact end state at the chosen shard count, which CI diffs
across ``--shards {1,2,4}`` — byte-identical or the gate fails.  ``--shards
auto`` caps the default shard count at the host's usable cores (the wall
speedup is meaningless when shards > cores; reports flag that as
``core_starved``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from typing import Any, Callable

from repro.sim.engine import Environment

__all__ = ["SCENARIOS", "datapath_sim_state", "run_ab", "run_benchmarks",
           "run_datapath_ab", "run_openmx_shard",
           "run_scenario", "run_vm_ab",
           "vm_sim_state"]


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


def _datapath_pull(env: Environment, rounds: int, stack=None):
    """Two senders burst 4 KiB frames at one receiver's bottom half.

    ``stack`` picks the Nic/Fabric/SoftirqEngine classes to build on
    (default: the current tree); the frozen pre-coalescing stack lives in
    ``benchmarks/datapath_seed_reference.py``.  Returns a probe reading the
    complete simulated end state, with the constructed parts hung off it
    (``probe.fabric`` and friends) for tests.
    """
    from repro.cluster.network import Fabric
    from repro.hw.cpu import CpuCore
    from repro.hw.nic import EthernetFrame, Nic
    from repro.hw.specs import MYRI_10G, XEON_E5460
    from repro.kernel.interrupts import SoftirqEngine

    s = stack or {"EthernetFrame": EthernetFrame, "Nic": Nic,
                  "Fabric": Fabric, "SoftirqEngine": SoftirqEngine}
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
    from repro.kernel.address_space import AddressSpace, page_count
    from repro.kernel.mmu_notifier import CallbackNotifier, IntervalIndex
    from repro.kernel.pinning import PinService
    from repro.obs.metrics import MetricRegistry
    from repro.openmx.regions import Segment, UserRegion

    s = stack or {"AddressSpace": AddressSpace, "UserRegion": UserRegion,
                  "PinService": PinService, "RegionIndex": IntervalIndex}
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


# name -> (builder, rounds at full scale, rounds at --quick scale)
SCENARIOS: dict[str, tuple[Callable[..., None], int, int]] = {
    "timer_churn": (_timer_churn, 6_000, 600),
    "timeout_ladder": (_timeout_ladder, 3_000, 300),
    "event_pingpong": (_event_pingpong, 120_000, 12_000),
    "condition_fanout": (_condition_fanout, 30_000, 3_000),
    "wheel_storm": (_wheel_storm, 1_500, 150),
    "datapath_pull": (_datapath_pull, 150, 15),
    "vm_churn": (_vm_churn, 150, 8),
}


# -- harness ------------------------------------------------------------------


# Engine counters sampled per scenario.  They are read off the
# Environment *instance* that ran the timed round — each round builds a
# fresh env, so the counts are per-scenario by construction (an earlier
# revision threaded two of them positionally through the harness and
# reported zeros for every scenario that wasn't timer_churn).  getattr
# defaults keep the harness compatible with the frozen seed engine, which
# has neither the free-list nor the wheel.
_ENGINE_COUNTERS = ("timeouts_recycled", "timeouts_reused",
                    "wheel_ticks", "wheel_cascades", "wheel_promotions")


def _engine_counters(env: Any) -> dict[str, int]:
    """Snapshot the engine's own counters after a timed round."""
    return {name: getattr(env, name, 0) for name in _ENGINE_COUNTERS}


def _time_once(env_cls: type, name: str,
               rounds: int) -> tuple[float, int, dict[str, int]]:
    """One timed round: returns (wall_s, events, engine counters)."""
    builder = SCENARIOS[name][0]
    env = env_cls()
    builder(env, rounds)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return wall, env.events_processed, _engine_counters(env)


def run_scenario(name: str, quick: bool = False, repeat: int = 3,
                 env_cls: type = Environment) -> dict[str, Any]:
    """Run one scenario ``repeat`` times; report the best wall time."""
    rounds = SCENARIOS[name][2 if quick else 1]
    best_wall = float("inf")
    events = 0
    counters: dict[str, int] = {}
    for _ in range(repeat):
        wall, events, counters = _time_once(env_cls, name, rounds)
        best_wall = min(best_wall, wall)
    return {
        "rounds": rounds,
        "events": events,
        "wall_s": round(best_wall, 6),
        "events_per_sec": round(events / best_wall) if best_wall else 0,
        **counters,
    }


def run_benchmarks(quick: bool = False, repeat: int = 3,
                   scenarios: list[str] | None = None) -> dict[str, Any]:
    results: dict[str, Any] = {}
    for name in scenarios or list(SCENARIOS):
        results[name] = run_scenario(name, quick=quick, repeat=repeat)
    total_events = sum(r["events"] for r in results.values())
    total_wall = sum(r["wall_s"] for r in results.values())
    return {
        "schema": "repro.bench.engine/v1",
        "quick": quick,
        "repeat": repeat,
        "scenarios": results,
        "total": {
            "events": total_events,
            "wall_s": round(total_wall, 6),
            "events_per_sec": round(total_events / total_wall) if total_wall else 0,
        },
    }


def _load_engine(path: str) -> type:
    """Load an Environment class from a standalone engine module file."""
    spec = importlib.util.spec_from_file_location("repro_sim_engine_ref", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load reference engine from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Environment


def run_ab(ref_path: str, quick: bool = False, repeat: int = 5,
           scenarios: list[str] | None = None) -> dict[str, Any]:
    """Interleaved A/B: reference vs current engine, rep by rep.

    Each repetition times the reference engine and then the current engine
    on the same scenario before moving on, so slow drift in host load hits
    both sides equally.  Best-of-``repeat`` per side, per scenario.
    """
    ref_cls = _load_engine(ref_path)
    # datapath_pull and vm_churn build on the hw/kernel layers, whose
    # Resource/Store types belong to the live repro.sim — a foreign engine
    # class cannot host them.  Each has its own A/B harness
    # (run_datapath_ab / run_vm_ab) that swaps the layer stack instead of
    # the engine.
    names = scenarios or [
        n for n in SCENARIOS if n not in ("datapath_pull", "vm_churn")
    ]
    best: dict[str, dict[str, Any]] = {
        n: {"ref_wall": float("inf"), "cur_wall": float("inf")} for n in names
    }
    for _ in range(repeat):
        for name in names:
            rounds = SCENARIOS[name][2 if quick else 1]
            b = best[name]
            wall, b["ref_events"], _ = _time_once(ref_cls, name, rounds)
            b["ref_wall"] = min(b["ref_wall"], wall)
            wall, b["cur_events"], b["counters"] = _time_once(
                Environment, name, rounds)
            b["cur_wall"] = min(b["cur_wall"], wall)
            b["rounds"] = rounds
    results: dict[str, Any] = {}
    tot_ref_w = tot_cur_w = 0.0
    tot_ref_e = tot_cur_e = 0
    for name in names:
        b = best[name]
        if b["ref_events"] != b["cur_events"]:
            raise SystemExit(
                f"{name}: engines disagree on event count "
                f"({b['ref_events']} vs {b['cur_events']}) — not comparable"
            )
        ref_eps = round(b["ref_events"] / b["ref_wall"])
        cur_eps = round(b["cur_events"] / b["cur_wall"])
        results[name] = {
            "rounds": b["rounds"],
            "events": b["cur_events"],
            "wall_s": round(b["cur_wall"], 6),
            "events_per_sec": cur_eps,
            "baseline_wall_s": round(b["ref_wall"], 6),
            "baseline_events_per_sec": ref_eps,
            "speedup": round(cur_eps / ref_eps, 3),
            **b["counters"],
        }
        tot_ref_w += b["ref_wall"]
        tot_cur_w += b["cur_wall"]
        tot_ref_e += b["ref_events"]
        tot_cur_e += b["cur_events"]
    ref_total_eps = round(tot_ref_e / tot_ref_w) if tot_ref_w else 0
    cur_total_eps = round(tot_cur_e / tot_cur_w) if tot_cur_w else 0
    return {
        "schema": "repro.bench.engine/v1",
        "quick": quick,
        "repeat": repeat,
        "ab_reference": ref_path,
        "scenarios": results,
        "total": {
            "events": tot_cur_e,
            "wall_s": round(tot_cur_w, 6),
            "events_per_sec": cur_total_eps,
            "baseline_wall_s": round(tot_ref_w, 6),
            "baseline_events_per_sec": ref_total_eps,
            "speedup": round(cur_total_eps / ref_total_eps, 3)
            if ref_total_eps else 0.0,
        },
    }


def _load_stack(path: str) -> dict[str, type]:
    """Load a class stack (``STACK``) from a frozen reference module."""
    spec = importlib.util.spec_from_file_location("repro_stack_ref", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load reference stack from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STACK


def _time_datapath(rounds: int, stack=None) -> tuple[float, int, dict[str, Any]]:
    """One timed datapath run: (wall_s, engine events, simulated end state)."""
    env = Environment()
    probe = _datapath_pull(env, rounds, stack=stack)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return wall, env.events_processed, probe()


def datapath_sim_state(quick: bool = False) -> dict[str, Any]:
    """The ``datapath_pull`` scenario's deterministic simulated end state.

    Every field is an exact simulation output (no wall-clock noise), so CI
    can diff it against a committed reference with zero tolerance — any
    change means the coalescing stopped being byte-identical.
    """
    rounds = SCENARIOS["datapath_pull"][2 if quick else 1]
    _, _, state = _time_datapath(rounds)
    return {
        "schema": "repro.bench.datapath-sim/v1",
        "quick": quick,
        "rounds": rounds,
        "state": state,
    }


def run_datapath_ab(ref_path: str, quick: bool = False,
                    repeat: int = 5) -> dict[str, Any]:
    """Interleaved A/B of the datapath stacks: frozen seed vs current.

    Both stacks run the ``datapath_pull`` scenario on the *current* engine,
    rep by rep (ref, current, ref, current, ...).  The two sides execute
    different numbers of heap events — that is the optimization — so the
    equivalence check compares the full simulated end state instead:
    identical final clock and identical frame/byte/drop/BH counters, or
    the run aborts.
    """
    stack = _load_stack(ref_path)
    rounds = SCENARIOS["datapath_pull"][2 if quick else 1]
    ref_wall = cur_wall = float("inf")
    ref_events = cur_events = 0
    ref_state: dict[str, Any] = {}
    cur_state: dict[str, Any] = {}
    for _ in range(repeat):
        wall, ref_events, ref_state = _time_datapath(rounds, stack=stack)
        ref_wall = min(ref_wall, wall)
        wall, cur_events, cur_state = _time_datapath(rounds)
        cur_wall = min(cur_wall, wall)
    if ref_state != cur_state:
        diffs = [
            f"{key}: ref={ref_state.get(key)!r} cur={cur_state.get(key)!r}"
            for key in sorted(ref_state.keys() | cur_state.keys())
            if ref_state.get(key) != cur_state.get(key)
        ]
        raise SystemExit(
            "datapath stacks disagree on simulated end state — not comparable:\n  "
            + "\n  ".join(diffs)
        )
    return {
        "schema": "repro.bench.datapath/v1",
        "quick": quick,
        "repeat": repeat,
        "ab_reference": ref_path,
        "rounds": rounds,
        "sim_state": cur_state,
        "events": cur_events,
        "baseline_events": ref_events,
        "event_reduction": round(1 - cur_events / ref_events, 3)
        if ref_events else 0.0,
        "wall_s": round(cur_wall, 6),
        "baseline_wall_s": round(ref_wall, 6),
        "speedup": round(ref_wall / cur_wall, 3) if cur_wall else 0.0,
    }


def format_datapath_report(report: dict[str, Any]) -> str:
    state = report["sim_state"]
    return "\n".join([
        f"datapath_pull ({report['rounds']} rounds, "
        f"best of {report['repeat']}):",
        f"  seed stack    {report['baseline_events']:>10,} events "
        f"{report['baseline_wall_s']:>9.4f} s",
        f"  current stack {report['events']:>10,} events "
        f"{report['wall_s']:>9.4f} s",
        f"  event reduction {report['event_reduction']:.1%}, "
        f"speedup {report['speedup']:.2f}x",
        f"  end state: t={state['now_ns']:,} ns, "
        f"{state['handled_frames']} frames handled, "
        f"{state['bh_runs']} BH runs, "
        f"{state['ksoftirqd_rounds']} ksoftirqd rounds, "
        f"{state['rx_ring_drops']} ring drops  [identical on both stacks]",
    ])


def _time_vm(rounds: int, stack=None) -> tuple[float, int, dict[str, Any]]:
    """One timed vm_churn run: (wall_s, engine events, simulated end state)."""
    env = Environment()
    probe = _vm_churn(env, rounds, stack=stack)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return wall, env.events_processed, probe()


def vm_sim_state(quick: bool = False) -> dict[str, Any]:
    """The ``vm_churn`` scenario's deterministic simulated end state.

    Exact simulation outputs only (final clock, per-process VM/pin/notifier
    counters, data digests) — CI diffs it against a committed reference
    with zero tolerance; any change means a VM-layer index stopped being
    behaviour-identical.
    """
    rounds = SCENARIOS["vm_churn"][2 if quick else 1]
    _, _, state = _time_vm(rounds)
    return {
        "schema": "repro.bench.vm-sim/v1",
        "quick": quick,
        "rounds": rounds,
        "state": state,
    }


def run_vm_ab(ref_path: str, quick: bool = False,
              repeat: int = 5) -> dict[str, Any]:
    """Interleaved A/B of the VM-layer stacks: frozen seed vs current.

    Both stacks run the ``vm_churn`` scenario on the *current* engine, rep
    by rep (ref, current, ref, current, ...).  The indexed stack executes
    fewer engine events (fused pin charges) — so the equivalence check
    compares the full simulated end state instead: identical final clock
    and identical per-process counters/digests, or the run aborts.
    """
    stack = _load_stack(ref_path)
    rounds = SCENARIOS["vm_churn"][2 if quick else 1]
    ref_wall = cur_wall = float("inf")
    ref_events = cur_events = 0
    ref_state: dict[str, Any] = {}
    cur_state: dict[str, Any] = {}
    for _ in range(repeat):
        wall, ref_events, ref_state = _time_vm(rounds, stack=stack)
        ref_wall = min(ref_wall, wall)
        wall, cur_events, cur_state = _time_vm(rounds)
        cur_wall = min(cur_wall, wall)
    if ref_state != cur_state:
        diffs = [f"now_ns: ref={ref_state.get('now_ns')!r} "
                 f"cur={cur_state.get('now_ns')!r}"] \
            if ref_state.get("now_ns") != cur_state.get("now_ns") else []
        for pid, (rp, cp) in enumerate(zip(ref_state.get("procs", []),
                                           cur_state.get("procs", []))):
            rp, cp = rp or {}, cp or {}
            diffs += [
                f"proc{pid}.{key}: ref={rp.get(key)!r} cur={cp.get(key)!r}"
                for key in sorted(rp.keys() | cp.keys())
                if rp.get(key) != cp.get(key)
            ]
        raise SystemExit(
            "VM stacks disagree on simulated end state — not comparable:\n  "
            + "\n  ".join(diffs)
        )
    return {
        "schema": "repro.bench.vm/v1",
        "quick": quick,
        "repeat": repeat,
        "ab_reference": ref_path,
        "rounds": rounds,
        "sim_state": cur_state,
        "events": cur_events,
        "baseline_events": ref_events,
        "event_reduction": round(1 - cur_events / ref_events, 3)
        if ref_events else 0.0,
        "wall_s": round(cur_wall, 6),
        "baseline_wall_s": round(ref_wall, 6),
        "speedup": round(ref_wall / cur_wall, 3) if cur_wall else 0.0,
    }


def format_vm_report(report: dict[str, Any]) -> str:
    state = report["sim_state"]
    procs = [p for p in state["procs"] if p]
    return "\n".join([
        f"vm_churn ({report['rounds']} rounds x {len(state['procs'])} procs, "
        f"best of {report['repeat']}):",
        f"  seed stack    {report['baseline_events']:>10,} events "
        f"{report['baseline_wall_s']:>9.4f} s",
        f"  current stack {report['events']:>10,} events "
        f"{report['wall_s']:>9.4f} s",
        f"  event reduction {report['event_reduction']:.1%}, "
        f"speedup {report['speedup']:.2f}x",
        f"  end state: t={state['now_ns']:,} ns, "
        f"{sum(p['faults'] for p in procs)} faults, "
        f"{sum(p['pins'] for p in procs)} pins, "
        f"{sum(p['invalidations'] for p in procs)} invalidations, "
        f"{sum(p['notifier_unpins'] for p in procs)} notifier unpins"
        "  [identical on both stacks]",
    ])


def run_openmx_shard(quick: bool = False, shards: int = 4, repeat: int = 3,
                     strategy: str = "block") -> dict[str, Any]:
    """Run the full-stack ``openmx_shard`` scenario at one shard count."""
    from repro.sim.openmx_shard import openmx_params, run_openmx

    params = openmx_params(quick=quick)
    best = None
    for _ in range(repeat):
        out = run_openmx(params, shards, strategy=strategy)
        if best is None or out["stats"]["wall_s"] < best["stats"]["wall_s"]:
            best = out
    stats = best["stats"]
    return {
        "schema": "repro.bench.openmx-shard-run/v1",
        "quick": quick,
        "repeat": repeat,
        "nhosts": params.nhosts,
        "shards": stats["shards"],
        "mode": stats["mode"],
        "strategy": stats["strategy"],
        "windows": stats["windows"],
        "advance_ns": stats["advance_ns"],
        "cross_shard_frames": stats["cross_shard_frames"],
        "wall_s": round(stats["wall_s"], 6),
        "critical_path_s": round(stats["critical_path_s"], 6),
        "barrier_idle_s": round(stats["barrier_idle_s"], 6),
        "events": best["state"]["events"],
        "digest": best["state"]["digest"],
    }


def format_openmx_shard_report(report: dict[str, Any]) -> str:
    return "\n".join([
        f"openmx_shard ({report['nhosts']} hosts, {report['shards']} "
        f"shard(s), {report['mode']}, {report['strategy']} partition, "
        f"best of {report['repeat']}):",
        f"  {report['events']:,} events in {report['wall_s']:.4f} s "
        f"across {report['windows']} windows "
        f"({report['advance_ns']:,} ns simulated)",
        f"  {report['cross_shard_frames']} cross-shard frames, "
        f"critical path {report['critical_path_s']:.4f} s, "
        f"barrier idle {report['barrier_idle_s']:.4f} s",
        f"  end-state digest {report['digest']}",
    ])


def format_openmx_ab_report(report: dict[str, Any]) -> str:
    strat = report["strategies"]
    lines = [
        f"openmx_shard A/B (full Open-MX stack, {report['nhosts']} hosts; "
        f"serial vs {report['shards']} forked shards, best of "
        f"{report['repeat']}, {report['host_cores']} host cores):",
        f"  serial  {report['events']:>10,} events "
        f"{report['serial_wall_s']:>9.4f} s",
        f"  sharded {report['events']:>10,} events "
        f"{report['sharded_wall_s']:>9.4f} s "
        f"({report['windows']} windows, "
        f"{report['cross_shard_frames']} cross-shard frames)",
        f"  wall speedup {report['speedup']:.2f}x; critical path "
        f"{report['critical_path_s']:.4f} s "
        f"({report['critical_path_speedup']:.2f}x attainable with "
        f">= {report['shards']} free cores)",
    ]
    if report.get("core_starved"):
        lines.append(
            f"  CORE-STARVED: {report['host_cores']} cores < "
            f"{report['shards']} shards — wall speedup is meaningless "
            "here; critical path is the honest number "
            "(try --shards auto)")
    lines.extend([
        "  partition strategies (cross-shard frames, identical digests): "
        + ", ".join(f"{k}={v}" for k, v in strat.items()),
        f"  affinity cut: {report['affinity_cut_vs_block']:.1%} vs block, "
        f"{report['affinity_cut_vs_stripe']:.1%} vs stripe",
        f"  end-state digest {report['digest']}  "
        "[identical serial and all sharded runs]",
    ])
    return "\n".join(lines)


def annotate_speedup(report: dict[str, Any], baseline: dict[str, Any]) -> None:
    """Attach per-scenario and aggregate speedups vs a prior report."""
    base = baseline.get("scenarios", {})
    for name, r in report["scenarios"].items():
        b = base.get(name)
        if b and b.get("events_per_sec"):
            r["baseline_events_per_sec"] = b["events_per_sec"]
            r["speedup"] = round(r["events_per_sec"] / b["events_per_sec"], 3)
    b_total = baseline.get("total", {})
    if b_total.get("events_per_sec"):
        report["total"]["baseline_events_per_sec"] = b_total["events_per_sec"]
        report["total"]["speedup"] = round(
            report["total"]["events_per_sec"] / b_total["events_per_sec"], 3
        )


def format_report(report: dict[str, Any]) -> str:
    lines = [f"{'scenario':18s} {'events':>10s} {'wall s':>9s} "
             f"{'events/sec':>12s} {'recycled':>9s} {'ticks':>9s} "
             f"{'speedup':>8s}"]
    rows = list(report["scenarios"].items()) + [
        ("TOTAL", {**report["total"],
                   "timeouts_recycled": "", "wheel_ticks": ""})
    ]
    for name, r in rows:
        speedup = r.get("speedup")
        lines.append(
            f"{name:18s} {r['events']:>10,} {r['wall_s']:>9.4f} "
            f"{r['events_per_sec']:>12,} {str(r.get('timeouts_recycled', '')):>9s} "
            f"{str(r.get('wheel_ticks', '')):>9s} "
            f"{f'{speedup:.2f}x' if speedup else '-':>8s}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.bench",
        description="Microbenchmark the discrete-event engine hot path.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small rounds for CI smoke runs")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per scenario, best-of (default 3)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here")
    parser.add_argument("--baseline", metavar="PATH",
                        help="prior report to compute speedups against")
    parser.add_argument("--ab", metavar="ENGINE_PY",
                        help="interleaved A/B against a frozen engine module "
                             "(e.g. benchmarks/engine_seed_reference.py)")
    parser.add_argument("--ab-datapath", metavar="STACK_PY",
                        help="interleaved A/B of the datapath_pull scenario "
                             "against a frozen Nic/Fabric/SoftirqEngine stack "
                             "(e.g. benchmarks/datapath_seed_reference.py)")
    parser.add_argument("--ab-vm", metavar="STACK_PY",
                        help="interleaved A/B of the vm_churn scenario "
                             "against a frozen AddressSpace/UserRegion/"
                             "PinService/region-index stack "
                             "(e.g. benchmarks/vm_seed_reference.py)")
    parser.add_argument("--ab-openmx", action="store_true",
                        help="interleaved A/B of the full-stack openmx_shard "
                             "scenario: serial vs --shards forked workers "
                             "with an end-state equality gate, plus a "
                             "block/stripe/affinity partition comparison")
    parser.add_argument("--shards", default="4",
                        help="PDES shard count for openmx_shard / "
                             "--ab-openmx / --openmx-sim-json; "
                             "'auto' caps the default at the host's usable "
                             "cores (default 4)")
    parser.add_argument("--sim-json", metavar="PATH",
                        help="write the datapath_pull simulated end state "
                             "(exact, for the CI drift gate)")
    parser.add_argument("--vm-sim-json", metavar="PATH",
                        help="write the vm_churn simulated end state "
                             "(exact, for the CI drift gate)")
    parser.add_argument("--openmx-sim-json", metavar="PATH",
                        help="write the openmx_shard simulated end state at "
                             "--shards shards (exact; CI diffs it across "
                             "shard counts)")
    parser.add_argument("scenario", nargs="*",
                        choices=[[], *SCENARIOS, "openmx_shard"],
                        help="subset of scenarios (default: all engine "
                             "scenarios; openmx_shard runs at --shards "
                             "shards)")
    args = parser.parse_args(argv)
    from repro.sim.pdes import resolve_shards

    args.shards = resolve_shards(args.shards)

    if args.sim_json:
        state = datapath_sim_state(quick=args.quick)
        with open(args.sim_json, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(datapath sim state saved to {args.sim_json})")
        if not (args.ab or args.ab_datapath or args.ab_vm or args.ab_openmx
                or args.vm_sim_json or args.openmx_sim_json or args.scenario):
            return 0

    if args.vm_sim_json:
        state = vm_sim_state(quick=args.quick)
        with open(args.vm_sim_json, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(vm sim state saved to {args.vm_sim_json})")
        if not (args.ab or args.ab_datapath or args.ab_vm or args.ab_openmx
                or args.openmx_sim_json or args.scenario):
            return 0

    if args.openmx_sim_json:
        from repro.sim.openmx_shard import openmx_sim_state

        state = openmx_sim_state(quick=args.quick, shards=args.shards)
        with open(args.openmx_sim_json, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(openmx sim state at {args.shards} shard(s) saved to "
              f"{args.openmx_sim_json})")
        if not (args.ab or args.ab_datapath or args.ab_vm or args.ab_openmx
                or args.scenario):
            return 0

    if args.ab_openmx:
        from repro.sim.openmx_shard import run_openmx_ab

        report = run_openmx_ab(quick=args.quick, shards=args.shards,
                               repeat=args.repeat)
        print(format_openmx_ab_report(report))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"(report saved to {args.json})")
        return 0

    if args.ab_datapath:
        report = run_datapath_ab(args.ab_datapath, quick=args.quick,
                                 repeat=args.repeat)
        print(format_datapath_report(report))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"(report saved to {args.json})")
        return 0

    if args.ab_vm:
        report = run_vm_ab(args.ab_vm, quick=args.quick, repeat=args.repeat)
        print(format_vm_report(report))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"(report saved to {args.json})")
        return 0

    scenarios = list(args.scenario or [])
    if "openmx_shard" in scenarios:
        scenarios = [s for s in scenarios if s != "openmx_shard"]
        report = run_openmx_shard(quick=args.quick, shards=args.shards,
                                  repeat=args.repeat)
        print(format_openmx_shard_report(report))
        if not scenarios:
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"(report saved to {args.json})")
            return 0

    if args.ab:
        report = run_ab(args.ab, quick=args.quick, repeat=args.repeat,
                        scenarios=scenarios or None)
    else:
        report = run_benchmarks(quick=args.quick, repeat=args.repeat,
                                scenarios=scenarios or None)
    if args.baseline:
        with open(args.baseline) as fh:
            annotate_speedup(report, json.load(fh))
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(report saved to {args.json})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
