"""Full-stack Open-MX scenarios sharded under the conservative PDES
coordinator.

This module puts the **whole Open-MX stack** — kernel, MMU notifiers, pin
service, driver, rndv/eager protocol, softirq engine, NIC — on the
coordinator of :mod:`repro.sim.pdes`.  Each shard builds a genuine
sub-cluster (:func:`repro.cluster.builder.build_cluster` with a
``shard_plan``): only its slice of the global host set is constructed,
with global names, wired to a
:class:`~repro.cluster.network.ShardEtherFabric` that delivers
shard-local Ethernet frames itself and marshals cross-shard frames —
eager frags, rndv, pull req/reply, notify, liback, the real wire packets —
through the coordinator's barrier exchange.

Determinism.  Sharded runs are byte-identical to serial ones because:

* hosts share **no state** but the fabric — every kernel, pin service,
  address space, driver and endpoint is per-host, and the protocol has no
  global RNG (retransmit jitter is a pure keyed hash,
  ``OpenMXConfig.resend_delay_ns``) — so a host's event subsequence is
  invariant to which other hosts are co-resident in its environment;
* the only inter-host interaction point is frame delivery, and
  ``ShardEtherFabric`` batches it per ``(arrival, dst host)`` sorted by
  the canonical ``(src host, NIC tx seq, copy)`` key — the NIC's TX
  sequence is stamped by the *source host's* own pump, so the key is
  shard-independent;
* faults are pure :class:`~repro.sim.pdes.SeededFaultPlan` verdicts on
  that same key.

The per-host workload (:class:`OpenmxHost`) replays a pure-RNG schedule of
mixed eager/rendezvous sends with a bounded in-flight window, alternating
reused buffers (region-cache hits) with fresh malloc/free pairs (MMU
notifier invalidations), under a deliberately tight pin budget — the pin
pressure the paper cares about.  Receivers pre-post wildcard receives for
the exact message count the schedule implies (computable upfront because
the schedule is pure), progress until everything terminal or a deadline,
then cancel the stragglers — so faulted runs terminate deterministically
too.
"""

from __future__ import annotations

import hashlib
import random
import time as _time
from dataclasses import dataclass

from repro.cluster.builder import (
    Cluster,
    ShardPlan,
    build_cluster,
    nic_address,
    partition_hosts,
)
from repro.obs.metrics import MetricRegistry
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.sim.engine import Environment
from repro.sim.pdes import (
    SeededFaultPlan,
    _mix,
    run_partitioned,
)
from repro.util.units import MIB

__all__ = [
    "OpenmxHost",
    "OpenmxParams",
    "OpenmxShard",
    "expected_count",
    "make_plan",
    "openmx_params",
    "openmx_sim_state",
    "run_openmx",
    "schedule",
    "traffic_matrix",
]


@dataclass(frozen=True)
class OpenmxParams:
    """Shape of the ``openmx_shard`` scenario.  Frozen and picklable: the
    factory ships one copy to every forked shard worker."""

    nhosts: int = 16
    rounds: int = 12
    seed: int = 2009
    latency_ns: int = 20_000
    min_gap_ns: int = 2_000
    max_gap_ns: int = 150_000
    # Mixed traffic: the first sizes ride the eager path (<= eager_max),
    # the last ones rendezvous/pull.  Sent size is drawn uniformly.
    sizes: tuple[int, ...] = (512, 8_192, 24_576, 49_152, 114_688)
    window: int = 3  # max in-flight sends per host (pin pressure knob)
    deadline_ns: int = 80_000_000  # receiver give-up for fault-dropped msgs
    # Tight pin budget: a fraction of host memory far below what the
    # in-flight regions want, so the pin service actually queues/falls
    # back — the contended-resource regime the paper studies.
    memory_bytes: int = 64 * MIB
    pin_fraction: float = 0.01
    pinning_mode: PinningMode = PinningMode.OVERLAP_CACHE
    region_cache_capacity: int = 4
    resend_timeout_ns: int = 2_000_000  # 2 ms bounds chaos recovery time
    max_resend_rounds: int = 4
    fault: SeededFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.nhosts < 2:
            raise ValueError("openmx_shard needs at least 2 hosts")
        if self.latency_ns <= 0:
            raise ValueError("latency_ns must be positive")
        if not 0 < self.min_gap_ns < self.max_gap_ns:
            raise ValueError("need 0 < min_gap_ns < max_gap_ns")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.fault is not None:
            if self.fault.max_extra_delay_ns >= self.deadline_ns:
                raise ValueError("fault delays exceed the receive deadline")

    def config(self) -> OpenMXConfig:
        return OpenMXConfig(
            pinning_mode=self.pinning_mode,
            region_cache_capacity=self.region_cache_capacity,
            resend_timeout_ns=self.resend_timeout_ns,
            max_resend_rounds=self.max_resend_rounds,
        )


def schedule(params: OpenmxParams,
             host: int) -> tuple[tuple[int, int, int], ...]:
    """Host ``host``'s send schedule: ``(gap_ns, peer, size)`` per round.

    A pure function of ``(params.seed, host)`` — every shard (and the
    coordinator, and the affinity partitioner) can replay any host's
    schedule without simulating anything.
    """
    rng = random.Random(_mix(params.seed * 0x51ED + host))
    rounds = []
    for _ in range(params.rounds):
        gap = rng.randrange(params.min_gap_ns, params.max_gap_ns)
        peer = rng.randrange(params.nhosts - 1)
        if peer >= host:
            peer += 1
        size = params.sizes[rng.randrange(len(params.sizes))]
        rounds.append((gap, peer, size))
    return tuple(rounds)


def expected_count(params: OpenmxParams, host: int) -> int:
    """How many messages the schedule aims at ``host`` (pre-post count)."""
    return sum(1
               for src in range(params.nhosts) if src != host
               for _gap, peer, _size in schedule(params, src) if peer == host)


def traffic_matrix(params: OpenmxParams) -> dict[tuple[int, int], float]:
    """Bytes sent per (src, dst) pair — the affinity partitioner's input."""
    traffic: dict[tuple[int, int], float] = {}
    for src in range(params.nhosts):
        for _gap, peer, size in schedule(params, src):
            key = (src, peer)
            traffic[key] = traffic.get(key, 0.0) + size
    return traffic


def _payload(src: int, rnd: int, size: int) -> bytes:
    """Deterministic message body tagging sender and round."""
    stamp = f"omx:{src}:{rnd}:".encode()
    unit = stamp + bytes(
        (_mix(src * 0x7FF1 + rnd * 0x65 + i) & 0xFF) for i in range(24))
    return (unit * (size // len(unit) + 1))[:size]


class OpenmxHost:
    """One host's application: a sender replaying its schedule and a
    receiver pre-posting wildcard receives for the expected count."""

    def __init__(self, cluster: Cluster, host_id: int, params: OpenmxParams,
                 expected: int):
        self.id = host_id
        self.params = params
        self.env: Environment = cluster.env
        node = cluster.node(host_id)
        self.node = node
        self.lib = node.libs[0]
        self.proc = node.procs[0]
        self.expected = expected
        self.maxsz = max(params.sizes)
        self.rbufs = [self.proc.malloc(self.maxsz) for _ in range(expected)]
        self.rreqs: list = []
        self.send_statuses: list[str] = []
        self.done_ns: int | None = None
        self.env.process(self._main(), name=f"omx-host{host_id}")

    # -- processes ---------------------------------------------------------
    def _main(self):
        sender = self.env.process(self._sender(),
                                  name=f"omx-host{self.id}-send")
        receiver = self.env.process(self._receiver(),
                                    name=f"omx-host{self.id}-recv")
        yield self.env.all_of([sender, receiver])
        # One last drain picks up any already-queued terminal events (late
        # eager failures) before teardown; stragglers arriving after this
        # instant are dropped identically at every shard count.
        yield from self.lib.progress()
        yield from self.lib.close()
        self.done_ns = self.env.now

    def _sender(self):
        p = self.params
        pool: dict[int, int] = {}  # size -> reused buffer (cache hits)
        inflight: list[tuple] = []

        def reap(entry):
            rnd, req, fresh_va = entry
            status = yield from self.lib.wait(req)
            self.send_statuses[rnd] = status
            if fresh_va is not None:
                # Free the one-shot buffer: unmap fires the MMU notifier,
                # invalidating (and unpinning) whatever region covered it.
                self.proc.free(fresh_va)

        self.send_statuses = ["unsent"] * p.rounds
        for rnd, (gap, peer, size) in enumerate(schedule(p, self.id)):
            yield self.env.timeout(gap)
            if rnd % 2:
                va = self.proc.malloc(size)
                fresh_va = va
            else:
                va = pool.get(size)
                if va is None:
                    pool[size] = va = self.proc.malloc(size)
                fresh_va = None
            self.proc.write(va, _payload(self.id, rnd, size))
            req = yield from self.lib.isend(
                va, size, nic_address(peer), 0,
                match_info=(self.id << 20) | rnd, blocking=False)
            inflight.append((rnd, req, fresh_va))
            if len(inflight) >= p.window:
                yield from reap(inflight.pop(0))
        while inflight:
            yield from reap(inflight.pop(0))

    def _receiver(self):
        lib = self.lib
        p = self.params
        reqs = []
        for i in range(self.expected):
            req = yield from lib.irecv(self.rbufs[i], self.maxsz,
                                       match_info=0, match_mask=0)
            reqs.append(req)
        self.rreqs = reqs
        while not all(r.done for r in reqs):
            if self.env.now >= p.deadline_ns:
                # Cancel receives that never matched (their message was
                # fault-dropped and the sender gave up).  Matched-but-
                # incomplete transfers cannot be cancelled — the pull
                # path's bounded give-up timer drives them terminal, so
                # keep progressing until it does.
                for r in reqs:
                    if not r.done:
                        lib.cancel(r)
                if all(r.done for r in reqs):
                    break
            yield from lib.wait_step()
            yield from lib.progress()

    # -- end state ---------------------------------------------------------
    def state(self) -> dict:
        digest = hashlib.sha256()
        for rnd, status in enumerate(self.send_statuses):
            digest.update(f"s:{rnd}:{status}\n".encode())
        for i, req in enumerate(self.rreqs):
            digest.update(f"r:{i}:{req.status}:{req.received_length}\n"
                          .encode())
            if req.status == "ok" and req.received_length:
                digest.update(self.proc.read(self.rbufs[i],
                                             req.received_length))
        nic = self.node.host.nic
        return {
            "id": self.id,
            "done_ns": self.done_ns,
            "sends_ok": sum(1 for s in self.send_statuses if s == "ok"),
            "recvs_ok": sum(1 for r in self.rreqs if r.status == "ok"),
            "recvs_cancelled": sum(1 for r in self.rreqs
                                   if r.status == "cancelled"),
            "expected": self.expected,
            "nic_tx_frames": nic.tx_frames,
            "nic_rx_frames": nic.rx_frames,
            "nic_rx_ring_drops": nic.rx_ring_drops,
            "driver": dict(self.node.driver.counters.as_dict()),
            "digest": digest.hexdigest(),
        }


class OpenmxShard:
    """One PDES shard: a sub-cluster plus its slice of the workload."""

    def __init__(self, shard_id: int, plan: ShardPlan, params: OpenmxParams):
        self.shard_id = shard_id
        self.plan = plan
        self.params = params
        self.registry = MetricRegistry()
        self.cluster = build_cluster(
            nhosts=params.nhosts,
            config=params.config(),
            memory_bytes=params.memory_bytes,
            fabric_latency_ns=params.latency_ns,
            pin_fraction=params.pin_fraction,
            metrics=self.registry,
            shard_plan=plan,
            shard_id=shard_id,
            shard_fault=params.fault,
        )
        self.env = self.cluster.env
        self.fabric = self.cluster.fabric
        self.hosts = {h: OpenmxHost(self.cluster, h, params,
                                    expected_count(params, h))
                      for h in plan.shards[shard_id]}

    def next_time(self) -> int | None:
        return self.env.next_event_time()

    def ingress(self, entries) -> None:
        self.fabric.ingress(entries)

    def run_window(self, until: int):
        """Run one conservative window; return (egress, next_time, busy_s).

        ``busy_s`` is **CPU** time, not wall time: forked shards time-share
        the host's cores, so the wall one worker observes inside ``run()``
        is inflated by however many siblings were runnable at once.  CPU
        time is contention-free, which makes the coordinator's critical
        path (sum over windows of the slowest shard's busy time) an honest
        lower bound on the sharded wall of an uncontended host.
        """
        t0 = _time.process_time()
        self.env.run(until=until)
        busy = _time.process_time() - t0
        return self.fabric.take_egress(), self.env.next_event_time(), busy

    def end_state(self) -> dict:
        fab = self.fabric
        return {
            "now_ns": self.env.now,
            "events": self.env.events_processed,
            "hosts": [self.hosts[h].state() for h in sorted(self.hosts)],
            # Shard-count-independent totals only (the local/cross split
            # depends on the partition by definition).
            "fabric": {
                "carried": fab.frames_carried,
                "dropped": fab.frames_dropped,
                "duplicated": fab.frames_duplicated,
                "delayed": fab.frames_delayed,
                "delivered": fab.frames_delivered,
            },
        }


@dataclass(frozen=True)
class _OpenmxFactory:
    params: OpenmxParams

    def __call__(self, shard_id: int, plan: ShardPlan) -> OpenmxShard:
        return OpenmxShard(shard_id, plan, self.params)


def make_plan(params: OpenmxParams, nshards: int,
              strategy: str = "block") -> ShardPlan:
    """Partition the scenario's hosts; affinity reads the pure traffic
    matrix replayed from the schedules (no simulation needed)."""
    traffic = traffic_matrix(params) if strategy == "affinity" else None
    return partition_hosts(params.nhosts, nshards, strategy, traffic=traffic)


def run_openmx(params: OpenmxParams, nshards: int, *,
               lookahead_ns: int | None = None, mode: str | None = None,
               strategy: str = "block",
               registry: MetricRegistry | None = None) -> dict:
    """Run the full-stack scenario across ``nshards`` PDES shards.

    The lookahead is the inter-host fabric latency: a frame leaves its
    source NIC (TX serialization is host-local and already paid) at carry
    time ``t`` and cannot arrive anywhere before ``t + latency_ns``.
    """
    plan = make_plan(params, nshards, strategy)
    if lookahead_ns is None:
        lookahead_ns = params.latency_ns
    if not 0 < lookahead_ns <= params.latency_ns:
        raise ValueError(
            f"lookahead_ns must be in (0, latency_ns={params.latency_ns}], "
            f"got {lookahead_ns}")
    out = run_partitioned(_OpenmxFactory(params), plan,
                          lookahead_ns=lookahead_ns, mode=mode,
                          registry=registry)
    out["stats"]["strategy"] = strategy
    return out


# -- canned scenario ---------------------------------------------------------


def openmx_params(quick: bool = False, seed: int = 2009,
                  fault_seed: int | None = None, nhosts: int = 16,
                  pinning_mode: PinningMode = PinningMode.OVERLAP_CACHE,
                  ) -> OpenmxParams:
    """The canned ``openmx_shard`` shape used by the bench CLI and CI."""
    fault = None
    if fault_seed is not None:
        fault = SeededFaultPlan(seed=fault_seed, drop_per_mille=20,
                                dup_per_mille=10, delay_per_mille=30,
                                delay_quantum_ns=2_000, max_delay_quanta=4)
    return OpenmxParams(nhosts=nhosts,
                        rounds=6 if quick else 30,
                        seed=seed,
                        pinning_mode=pinning_mode,
                        fault=fault)


def openmx_sim_state(quick: bool = False, shards: int = 1, seed: int = 2009,
                     chaos_seed: int = 7, mode: str | None = None,
                     strategy: str = "block") -> dict:
    """Clean + chaos end states for one shard count — the CI digest gate
    diffs this JSON across ``--shards {1,2,4}`` and requires equality."""
    clean = run_openmx(openmx_params(quick=quick, seed=seed), shards,
                       mode=mode, strategy=strategy)
    chaos = run_openmx(openmx_params(quick=quick, seed=seed,
                                     fault_seed=chaos_seed), shards,
                       mode=mode, strategy=strategy)
    return {
        "schema": "repro.openmx-shard.sim/v1",
        "quick": quick,
        "shards": shards,
        "strategy": strategy,
        "clean": clean["state"],
        "chaos": chaos["state"],
    }
