"""Frozen pre-coalescing data path, for interleaved A/B benchmarking.

This module preserves the seed implementations of the four data-path
pieces that the event-coalescing change rewrote:

* ``SeedNic`` — one ``transmit()`` *process* per frame, serialized through
  a capacity-1 :class:`repro.sim.Resource`;
* ``SeedFabric`` — one ``deliver()`` process (and one timer) per carried
  frame, no same-instant batching;
* ``SeedHeldContext`` / ``SeedSoftirqEngine`` — the bottom half pays the
  per-packet charge as its own timeout before every dispatch (two heap
  events per frame instead of one fused charge).

``python -m repro.sim.bench --ab benchmarks/datapath_seed_reference.py datapath_pull``
builds the same two-senders-one-receiver scenario on this stack and on the
current one, strictly interleaved, and refuses to report a speedup unless
both simulations end in exactly the same state (same final clock, same
frame/byte/drop/bh counters) — the optimization contract: fewer heap
events, identical simulated behavior.

Copied from the tree as of the PR base commit; do not "improve" this file.
"""

from __future__ import annotations

from repro.hw.nic import EthernetFrame  # unchanged frame type
from repro.hw.cpu import PRIO_BH, PRIO_USER
from repro.kernel.context import ExecContext
from repro.obs.metrics import resolve_registry
from repro.sim import Resource, Store
from repro.util.units import transfer_time_ns

__all__ = ["STACK", "SeedFabric", "SeedHeldContext", "SeedNic",
           "SeedSoftirqEngine"]


class SeedNic:
    """Seed NIC: per-frame transmit process over a capacity-1 Resource."""

    def __init__(self, env, spec, name, metrics=None):
        self.env = env
        self.spec = spec
        self.name = name
        self.address = name
        self._tx = Resource(env, capacity=1, name=f"{name}/tx")
        self.rx_ring = Store(env, name=f"{name}/rxring")
        self._rx_ring_used = 0
        self.ring_pressure = 0
        self._link = None
        self._on_rx = None
        self._txseq = 0
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_ring_drops = 0
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"nic": name}
        self._m_tx_frames = registry.counter(
            "nic_tx_frames", "frames serialized onto the wire",
            labelnames=("nic",)).labels(**lbl)
        self._m_tx_bytes = registry.counter(
            "nic_tx_bytes", "payload bytes transmitted",
            labelnames=("nic",)).labels(**lbl)
        self._m_rx_frames = registry.counter(
            "nic_rx_frames", "frames accepted into the RX ring",
            labelnames=("nic",)).labels(**lbl)
        self._m_rx_bytes = registry.counter(
            "nic_rx_bytes", "payload bytes received",
            labelnames=("nic",)).labels(**lbl)
        self._m_rx_drops = registry.counter(
            "nic_rx_ring_drops", "frames tail-dropped on a full RX ring",
            labelnames=("nic",)).labels(**lbl)
        self._m_ring_depth = registry.histogram(
            "nic_rx_ring_depth", "RX ring occupancy sampled at each arrival",
            labelnames=("nic",)).labels(**lbl)

    def attach_link(self, link):
        if self._link is not None:
            raise RuntimeError(f"{self.name} already attached to a link")
        self._link = link

    def set_rx_callback(self, callback):
        self._on_rx = callback

    def transmit(self, frame):
        if self._link is None:
            raise RuntimeError(f"{self.name} is not connected")
        if frame.payload_bytes > self.spec.mtu:
            raise ValueError(
                f"frame payload {frame.payload_bytes} exceeds MTU {self.spec.mtu}"
            )
        with self._tx.request() as req:
            yield req
            wire = frame.wire_bytes(self.spec.frame_overhead_bytes)
            yield self.env.timeout(
                transfer_time_ns(wire, self.spec.link_bytes_per_sec)
            )
        self.tx_frames += 1
        self.tx_bytes += frame.payload_bytes
        self._m_tx_frames.inc()
        self._m_tx_bytes.inc(frame.payload_bytes)
        self._link.carry(frame)

    def send(self, frame):
        self._txseq += 1
        return self.env.process(self.transmit(frame), name=f"{self.name}.tx")

    def deliver(self, frame):
        if self._rx_ring_used + self.ring_pressure >= self.spec.rx_ring_entries:
            self.rx_ring_drops += 1
            self._m_rx_drops.inc()
            return
        self._rx_ring_used += 1
        self.rx_frames += 1
        self.rx_bytes += frame.payload_bytes
        self._m_rx_frames.inc()
        self._m_rx_bytes.inc(frame.payload_bytes)
        self._m_ring_depth.observe(self._rx_ring_used)
        self.rx_ring.put(frame)
        if self._on_rx is not None:
            self._on_rx()

    def ring_pop(self):
        ok, frame = self.rx_ring.try_get()
        if ok:
            self._rx_ring_used -= 1
            return frame
        return None

    def ring_pop_peek_empty(self):
        return self._rx_ring_used == 0


class _SeedPort:
    def __init__(self, fabric, nic):
        self.fabric = fabric
        self.nic = nic

    def carry(self, frame):
        self.fabric._carry(self.nic, frame)


class SeedFabric:
    """Seed fabric: one delivery process and one timer per carried frame."""

    def __init__(self, env, latency_ns=1_000, metrics=None):
        self.env = env
        self.latency_ns = latency_ns
        self._nics = {}
        self._drop_rule = None
        self.fault_injectors = []
        self.frames_carried = 0
        self.frames_dropped = 0
        registry = resolve_registry(metrics)
        self.metrics = registry
        self._m_carried = registry.counter(
            "fabric_frames_carried", "frames the switch forwarded")
        self._m_dropped = registry.counter(
            "fabric_frames_dropped", "frames the switch dropped, by cause",
            labelnames=("reason",))
        self._m_duplicated = registry.counter(
            "fabric_frames_duplicated", "extra frame copies injected")
        self._m_delayed = registry.counter(
            "fabric_frames_delayed", "frames delivered with injected delay")

    def attach(self, nic):
        if nic.address in self._nics:
            raise ValueError(f"duplicate NIC address {nic.address}")
        self._nics[nic.address] = nic
        nic.attach_link(_SeedPort(self, nic))

    def add_fault_injector(self, injector):
        self.fault_injectors.append(injector)

    def _drop(self, reason):
        self.frames_dropped += 1
        self._m_dropped.labels(reason=reason).inc()

    def _carry(self, src_nic, frame):
        if self._drop_rule is not None and self._drop_rule(frame):
            self._drop("drop_rule")
            return
        copies = 1
        extra_delay = 0
        for injector in self.fault_injectors:
            verdict = injector.on_frame(frame, self.env.now)
            if verdict is None:
                continue
            if verdict.drop:
                self._drop(verdict.drop_reason)
                return
            if verdict.duplicate:
                copies += 1
            extra_delay += verdict.extra_delay_ns
        dst = self._nics.get(frame.dst)
        if dst is None:
            self._drop("no_route")
            return
        self.frames_carried += 1
        self._m_carried.inc()
        if copies > 1:
            self._m_duplicated.inc(copies - 1)
        if extra_delay > 0:
            self._m_delayed.inc()

        def deliver():
            yield self.env.timeout(self.latency_ns + extra_delay)
            dst.deliver(frame)

        for _ in range(copies):
            self.env.process(deliver(), name="fabric.deliver")

    def addresses(self):
        return list(self._nics)


class SeedHeldContext(ExecContext):
    """Seed held context: every charge is its own timeout, no deferral."""

    def charge(self, cost_ns):
        if cost_ns > 0:
            yield self.env.timeout(cost_ns)


class SeedSoftirqEngine:
    """Seed bottom half: separate per-packet charge before each dispatch."""

    def __init__(self, env, core, nic, dispatch, budget=64, metrics=None):
        self.env = env
        self.core = core
        self.nic = nic
        self.dispatch = dispatch
        self.budget = budget
        self._scheduled = False
        self.bh_runs = 0
        self.frames_processed = 0
        self.ksoftirqd_rounds = 0
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"nic": nic.name}
        self._m_bh_runs = registry.counter(
            "softirq_bh_runs", "bottom-half activations (core acquisitions)",
            labelnames=("nic",)).labels(**lbl)
        self._m_frames = registry.counter(
            "softirq_frames_processed", "frames drained by the bottom half",
            labelnames=("nic",)).labels(**lbl)
        self._m_ksoftirqd = registry.counter(
            "softirq_ksoftirqd_rounds",
            "budget exhaustions continued at normal priority (ksoftirqd)",
            labelnames=("nic",)).labels(**lbl)
        self._m_backlog = registry.histogram(
            "softirq_backlog_depth",
            "RX ring occupancy when the bottom half gets the core",
            labelnames=("nic",)).labels(**lbl)

    def raise_irq(self):
        if self._scheduled:
            return
        self._scheduled = True
        self.env.process(self._bottom_half(), name=f"{self.nic.name}.bh")

    def _bottom_half(self):
        spec = self.core.spec
        priority = PRIO_BH
        while True:
            drained = False
            with self.core.request(priority) as req:
                yield req
                self.bh_runs += 1
                self._m_bh_runs.inc()
                self._m_backlog.observe(self.nic._rx_ring_used)
                ctx = SeedHeldContext(self.env, self.core, priority)
                yield from ctx.charge(spec.irq_entry_ns)
                for _ in range(self.budget):
                    frame = self.nic.ring_pop()
                    if frame is None:
                        drained = True
                        break
                    self.frames_processed += 1
                    self._m_frames.inc()
                    yield from ctx.charge(spec.bh_per_packet_ns)
                    yield from self.dispatch(frame, ctx)
                else:
                    drained = self.nic.ring_pop_peek_empty()
            if drained:
                self._scheduled = False
                return
            self.ksoftirqd_rounds += 1
            self._m_ksoftirqd.inc()
            priority = PRIO_USER


# The class set repro.sim.bench's datapath scenario builds against.
STACK = {
    "EthernetFrame": EthernetFrame,
    "Nic": SeedNic,
    "Fabric": SeedFabric,
    "SoftirqEngine": SeedSoftirqEngine,
    "HeldContext": SeedHeldContext,
}
