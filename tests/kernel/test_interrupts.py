"""Tests for softirq/BH processing and the kernel Ethernet layer,
exercised over the real fabric between two hosts."""

import pytest

from repro.cluster.network import Fabric, FrameVerdict
from repro.hw import XEON_E5460, EthernetFrame, Host
from repro.kernel import ETH_P_OMX, Kernel
from repro.kernel.context import AcquiringContext
from repro.sim import Environment


def build_pair():
    env = Environment()
    h0 = Host(env, "h0", XEON_E5460)
    h1 = Host(env, "h1", XEON_E5460)
    k0, k1 = Kernel(h0), Kernel(h1)
    fabric = Fabric(env, latency_ns=1_000)
    fabric.attach(h0.nic)
    fabric.attach(h1.nic)
    return env, h0, h1, k0, k1, fabric


def test_frame_travels_and_bh_dispatches():
    env, h0, h1, k0, k1, fabric = build_pair()
    received = []

    def handler(frame, ctx):
        yield from ctx.charge(100)
        received.append((env.now, frame.payload))

    k1.ethernet.register_protocol(ETH_P_OMX, handler)

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        yield from k0.ethernet.xmit(ctx, h1.nic.address, "hello", 1000)

    env.process(sender())
    env.run()
    assert len(received) == 1
    t, payload = received[0]
    assert payload == "hello"
    # tx cost + wire serialization + latency + irq + bh per packet + handler
    assert t > 1_000
    assert k1.softirq.bh_runs == 1
    assert k1.softirq.frames_processed == 1


def test_burst_is_drained_in_one_bottom_half():
    env, h0, h1, k0, k1, fabric = build_pair()
    received = []

    def handler(frame, ctx):
        received.append(frame.payload)
        # Slower than the ~6.5us inter-arrival of 8kB frames at 10G, so
        # frames accumulate in the ring while the BH is busy.
        yield from ctx.charge(10_000)

    k1.ethernet.register_protocol(ETH_P_OMX, handler)

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        for i in range(10):
            yield from k0.ethernet.xmit(ctx, h1.nic.address, i, 8000)

    env.process(sender())
    env.run()
    assert received == list(range(10))
    # NAPI-style: far fewer BH activations than frames.
    assert k1.softirq.bh_runs < 10


def test_unregistered_ethertype_counted_not_crashed():
    env, h0, h1, k0, k1, fabric = build_pair()

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        yield from k0.ethernet.xmit(ctx, h1.nic.address, "x", 100, ethertype=0x0800)

    env.process(sender())
    env.run()
    assert k1.ethernet.rx_unhandled == 1


def test_bh_starves_user_work_on_same_core():
    """The Section 4.3 mechanism: receive processing at BH priority delays
    user-priority work on the bottom-half core."""
    env, h0, h1, k0, k1, fabric = build_pair()

    def handler(frame, ctx):
        yield from ctx.charge(50_000)  # expensive per-frame processing

    k1.ethernet.register_protocol(ETH_P_OMX, handler)
    finished = {}

    def user_work():
        # Competes with the BH for h1 core 0 (the BH core).
        yield from h1.cores[0].execute_sliced(100_000, priority=10, slice_ns=1_000)
        finished["user"] = env.now

    def flood():
        ctx = AcquiringContext(env, h0.cores[1])
        for _ in range(20):
            yield from k0.ethernet.xmit(ctx, h1.nic.address, "pkt", 8000)

    env.process(user_work())
    env.process(flood())
    env.run()
    # 20 frames x 50us handler ~= 1ms of BH time; user work (100us) finishes
    # way later than it would alone.
    assert finished["user"] > 500_000


def test_fabric_fault_injector_drops_frames():
    env, h0, h1, k0, k1, fabric = build_pair()
    received = []

    def handler(frame, ctx):
        received.append(frame.payload)
        yield from ctx.charge(1)

    class DropEven:
        def on_frame(self, frame, now):
            return FrameVerdict(drop=True) if frame.payload % 2 == 0 else None

    k1.ethernet.register_protocol(ETH_P_OMX, handler)
    fabric.add_fault_injector(DropEven())

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        for i in range(6):
            yield from k0.ethernet.xmit(ctx, h1.nic.address, i, 500)

    env.process(sender())
    env.run()
    assert received == [1, 3, 5]
    assert fabric.frames_dropped == 3


def test_frame_to_unknown_address_dropped():
    env, h0, h1, k0, k1, fabric = build_pair()

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        yield from k0.ethernet.xmit(ctx, "nowhere", "x", 100)

    env.process(sender())
    env.run()
    assert fabric.frames_dropped == 1


def test_oversized_frame_rejected():
    env, h0, h1, k0, k1, fabric = build_pair()

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        yield from k0.ethernet.xmit(ctx, h1.nic.address, "x", 20_000)

    env.process(sender())
    with pytest.raises(ValueError, match="MTU"):
        env.run()


def test_duplicate_protocol_registration_rejected():
    env, h0, h1, k0, k1, fabric = build_pair()

    def handler(frame, ctx):
        yield from ctx.charge(1)

    k0.ethernet.register_protocol(ETH_P_OMX, handler)
    with pytest.raises(ValueError):
        k0.ethernet.register_protocol(ETH_P_OMX, handler)


def test_user_process_syscall_and_compute():
    env, h0, h1, k0, k1, fabric = build_pair()
    proc = k0.new_process("app", core_index=1)

    def body(ctx):
        yield from ctx.charge(1_000)
        return "ret"

    def run():
        yield from proc.compute(500)
        result = yield from proc.syscall(body)
        return (result, env.now)

    result, t = env.run(until=env.process(run()))
    assert result == "ret"
    assert t == 500 + proc.core.spec.syscall_ns + 1_000


def test_process_memory_roundtrip():
    env, h0, *_ = build_pair()
    proc = h0.kernel.new_process("app", core_index=1)
    p = proc.malloc(1 << 20)
    proc.write(p, b"payload")
    assert proc.read(p, 7) == b"payload"
    proc.free(p)


# -- NAPI budget edges, re-raise race, charge fusion -------------------------

from repro.hw import MYRI_10G, Nic
from repro.hw.cpu import CpuCore
from repro.kernel.interrupts import SoftirqEngine


def build_engine(budget=64, fuse_hint=None, handler=None):
    env = Environment()
    nic = Nic(env, MYRI_10G, "n0")
    core = CpuCore(env, XEON_E5460, "h", 0)
    done = []

    def default_handler(frame, ctx):
        yield from ctx.charge(700)
        done.append((frame.payload, env.now))

    engine = SoftirqEngine(env, core, nic, handler or default_handler,
                           budget=budget, fuse_hint=fuse_hint)
    nic.set_rx_callback(engine.raise_irq)
    return env, nic, engine, done


def rx_frame(i, nbytes=1000):
    return EthernetFrame(src="x", dst="n0", ethertype=ETH_P_OMX,
                         payload=i, payload_bytes=nbytes)


def test_budget_exactly_exhausted_with_empty_ring_no_ksoftirqd():
    # Exactly ``budget`` frames: the drain loop runs to completion without
    # hitting the empty-ring break, and the else-branch peek must notice
    # the ring is empty — one BH activation, no ksoftirqd round.
    env, nic, engine, done = build_engine(budget=4)
    for i in range(4):
        nic.deliver(rx_frame(i))
    env.run()
    assert [p for p, _ in done] == [0, 1, 2, 3]
    assert engine.frames_processed == 4
    assert engine.bh_runs == 1
    assert engine.ksoftirqd_rounds == 0


def test_budget_exhausted_with_backlog_continues_as_ksoftirqd():
    env, nic, engine, done = build_engine(budget=4)
    for i in range(5):
        nic.deliver(rx_frame(i))
    env.run()
    assert [p for p, _ in done] == [0, 1, 2, 3, 4]
    assert engine.ksoftirqd_rounds == 1
    # The ksoftirqd continuation re-acquires the core: a second activation.
    assert engine.bh_runs == 2


def test_frames_after_drain_re_raise_the_interrupt():
    # The _scheduled flag is cleared with no yield after the empty-ring
    # check, so a frame landing any time after the drain must trigger a
    # fresh bottom half rather than sit in the ring forever.
    env, nic, engine, done = build_engine()
    nic.deliver(rx_frame(0))

    def second_burst(_ev):
        nic.deliver(rx_frame(1))
        nic.deliver(rx_frame(2))

    env.timeout(50_000).callbacks.append(second_burst)
    env.run()
    assert [p for p, _ in done] == [0, 1, 2]
    assert engine.bh_runs == 2


def fused_vs_unfused(handler=None):
    states = []
    for hint in (None, lambda frame: True):
        env, nic, engine, done = build_engine(fuse_hint=hint, handler=handler)
        for i in range(6):
            nic.deliver(rx_frame(i))

        def late(_ev, nic=nic):
            nic.deliver(rx_frame(6))

        env.timeout(40_000).callbacks.append(late)
        env.run()
        states.append((done, env.now, engine.bh_runs,
                       engine.frames_processed, engine.ksoftirqd_rounds))
    return states


def test_fused_charges_preserve_every_timestamp():
    # Fusing the per-packet cost into the handler's first charge must not
    # move a single completion instant or counter.
    unfused, fused = fused_vs_unfused()
    assert fused == unfused
    assert unfused[0]  # the workload actually dispatched frames


def test_fused_frame_whose_handler_never_charges_still_pays():
    # A handler that bails before charging (duplicate drop) leaves the
    # deferred per-packet cost unpaid; the BH must settle it before the
    # next frame, landing on the same timeline as the unfused engine.
    def bailing_handler(frame, ctx):
        if frame.payload % 2 == 0:
            return  # dropped before any charge
        yield from ctx.charge(700)

    unfused, fused = fused_vs_unfused(handler=bailing_handler)
    assert fused == unfused


def test_oversized_loopback_frame_rejected():
    # Local delivery skips the wire but not the MTU: an oversized frame
    # to our own MAC must fail exactly like a wire frame would.
    env, h0, h1, k0, k1, fabric = build_pair()

    def sender():
        ctx = AcquiringContext(env, h0.cores[1])
        yield from k0.ethernet.xmit(ctx, h0.nic.address, "x", 20_000)

    env.process(sender())
    with pytest.raises(ValueError, match="MTU"):
        env.run()
    assert k0.ethernet.loopback_packets == 0
