"""Conservative-lookahead PDES: partitioning, shard fabric, coordinator.

The contract under test (see :mod:`repro.sim.pdes`): the shard fabric
delivers same-instant arrivals in a canonical order whichever shard they
came from, refuses any cross-shard frame that would land in the past, and
the coordinator's window sequence and bookkeeping do not depend on how the
hosts were partitioned.  Everything runs on the real stack:
:class:`~repro.cluster.network.ShardEtherFabric` between real NICs, and
the full Open-MX scenario of :mod:`repro.sim.openmx_shard`.  The
byte-identity checks here drive the coordinator over a four-host cluster;
``test_openmx_shard.py`` repeats them on its five-host scenario.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.cluster.builder import ShardPlan, nic_address, partition_hosts
from repro.cluster.network import EtherCrossing, ShardEtherFabric
from repro.hw import MYRI_10G, EthernetFrame
from repro.hw.nic import Nic
from repro.kernel import ETH_P_OMX
from repro.obs.metrics import MetricRegistry
from repro.sim import Environment, SimulationError
from repro.sim.openmx_shard import (
    OpenmxParams,
    OpenmxShard,
    _OpenmxFactory,
    make_plan,
    run_openmx,
)
from repro.sim.pdes import SeededFaultPlan, _ForkHandle, run_partitioned

TINY = OpenmxParams(nhosts=4, rounds=2, seed=11)
LATENCY = 1_000


# -- partitioning -------------------------------------------------------------


def test_block_partition_is_contiguous_and_balanced():
    plan = partition_hosts(10, 4)
    assert plan.shards == ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9))
    assert plan.shard_of(0) == 0 and plan.shard_of(5) == 1
    assert plan.shard_of(9) == 3


def test_stripe_partition_round_robins():
    plan = partition_hosts(7, 3, strategy="stripe")
    assert plan.shards == ((0, 3, 6), (1, 4), (2, 5))


def test_partition_clamps_shards_to_hosts():
    plan = partition_hosts(2, 8)
    assert plan.nshards == 2
    assert all(plan.shards)  # no empty shard, ever


def test_partition_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_hosts(0, 2)
    with pytest.raises(ValueError):
        partition_hosts(4, 0)
    with pytest.raises(ValueError):
        partition_hosts(4, 2, strategy="mystery")


def test_shard_plan_validates_host_cover():
    with pytest.raises(ValueError):  # host 2 missing
        ShardPlan(nhosts=3, shards=((0,), (1,)))
    with pytest.raises(ValueError):  # host 1 assigned twice
        ShardPlan(nhosts=2, shards=((0, 1), (1,)))
    with pytest.raises(ValueError):  # host 5 out of range
        ShardPlan(nhosts=2, shards=((0, 1), (5,)))


# -- shard fabric -------------------------------------------------------------


def _fabric(env, plan, shard_id, fault=None):
    addrs = {h: nic_address(h) for h in range(plan.nhosts)}
    return ShardEtherFabric(env, LATENCY, plan, shard_id, addrs, fault=fault)


def _nic(env, fabric, host):
    nic = Nic(env, MYRI_10G, nic_address(host))
    fabric.attach(nic)
    return nic


def _frame(src, dst, payload):
    return EthernetFrame(src=nic_address(src), dst=nic_address(dst),
                         ethertype=ETH_P_OMX, payload=payload,
                         payload_bytes=1_000)


def _crossing(src, dst, payload):
    frame = _frame(src, dst, payload)
    return EtherCrossing(src=src, dst=dst, seq=1, copy=0, frame=frame)


def _ring(nic):
    frames = []
    while (frame := nic.ring_pop()) is not None:
        frames.append(frame)
    return frames


def test_shard_fabric_sorts_same_instant_arrivals_canonically():
    env = Environment()
    plan = ShardPlan(nhosts=4, shards=((0, 1, 2), (3,)))
    # Every frame duplicated: copies 0 and 1 share the arrival instant.
    dup = SeededFaultPlan(seed=1, dup_per_mille=1000)
    fabric = _fabric(env, plan, 0, fault=dup)
    rx, nic1, nic2 = (_nic(env, fabric, h) for h in (0, 1, 2))
    # Host 2 transmits before host 1 at the same instant with the same
    # frame size, so both reach the fabric together; delivery must come
    # back sorted by (src, seq, copy), not by carry order.
    nic2.send(_frame(2, 0, "from2"))
    nic1.send(_frame(1, 0, "from1"))
    env.run()
    got = _ring(rx)
    assert [f.payload for f in got] == ["from1", "from1", "from2", "from2"]
    assert fabric.frames_delivered == 4 and fabric.frames_duplicated == 2
    # Two TX-serialization timers, then one flush timer for the whole
    # (arrival, dst) batch of four frames.
    assert env.events_processed == 3


def test_shard_fabric_routes_remote_hosts_to_egress():
    env = Environment()
    plan = ShardPlan(nhosts=4, shards=((0,), (1, 2, 3)))
    fabric = _fabric(env, plan, 0)
    nic0 = _nic(env, fabric, 0)
    nic0.send(_frame(0, 3, "away"))
    env.run()
    assert fabric.frames_cross_shard == 1 and fabric.frames_local == 0
    egress = fabric.take_egress()
    assert [(a, c.src, c.dst, c.seq, c.copy) for a, c in egress] == [
        (env.now + LATENCY, 0, 3, 1, 0)]
    assert egress[0][1].frame.payload == "away"
    assert fabric.take_egress() == []  # drained


def test_shard_fabric_ingress_merges_with_local_sends():
    plan = ShardPlan(nhosts=3, shards=((0, 2), (1,)))
    tx_env = Environment()
    tx = _fabric(tx_env, plan, 1)
    rx_env = Environment()
    rx = _fabric(rx_env, plan, 0)
    nic1 = _nic(tx_env, tx, 1)
    rx_nic0, rx_nic2 = _nic(rx_env, rx, 0), _nic(rx_env, rx, 2)
    nic1.send(_frame(1, 0, "remote"))   # crosses via egress/ingress
    tx_env.run()
    rx.ingress(tx.take_egress())
    rx_nic2.send(_frame(2, 0, "local"))  # same arrival instant
    rx_env.run()
    # Same (arrival, dst) batch, canonical (src, seq) order — and still
    # exactly one flush timer (plus host 2's TX timer) for the merge.
    assert [f.payload for f in _ring(rx_nic0)] == ["remote", "local"]
    assert rx_env.events_processed == 2
    assert rx_env.now == tx_env.now + LATENCY


def test_shard_fabric_rejects_past_ingress():
    env = Environment()
    plan = ShardPlan(nhosts=2, shards=((0,), (1,)))
    fabric = _fabric(env, plan, 0)
    _nic(env, fabric, 0)
    env.timeout(50)
    env.run(until=50)
    with pytest.raises(SimulationError, match="conservative window"):
        # arrival == now: not strictly in the future
        fabric.ingress([(50, _crossing(1, 0, "late"))])


def test_shard_fabric_rejects_misrouted_ingress():
    env = Environment()
    plan = ShardPlan(nhosts=3, shards=((0,), (1, 2)))
    fabric = _fabric(env, plan, 0)
    with pytest.raises(SimulationError, match="misrouted"):
        fabric.ingress([(10, _crossing(1, 2, "lost"))])


def test_shard_fabric_guards_attach():
    env = Environment()
    plan = ShardPlan(nhosts=2, shards=((0,), (1,)))
    fabric = _fabric(env, plan, 0)
    _nic(env, fabric, 0)
    with pytest.raises(ValueError, match="host table"):
        fabric.attach(Nic(env, MYRI_10G, "stranger"))
    with pytest.raises(ValueError, match="not local"):
        fabric.attach(Nic(env, MYRI_10G, nic_address(1)))
    with pytest.raises(ValueError, match="duplicate"):
        fabric.attach(Nic(env, MYRI_10G, nic_address(0)))


# -- fault plan ---------------------------------------------------------------


def test_fault_plan_is_pure_and_seed_sensitive():
    plan = SeededFaultPlan(seed=42, drop_per_mille=100, dup_per_mille=100,
                           delay_per_mille=100, delay_quantum_ns=1_001)
    verdicts = [plan(src, dst, seq) for src in range(4) for dst in range(4)
                for seq in range(50)]
    assert verdicts == [plan(src, dst, seq) for src in range(4)
                        for dst in range(4) for seq in range(50)]
    assert any(v[0] for v in verdicts)          # some drops
    assert any(v[1] > 1 for v in verdicts)      # some duplicates
    assert any(v[2] for v in verdicts)          # some delays
    assert all(v[2] % 1_001 == 0 for v in verdicts)  # whole quanta
    other = SeededFaultPlan(seed=43, drop_per_mille=100, dup_per_mille=100,
                            delay_per_mille=100, delay_quantum_ns=1_001)
    assert verdicts != [other(src, dst, seq) for src in range(4)
                        for dst in range(4) for seq in range(50)]


# -- coordinator --------------------------------------------------------------


def test_sharded_runs_are_byte_identical_to_serial():
    serial = run_openmx(TINY, 1, mode="inline")
    for nshards in (2, 3, 4):
        sharded = run_openmx(TINY, nshards, mode="inline")
        assert sharded["state"] == serial["state"]
        assert sharded["stats"]["cross_shard_frames"] > 0


def test_stripe_partition_is_byte_identical_too():
    serial = run_openmx(TINY, 1, mode="inline")
    striped = run_openmx(TINY, 3, mode="inline", strategy="stripe")
    assert striped["state"] == serial["state"]


def test_forked_workers_match_inline():
    inline = run_openmx(TINY, 2, mode="inline")
    forked = run_openmx(TINY, 2, mode="fork")
    assert forked["state"] == inline["state"]
    assert forked["stats"]["mode"] == "fork"
    assert forked["stats"]["windows"] == inline["stats"]["windows"]


def test_chaos_traffic_stays_byte_identical_across_shards():
    # An odd delay quantum on purpose: delays need not keep any parity.
    params = OpenmxParams(nhosts=4, rounds=3, seed=5,
                          fault=SeededFaultPlan(seed=5, drop_per_mille=60,
                                                dup_per_mille=60,
                                                delay_per_mille=150,
                                                delay_quantum_ns=1_001))
    serial = run_openmx(params, 1, mode="inline")
    fabric = serial["state"]["fabric"]
    # The plan actually bit: chaos crossing shard boundaries is the point.
    assert fabric["dropped"] and fabric["duplicated"] and fabric["delayed"]
    for nshards in (2, 3):
        assert run_openmx(params, nshards,
                          mode="inline")["state"] == serial["state"]


def test_lookahead_must_not_exceed_latency():
    with pytest.raises(ValueError):
        run_openmx(TINY, 2, mode="inline", lookahead_ns=TINY.latency_ns + 1)
    # The coordinator itself refuses a window that could never advance.
    for bad in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            run_partitioned(_OpenmxFactory(TINY), make_plan(TINY, 2),
                            lookahead_ns=bad, mode="inline")
    # Exactly the latency is the widest legal window.
    assert run_openmx(TINY, 2, mode="inline",
                      lookahead_ns=TINY.latency_ns)["state"]["now_ns"] > 0


def test_window_sequence_is_shard_count_independent():
    a = run_openmx(TINY, 1, mode="inline")
    b = run_openmx(TINY, 3, mode="inline")
    assert a["stats"]["windows"] == b["stats"]["windows"]
    assert a["stats"]["advance_ns"] == b["stats"]["advance_ns"]
    assert a["state"]["now_ns"] == b["state"]["now_ns"]


def test_shorter_lookahead_changes_windows_not_behavior():
    short = run_openmx(TINY, 2, mode="inline",
                       lookahead_ns=TINY.latency_ns // 2)
    full = run_openmx(TINY, 2, mode="inline")
    assert short["stats"]["windows"] > full["stats"]["windows"]
    # The final clock is the last window's end, which legitimately depends
    # on the lookahead; everything the simulation *did* must not.
    for key in ("events", "hosts", "fabric"):
        assert short["state"][key] == full["state"][key]


def test_coordinator_counters_land_in_registry():
    registry = MetricRegistry()
    out = run_openmx(TINY, 2, mode="inline", registry=registry)
    assert (registry.get("pdes_windows").value
            == out["stats"]["windows"])
    assert (registry.get("pdes_lookahead_ns").value
            == out["stats"]["advance_ns"])
    # Worker-side series merged in shard order: the per-shard fabric
    # cross-shard counter sums to the coordinator's routed-frame count.
    assert out["stats"]["cross_shard_frames"] > 0
    assert (registry.get("pdes_frames_cross_shard").value
            == out["stats"]["cross_shard_frames"])
    assert registry.get("pdes_barrier_wait_us").value >= 0


def _fork_handle(shard_id):
    ctx = multiprocessing.get_context("fork")
    return _ForkHandle(shard_id, make_plan(TINY, 2), _OpenmxFactory(TINY), ctx)


def test_worker_errors_propagate_with_traceback():
    handle = _fork_handle(0)
    try:
        assert handle.initial_next() == 0
        # Arrival 0 <= the worker's clock: the worker's fabric must refuse
        # it, and the coordinator must re-raise with the remote traceback.
        handle.start_window(10, [(0, _crossing(2, 0, "late"))])
        with pytest.raises(SimulationError, match="conservative window") as exc:
            handle.finish_window()
        assert "Traceback" in str(exc.value)
    finally:
        handle.close()


def test_killed_worker_fails_loudly_on_send_and_recv():
    handle = _fork_handle(1)
    try:
        handle.initial_next()
        os.kill(handle.proc.pid, signal.SIGKILL)
        handle.proc.join()
        died = r"shard 1 worker died without reporting \(exitcode -9\)"
        with pytest.raises(SimulationError, match=died):
            handle.finish_window()          # recv: EOF on the pipe
        with pytest.raises(SimulationError, match=died):
            handle.start_window(10, [])     # send: broken pipe
    finally:
        handle.close()


@dataclass(frozen=True)
class _KilledMidRun:
    """Factory whose shard 1 SIGKILLs its own worker in its 3rd window."""

    params: OpenmxParams

    def __call__(self, shard_id, plan):
        shard = OpenmxShard(shard_id, plan, self.params)
        if shard_id == 1:
            windows = iter(range(3))
            run_window = shard.run_window

            def dying_run_window(until):
                if next(windows, None) is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                return run_window(until)

            shard.run_window = dying_run_window
        return shard


def test_killed_worker_mid_run_aborts_the_coordinator():
    t0 = time.perf_counter()
    with pytest.raises(SimulationError,
                       match=r"shard 1 worker died .*exitcode -9"):
        run_partitioned(_KilledMidRun(TINY), make_plan(TINY, 2),
                        lookahead_ns=TINY.latency_ns, mode="fork")
    # The surviving worker is terminated, not waited on: it would block
    # for a command forever, so teardown would sit out the join timeout.
    assert time.perf_counter() - t0 < 5
