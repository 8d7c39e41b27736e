"""Full-stack Open-MX under the PDES coordinator: byte-identity across
shard counts, partition strategies, builder sub-cluster construction, and
the shard-count resolution helpers."""

import pytest

from repro.cluster.builder import build_cluster, nic_address, partition_hosts
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.sim.openmx_shard import (
    OpenmxParams,
    OpenmxShard,
    expected_count,
    make_plan,
    openmx_params,
    openmx_sim_state,
    run_openmx,
    schedule,
    traffic_matrix,
)
from repro.sim.pdes import SeededFaultPlan, host_core_count, resolve_shards

SMALL = OpenmxParams(nhosts=5, rounds=3, seed=11)


# -- pure schedule helpers ----------------------------------------------------

def test_schedule_is_pure_and_self_excluding():
    for h in range(SMALL.nhosts):
        sched = schedule(SMALL, h)
        assert sched == schedule(SMALL, h)
        assert len(sched) == SMALL.rounds
        for gap, peer, size in sched:
            assert SMALL.min_gap_ns <= gap < SMALL.max_gap_ns
            assert 0 <= peer < SMALL.nhosts and peer != h
            assert size in SMALL.sizes


def test_expected_count_totals_match_schedules():
    total = sum(expected_count(SMALL, h) for h in range(SMALL.nhosts))
    assert total == SMALL.nhosts * SMALL.rounds


def test_traffic_matrix_sums_scheduled_bytes():
    traffic = traffic_matrix(SMALL)
    assert sum(traffic.values()) == sum(
        size for h in range(SMALL.nhosts)
        for _gap, _peer, size in schedule(SMALL, h))
    assert all(src != dst for src, dst in traffic)


# -- byte identity across shard counts ---------------------------------------

def test_every_shard_count_matches_serial():
    serial = run_openmx(SMALL, 1, mode="inline")
    for nshards in (2, 3, 5):
        sharded = run_openmx(SMALL, nshards, mode="inline")
        assert sharded["state"] == serial["state"]
        assert sharded["state"]["events"] == serial["state"]["events"]


def test_fork_workers_match_inline_serial():
    serial = run_openmx(SMALL, 1, mode="inline")
    sharded = run_openmx(SMALL, 2, mode="fork")
    assert sharded["state"] == serial["state"]


def test_faulted_run_matches_serial_across_shards():
    params = OpenmxParams(nhosts=4, rounds=3, seed=3,
                          fault=SeededFaultPlan(seed=9, drop_per_mille=40,
                                                dup_per_mille=20,
                                                delay_per_mille=60))
    serial = run_openmx(params, 1, mode="inline")
    sharded = run_openmx(params, 2, mode="inline")
    assert sharded["state"] == serial["state"]
    # Chaos actually engaged, and the workload still terminated.
    assert serial["state"]["fabric"]["dropped"] > 0
    assert serial["state"]["now_ns"] > 0


def test_clean_run_delivers_everything():
    state = run_openmx(SMALL, 2, mode="inline")["state"]
    for host in state["hosts"]:
        assert host["sends_ok"] == SMALL.rounds
        assert host["recvs_ok"] == host["expected"]
        assert host["recvs_cancelled"] == 0
    assert state["fabric"]["dropped"] == 0


def test_partition_strategies_share_one_digest():
    golden = run_openmx(SMALL, 1, mode="inline")["state"]
    cross = {}
    for strategy in ("block", "stripe", "affinity"):
        out = run_openmx(SMALL, 2, mode="inline", strategy=strategy)
        assert out["state"] == golden
        assert out["stats"]["strategy"] == strategy
        cross[strategy] = out["stats"]["cross_shard_frames"]
    # Affinity reads the real traffic matrix; it must never do worse than
    # the traffic-blind layouts on this fixed scenario.
    assert cross["affinity"] <= cross["block"]
    assert cross["affinity"] <= cross["stripe"]


def test_lookahead_must_respect_fabric_latency():
    for bad in (SMALL.latency_ns + 1, 0):
        with pytest.raises(ValueError):
            run_openmx(SMALL, 2, mode="inline", lookahead_ns=bad)
    half = SMALL.latency_ns // 2
    out = run_openmx(SMALL, 2, mode="inline", lookahead_ns=half)
    # Same lookahead -> identical end state, clock included.
    assert out["state"] == run_openmx(SMALL, 1, mode="inline",
                                      lookahead_ns=half)["state"]
    # Across lookaheads only the final clock may differ (it parks at the
    # last window boundary); everything simulated is identical.
    full = run_openmx(SMALL, 1, mode="inline")["state"]
    assert out["state"]["hosts"] == full["hosts"]
    assert out["state"]["events"] == full["events"]
    assert out["state"]["fabric"] == full["fabric"]


# -- parameter validation -----------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        OpenmxParams(nhosts=1)
    with pytest.raises(ValueError):
        OpenmxParams(latency_ns=0)
    with pytest.raises(ValueError):
        OpenmxParams(window=0)
    with pytest.raises(ValueError):
        OpenmxParams(fault=SeededFaultPlan(seed=1, delay_quantum_ns=2_000,
                                           max_delay_quanta=10**6))


def test_canned_params_shapes():
    quick = openmx_params(quick=True)
    full = openmx_params(quick=False)
    assert quick.nhosts == full.nhosts == 16
    assert quick.rounds < full.rounds
    assert openmx_params(fault_seed=3).fault is not None


# -- builder sub-cluster construction -----------------------------------------

def test_builder_shard_plan_builds_only_local_hosts():
    plan = partition_hosts(5, 2)
    cluster = build_cluster(nhosts=5, shard_plan=plan, shard_id=1,
                            config=OpenMXConfig())
    assert cluster.host_ids == plan.shards[1]
    assert len(cluster.nodes) == len(plan.shards[1])
    for h, node in zip(cluster.host_ids, cluster.nodes):
        # Global names survive sharding — NIC addresses must match the
        # serial build exactly or cross-shard routing breaks.
        assert node.host.nic.address == nic_address(h)
        assert cluster.node(h) is node


def test_builder_rejects_fault_without_plan_and_plan_mismatch():
    with pytest.raises(ValueError):
        build_cluster(nhosts=2, shard_fault=SeededFaultPlan(seed=1))
    with pytest.raises(ValueError):
        build_cluster(nhosts=3, shard_plan=partition_hosts(4, 2))


def test_openmx_sim_state_shape():
    state = openmx_sim_state(quick=True, shards=2, mode="inline")
    assert state["schema"] == "repro.openmx-shard.sim/v1"
    assert state["shards"] == 2
    for leg in ("clean", "chaos"):
        assert set(state[leg]) == {"now_ns", "events", "hosts", "fabric",
                                   "digest"}
        assert len(state[leg]["hosts"]) == openmx_params(quick=True).nhosts
    assert state["clean"]["digest"] != state["chaos"]["digest"]


def test_openmx_shard_end_state_is_partition_independent_shape():
    plan = partition_hosts(SMALL.nhosts, 2)
    shard = OpenmxShard(0, plan, SMALL)
    shard.run_window(10_000)
    state = shard.end_state()
    assert set(state) == {"now_ns", "events", "hosts", "fabric"}
    assert set(state["fabric"]) == {"carried", "dropped", "duplicated",
                                    "delayed", "delivered"}


# -- shard-count resolution (--shards auto) -----------------------------------

def test_resolve_shards_accepts_ints_and_strings():
    assert resolve_shards(3) == 3
    assert resolve_shards("2") == 2
    with pytest.raises(ValueError):
        resolve_shards("0")
    with pytest.raises(ValueError):
        resolve_shards("lots")


def test_resolve_shards_auto_caps_at_host_cores():
    cores = host_core_count()
    assert cores >= 1
    auto = resolve_shards("auto", default=4)
    assert auto == max(1, min(4, cores))
    assert resolve_shards("auto", default=1) == 1
