"""Tests for the NPB IS skeleton."""

import pytest

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.workloads import IsConfig, npb_is, run_is


def make_cluster(mode=PinningMode.CACHE):
    return build_cluster(nhosts=2, procs_per_host=2,
                         config=OpenMXConfig(pinning_mode=mode, use_ioat=True))


def test_is_runs_and_verifies():
    result = run_is(make_cluster(), IsConfig(total_keys=1 << 18, iterations=2))
    assert result.verified is True
    assert result.nranks == 4
    assert result.elapsed_ns > 0
    assert result.per_iteration_ns == result.elapsed_ns / 2


def test_is_deterministic():
    cfg = IsConfig(total_keys=1 << 18, iterations=2)
    r1 = run_is(make_cluster(), cfg)
    r2 = run_is(make_cluster(), cfg)
    assert r1.elapsed_ns == r2.elapsed_ns


def test_is_moves_real_bytes_through_alltoall():
    cluster = make_cluster()
    run_is(cluster, IsConfig(total_keys=1 << 18, iterations=1))
    moved = sum(node.driver.counters["pull_bytes"] for node in cluster.nodes)
    # 4 ranks exchange (size-1)/size of their keys via rendezvous; most of
    # the key volume crosses the large-message path.
    assert moved > (1 << 18)  # at least 1 byte per key went rendezvous


def test_is_scales_with_problem_size():
    small = run_is(make_cluster(), IsConfig(total_keys=1 << 17, iterations=1))
    large = run_is(make_cluster(), IsConfig(total_keys=1 << 19, iterations=1))
    assert large.elapsed_ns > 2 * small.elapsed_ns


def test_is_two_ranks():
    cluster = build_cluster(nhosts=2, procs_per_host=1,
                            config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    result = run_is(cluster, IsConfig(total_keys=1 << 16, iterations=1))
    assert result.verified
    assert result.nranks == 2


def test_is_verification_catches_a_corrupted_exchange(monkeypatch):
    real_alltoall = npb_is.alltoall

    def corrupting_alltoall(rc, send_va, recv_va, chunk_bytes):
        yield from real_alltoall(rc, send_va, recv_va, chunk_bytes)
        if rc.rank == 0:
            # Keys stay below size * 1000, so this is never a real key.
            rc.write(recv_va, b"\xff\xff\xff\xff")

    monkeypatch.setattr(npb_is, "alltoall", corrupting_alltoall)
    result = run_is(make_cluster(), IsConfig(total_keys=1 << 16, iterations=1))
    assert result.verified is False
