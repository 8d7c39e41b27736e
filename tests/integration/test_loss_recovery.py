"""Loss injection: the pull protocol and eager reliability must recover
from dropped frames with byte-exact delivery (drops are also the overlap
miss recovery mechanism, so this machinery is load-bearing)."""

import pytest

from repro.cluster import build_cluster
from repro.faults import DropNth, FrameMatch, PeriodicDrop
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import KIB, MIB, MILLISECOND


def run_transfer(cluster, nbytes, tag=1):
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = bytes((i * 37) % 256 for i in range(nbytes))
    sp.write(sbuf, data)

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, nbytes, tag)
        yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    assert rp.read(rbuf, nbytes) == data


@pytest.mark.parametrize("drops", [{3}, {1, 2}, {5, 6, 7}])
def test_pull_reply_loss_recovered_optimistically(drops):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    model = DropNth(drops, match=FrameMatch(kinds=("PullReply",)))
    cluster.fabric.add_fault_injector(model)
    run_transfer(cluster, 2 * MIB)
    counters = cluster.nodes[1].driver.counters
    assert counters["pull_rerequest"] >= 1
    assert model.injected == len(drops)
    # Recovery happened without burning the 1 s retransmission timeout.
    assert cluster.env.now < 500 * MILLISECOND


def test_adversarial_periodic_loss_still_delivers():
    """Every third reply dropped — including retransmissions of the same
    chunk.  Timeout-based recovery is legitimate here; delivery must still
    be byte-exact."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        PeriodicDrop(3, phase=1, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, 2 * MIB)
    assert cluster.nodes[1].driver.counters["pull_rerequest"] >= 1


def test_pull_request_loss_recovered():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    cluster.fabric.add_fault_injector(
        DropNth({1}, match=FrameMatch(kinds=("PullRequest",)))
    )
    run_transfer(cluster, 1 * MIB)


def test_tail_loss_recovered_by_timeout():
    """Dropping the final replies leaves no later packet to reveal the gap;
    only the fallback timer can recover (hence the paper's 1 s timeout)."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    nbytes = 256 * KIB  # 32 chunks
    cluster.fabric.add_fault_injector(
        DropNth({31, 32}, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, nbytes)
    assert cluster.nodes[1].driver.counters["pull_timeout_resend"] >= 1


def test_eager_fragment_loss_recovered_by_retransmit():
    cluster = build_cluster(
        config=OpenMXConfig(resend_timeout_ns=2 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        DropNth({2}, match=FrameMatch(kinds=("EagerFrag",)))
    )
    run_transfer(cluster, 24 * KIB)  # 3 eager fragments
    assert cluster.nodes[0].driver.counters["eager_retransmit"] >= 1


def test_eager_duplicate_after_liback_loss_is_deduplicated():
    cluster = build_cluster(
        config=OpenMXConfig(resend_timeout_ns=2 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        DropNth({1}, match=FrameMatch(kinds=("Liback",)))
    )
    run_transfer(cluster, 8 * KIB)
    # The eager send completed locally before the liback was due; keep the
    # simulation running so the retransmission and re-ack play out.
    cluster.env.run(until=cluster.env.now + 10 * MILLISECOND)
    counters = cluster.nodes[1].driver.counters
    assert counters["eager_duplicate"] >= 1
    assert counters["eager_received"] == 1  # delivered exactly once


def test_repeated_heavy_loss_still_delivers():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    # Drop every 7th data frame for the whole run.
    cluster.fabric.add_fault_injector(
        PeriodicDrop(7, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, 4 * MIB)


def test_custom_on_frame_injector_drops_third_pull_reply():
    """Any object with ``on_frame(frame, now)`` is a fault injector; a
    hand-written one that drops the 3rd PullReply forces a re-request."""
    from repro.cluster.network import FrameVerdict
    from repro.openmx import PullReply

    class DropThirdPullReply:
        def __init__(self):
            self.seen = 0

        def on_frame(self, frame, now):
            if not isinstance(frame.payload, PullReply):
                return None
            self.seen += 1
            return FrameVerdict(drop=True) if self.seen == 3 else None

    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    injector = DropThirdPullReply()
    cluster.fabric.add_fault_injector(injector)
    run_transfer(cluster, 1 * MIB)
    assert injector.seen >= 3
    assert cluster.fabric.frames_dropped == 1
    assert cluster.nodes[1].driver.counters["pull_rerequest"] >= 1
