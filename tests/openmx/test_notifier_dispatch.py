"""Interval-dispatched endpoint notifiers vs the linear slow-path oracle.

The driver's ``_EndpointNotifier`` consults an :class:`IntervalIndex` keyed
by region id over segment ranges, so an invalidation touches only regions
it can actually hit.  :func:`_linear_invalidate_range` keeps the historical
scan-every-region dispatch as the reference; swapped in for the indexed
one, it must produce an indistinguishable simulation.
"""

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.driver import _EndpointNotifier
from repro.util.units import KIB


def _linear_invalidate_range(self, start: int, end: int) -> None:
    """Scan every declared region's every segment.

    Region ids are handed out in increasing order and the regions dict
    preserves insertion order, so the indexed dispatch's sorted-rid walk
    visits regions in exactly this order.
    """
    mgr = self.ep.driver.pin_mgr
    for region in self.ep.regions.values():
        if region.watermark == 0 and region.state.value != "pinning":
            continue
        if any(seg.va < end and start < seg.va + seg.length
               for seg in region.segments):
            mgr.invalidated(region)


def _run_workload():
    """Transfers with malloc/free churn + VM pressure; returns the complete
    observable end state."""
    cluster = build_cluster(config=OpenMXConfig(
        pinning_mode=PinningMode.CACHE))
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 128 * KIB
    received = []

    def sender():
        sbuf = sp.malloc(n)
        other = sp.malloc(2 * n)  # second declared region on the endpoint
        sp.write(other, b"o" * 64)
        for tag in range(1, 5):
            data = bytes((i + tag) % 251 for i in range(n))
            sp.write(sbuf, data)
            req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, tag)
            yield from s.wait(req)
            if tag == 1:
                sp.aspace.swap_out(sbuf, n)     # unpins via notifier
            elif tag == 2:
                sp.aspace.cow_duplicate(sbuf, n)
            elif tag == 3:
                sp.free(sbuf)                   # free + same-size malloc:
                sbuf = sp.malloc(n)             # the region cache's hit case

    def receiver():
        rbuf = rp.malloc(n)
        for tag in range(1, 5):
            req = yield from r.irecv(rbuf, n, tag)
            yield from r.wait(req)
            received.append(rp.read(rbuf, n))

    env.run(until=env.all_of(
        [env.process(sender()), env.process(receiver())]))
    return {
        "now_ns": env.now,
        "received": received,
        "counters": [cluster.nodes[i].driver.counters.as_dict()
                     for i in range(2)],
        "invalidations": sp.aspace.notifiers.invalidations,
        "pinned": [cluster.nodes[i].host.memory.pinned_frames
                   for i in range(2)],
        "swapins": sp.aspace.swapins,
        "cow_breaks": sp.aspace.cow_breaks,
    }


def test_indexed_dispatch_matches_linear_oracle_end_to_end(monkeypatch):
    indexed = _run_workload()
    monkeypatch.setattr(_EndpointNotifier, "invalidate_range",
                        _linear_invalidate_range)
    linear = _run_workload()
    assert indexed == linear
    # The workload really drove the notifier path, repins and all.
    assert indexed["invalidations"] > 0
    assert indexed["counters"][0]["invalidate_unpinned"] >= 2
    assert indexed["counters"][0]["region_pinned"] >= 3
    for tag, data in enumerate(indexed["received"], start=1):
        assert data == bytes((i + tag) % 251 for i in range(128 * KIB))
