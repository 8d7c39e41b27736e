"""Simulated-domain layer metrics read from a ``MetricRegistry`` snapshot.

Only the public snapshot schema (``repro.obs/v1``) is read.  Label
children are summed, and a histogram's percentiles are taken from its
log2 buckets merged across every label child, so they do not depend on
which raw samples a child happened to retain.
"""

from __future__ import annotations

from typing import Any

__all__ = ["bucket_percentile", "label_sum", "layer_counts", "merged_histogram"]


def _samples(snapshot: dict[str, Any], name: str) -> list[dict[str, Any]]:
    family = snapshot["metrics"].get(name)
    return family["samples"] if family is not None else []


def label_sum(snapshot: dict[str, Any], name: str) -> float:
    """Sum of a counter's or gauge's value over all its label children."""
    return sum(s["value"] for s in _samples(snapshot, name))


def merged_histogram(snapshot: dict[str, Any], name: str) -> dict[str, Any]:
    """One histogram from all label children: count, min, max, buckets."""
    buckets: dict[int, int] = {}
    count = 0
    lo = hi = None
    for s in _samples(snapshot, name):
        if not s["count"]:
            continue
        count += s["count"]
        lo = s["min"] if lo is None else min(lo, s["min"])
        hi = s["max"] if hi is None else max(hi, s["max"])
        for bound, n in s["buckets"].items():
            buckets[int(bound)] = buckets.get(int(bound), 0) + n
    return {"count": count, "min": lo or 0, "max": hi or 0, "buckets": buckets}


def bucket_percentile(hist: dict[str, Any], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) from log2 buckets.

    A bucket with upper bound ``b`` holds values in ``(b/2, b]``; the rank
    is placed linearly inside its bucket and clamped to the observed
    min/max — the estimate the registry itself gives once raw samples
    have been evicted.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    count = hist["count"]
    if count == 0:
        return 0.0
    target = max(1, -(-count * p // 100))
    cumulative = 0
    for bound in sorted(hist["buckets"]):
        n = hist["buckets"][bound]
        if cumulative + n >= target:
            lo = bound // 2 if bound > 1 else 0
            estimate = lo + (bound - lo) * (target - cumulative) / n
            return float(min(max(estimate, hist["min"]), hist["max"]))
        cumulative += n
    return float(hist["max"])


def layer_counts(snapshot: dict[str, Any]) -> dict[str, float]:
    """The per-layer simulated-domain metrics of one pass's snapshot."""
    def total(*names: str) -> float:
        return sum(label_sum(snapshot, n) for n in names)

    pin = merged_histogram(snapshot, "kernel_pin_latency_ns")
    pin_wait = merged_histogram(snapshot, "omx_pin_wait_ns")
    hits = total("omx_region_cache_hit")
    lookups = hits + total("omx_region_cache_miss")
    return {
        "sim.events": total("sim_events_processed"),
        "sim.wheel_cascades": total("sim_wheel_cascades"),
        "kernel.pin_calls": pin["count"],
        "kernel.pin_latency_ns.p50": bucket_percentile(pin, 50),
        "kernel.pin_latency_ns.p99": bucket_percentile(pin, 99),
        "kernel.softirq_bh_runs": total("softirq_bh_runs"),
        "kernel.ksoftirqd_rounds": total("softirq_ksoftirqd_rounds"),
        "openmx.region_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "openmx.region_cache_evict": total("omx_region_cache_evict"),
        "openmx.invalidate_unpinned": total("omx_invalidate_unpinned"),
        "openmx.overlap_misses": total("omx_overlap_miss_recv",
                                       "omx_overlap_miss_send"),
        "openmx.pull_retransmits": total("omx_pull_rerequest",
                                         "omx_pull_timeout_resend"),
        "openmx.pull_reply_duplicate": total("omx_pull_reply_duplicate"),
        "openmx.pin_wait_ns.p50": bucket_percentile(pin_wait, 50),
        "openmx.pin_wait_ns.p99": bucket_percentile(pin_wait, 99),
        "hw.nic_tx_frames": total("nic_tx_frames"),
        "hw.nic_rx_ring_drops": total("nic_rx_ring_drops"),
        "cluster.fabric_frames_carried": total("fabric_frames_carried"),
        "cluster.fabric_frames_dropped": total("fabric_frames_dropped"),
        "pdes.windows": total("pdes_windows"),
        "pdes.cross_shard_frames": total("pdes_frames_cross_shard"),
    }
