import random

import pytest

from perfbench.registry_view import (bucket_percentile, label_sum,
                                     layer_counts, merged_histogram)
from repro.obs import MetricRegistry


def _observed(values_by_host):
    registry = MetricRegistry()
    family = registry.histogram("lat_ns", labelnames=("host",))
    for host, values in values_by_host.items():
        for v in values:
            family.labels(host=host).observe(v)
    return registry.snapshot()


def test_percentile_from_buckets_matches_the_registry_estimate():
    rng = random.Random(3)
    values = [rng.randrange(1, 5_000_000) for _ in range(500)]
    snapshot = _observed({"a": values[:200], "b": values[200:]})
    # One unlabelled histogram holding every value: without retained raw
    # samples the registry answers from the same log2 buckets.
    reference = MetricRegistry().histogram("all")
    for v in values:
        reference.observe(v)
    merged = merged_histogram(snapshot, "lat_ns")
    assert merged["count"] == 500
    assert merged["min"] == min(values) and merged["max"] == max(values)
    for p in (0, 1, 50, 90, 99, 100):
        assert bucket_percentile(merged, p) == reference.percentile(p)


def test_percentile_interpolates_inside_one_bucket_and_clamps():
    hist = {"count": 4, "min": 5, "max": 8, "buckets": {8: 4}}
    # Bucket (4, 8]: rank 2 of 4 sits half way, rank 1 clamps to min.
    assert bucket_percentile(hist, 50) == 6.0
    assert bucket_percentile(hist, 1) == 5.0
    assert bucket_percentile(hist, 100) == 8.0


def test_percentile_of_nothing_is_zero_and_range_is_checked():
    empty = merged_histogram({"metrics": {}}, "missing")
    assert empty["count"] == 0
    assert bucket_percentile(empty, 99) == 0.0
    with pytest.raises(ValueError):
        bucket_percentile(empty, 101)


def test_label_sum_adds_every_child_and_missing_is_zero():
    registry = MetricRegistry()
    frames = registry.counter("nic_tx_frames", labelnames=("nic",))
    frames.labels(nic="h0").inc(3)
    frames.labels(nic="h1").inc(4)
    snapshot = registry.snapshot()
    assert label_sum(snapshot, "nic_tx_frames") == 7
    assert label_sum(snapshot, "not_registered") == 0


def test_layer_counts_derives_ratios_and_sums():
    registry = MetricRegistry()
    for host, hits, misses in (("h0", 3, 1), ("h1", 0, 4)):
        registry.counter("omx_region_cache_hit", labelnames=("host",)) \
            .labels(host=host).inc(hits)
        registry.counter("omx_region_cache_miss", labelnames=("host",)) \
            .labels(host=host).inc(misses)
    registry.counter("omx_overlap_miss_recv", labelnames=("host",)) \
        .labels(host="h0").inc(2)
    registry.counter("omx_overlap_miss_send", labelnames=("host",)) \
        .labels(host="h1").inc(5)
    counts = layer_counts(registry.snapshot())
    assert counts["openmx.region_cache_hit_ratio"] == 3 / 8
    assert counts["openmx.overlap_misses"] == 7
    assert counts["kernel.pin_calls"] == 0
    assert counts["pdes.windows"] == 0
