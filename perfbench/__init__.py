"""Benchmark of the paper reproduction: workloads, golden checks, layer split."""
