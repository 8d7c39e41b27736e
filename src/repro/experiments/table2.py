"""Table 2 — application-level improvement of the pinning cache and of
overlapped pinning on IMB collectives and NPB IS, between 2 nodes.

For every benchmark, three runs: the *regular pinning* baseline
(pin once per communication), the *pinning cache*, and *overlapped
pinning*.  The table reports the percentage execution-time improvement of
each optimization over the baseline, exactly like the paper's Table 2.

Configuration matches the paper's testbed: 2 Xeon E5460 nodes, 4 MPI
processes (is.C.4 runs 4 processes), I/OAT copy offload enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import build_cluster
from repro.experiments.parallel import parallel_map
from repro.openmx import OpenMXConfig, PinningMode
from repro.workloads import IsConfig, imb_collective, run_is
from repro.util.units import KIB, MIB

__all__ = ["Table2Row", "TABLE2_BENCHMARKS", "run_table2"]

TABLE2_BENCHMARKS = [
    "SendRecv",
    "Allgatherv",
    "Broadcast",
    "Reduce",
    "Allreduce",
    "Reduce_scatter",
    "Exchange",
]

# The optimization only touches large (rendezvous) messages, so the
# execution-time comparison runs the IMB large-message range.
TABLE2_SIZES = [256 * KIB, 1 * MIB]


@dataclass(frozen=True)
class Table2Row:
    application: str
    cache_improvement_pct: float
    overlap_improvement_pct: float


def _collective_time(benchmark: str, mode: PinningMode,
                     sizes: list[int]) -> float:
    total = 0.0
    for nbytes in sizes:
        cluster = build_cluster(
            nhosts=2, procs_per_host=2,
            config=OpenMXConfig(pinning_mode=mode, use_ioat=True),
        )
        total += imb_collective(cluster, benchmark, nbytes).per_iter_ns
    return total


def _is_time(mode: PinningMode, is_config: IsConfig) -> float:
    cluster = build_cluster(
        nhosts=2, procs_per_host=2,
        config=OpenMXConfig(pinning_mode=mode, use_ioat=True),
    )
    return float(run_is(cluster, is_config).elapsed_ns)


def _improvement(base: float, opt: float) -> float:
    return 100.0 * (base - opt) / base


# Column order of every row: the baseline, then the two optimizations.
_MODES = (PinningMode.PIN_PER_COMM, PinningMode.CACHE, PinningMode.OVERLAP)


def run_table2(benchmarks: list[str] | None = None,
               sizes: list[int] | None = None,
               include_is: bool = True,
               is_config: IsConfig | None = None,
               *, jobs: int = 1, cache=None) -> list[Table2Row]:
    """Table 2 rows, each (application, mode) cell one ``parallel_map`` task."""
    benchmarks = benchmarks if benchmarks is not None else TABLE2_BENCHMARKS
    sizes = sizes if sizes is not None else TABLE2_SIZES
    labels = [f"IMB {name}" for name in benchmarks]
    tasks = [(_collective_time, {"benchmark": name, "mode": mode,
                                 "sizes": sizes})
             for name in benchmarks for mode in _MODES]
    if include_is:
        cfg = is_config if is_config is not None else IsConfig()
        labels.append("NPB is (scaled C.4)")
        tasks.extend((_is_time, {"mode": mode, "is_config": cfg})
                     for mode in _MODES)
    times = parallel_map(tasks, jobs=jobs, cache=cache)
    rows = []
    for i, label in enumerate(labels):
        base, cached, overlapped = times[3 * i:3 * i + 3]
        rows.append(Table2Row(label, _improvement(base, cached),
                              _improvement(base, overlapped)))
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    from repro.experiments.report import format_table

    return format_table(
        ["Application", "Pinning-cache", "Overlapping"],
        [
            [r.application, f"{r.cache_improvement_pct:+.1f} %",
             f"{r.overlap_improvement_pct:+.1f} %"]
            for r in rows
        ],
        title="Table 2: execution time improvement vs regular pinning (2 nodes)",
    )
