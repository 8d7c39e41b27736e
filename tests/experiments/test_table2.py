"""Table 2's (application, mode) cells fan out without changing a byte."""

from repro.experiments.cache import ResultCache
from repro.experiments.table2 import (Table2Row, _collective_time,
                                      _improvement, _is_time, run_table2)
from repro.obs.metrics import MetricRegistry, use_registry
from repro.openmx import PinningMode
from repro.util.units import KIB
from repro.workloads import IsConfig

GRID = {"benchmarks": ["SendRecv", "Allreduce"], "sizes": [64 * KIB],
        "is_config": IsConfig(total_keys=1 << 16, iterations=1)}

MODES = (PinningMode.PIN_PER_COMM, PinningMode.CACHE, PinningMode.OVERLAP)

# Host wall-clock readings of the engine: they differ between any two runs.
HOST_TIME_METRICS = ("sim_wall_time_us", "sim_events_per_sec")


def _run(**kwargs):
    registry = MetricRegistry()
    with use_registry(registry):
        rows = run_table2(**GRID, **kwargs)
    snapshot = registry.snapshot()
    for name in HOST_TIME_METRICS:
        snapshot["metrics"].pop(name)
    return rows, snapshot


def test_fanned_out_cells_match_serial_rows_and_metrics():
    serial_rows, serial_snapshot = _run(jobs=1)
    forked_rows, forked_snapshot = _run(jobs=2)
    assert forked_rows == serial_rows
    assert forked_snapshot == serial_snapshot
    assert serial_snapshot["metrics"]["sim_events_processed"]["samples"]


def test_rows_are_built_from_their_own_cells():
    rows, _ = _run()
    expected = [(f"IMB {name}",
                 [_collective_time(name, m, GRID["sizes"]) for m in MODES])
                for name in GRID["benchmarks"]]
    expected.append(("NPB is (scaled C.4)",
                     [_is_time(m, GRID["is_config"]) for m in MODES]))
    assert rows == [Table2Row(label, _improvement(base, cached),
                              _improvement(base, overlapped))
                    for label, (base, cached, overlapped) in expected]


def test_cache_replays_every_cell(tmp_path):
    cold = ResultCache(tmp_path)
    rows, snapshot = _run(cache=cold)
    assert (cold.hits, cold.misses) == (0, 9)
    warm = ResultCache(tmp_path)
    assert _run(cache=warm) == (rows, snapshot)
    assert (warm.hits, warm.misses) == (9, 0)
