import cProfile

import pytest

from perfbench.attribution import LAYERS, attribute, layer_of, profile_stats

ENGINE = ("/c/src/repro/sim/engine.py", 10, "run")
NPB = ("/c/src/repro/workloads/npb_is.py", 20, "rank_keys")
DRIVER = ("/c/src/repro/openmx/driver.py", 30, "pull_reply")
ARGSORT = ("~", 0, "<method 'argsort' of 'numpy.ndarray' objects>")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB = ("/usr/lib/python3/bisect_helper.py", 5, "helper")
LEN = ("~", 0, "<built-in method builtins.len>")


def _entry(tt, ncalls, callers):
    """A pstats row: (pcalls, calls, self, cumulative, callers)."""
    return (ncalls, ncalls, tt, tt, callers)


def _edge(tt, ncalls):
    return (ncalls, ncalls, tt, tt)


@pytest.mark.parametrize("path,layer", [
    ("/c/src/repro/sim/engine.py", "sim"),
    ("/c/src/repro/openmx/pin_manager.py", "openmx"),
    ("/c/src/repro/experiments/parallel.py", "experiments"),
    ("/c/src/repro/util/units.py", "other"),
    ("/c/src/repro/__init__.py", "other"),
    ("/home/u/repro/src/repro/kernel/pinning.py", "kernel"),
    ("/usr/lib/python3.11/heapq.py", None),
    ("~", None),
    ("/c/perfbench/measure.py", None),
])
def test_layer_of(path, layer):
    assert layer_of(path) == layer


def test_builtins_are_charged_to_the_calling_layer():
    stats = {
        ENGINE: _entry(1.0, 10, {}),
        NPB: _entry(0.5, 4, {}),
        ARGSORT: _entry(3.0, 4, {NPB: _edge(3.0, 4)}),
        HEAPPUSH: _entry(0.4, 100, {ENGINE: _edge(0.4, 100)}),
    }
    split = attribute(stats)
    assert split["self_s"]["workloads"] == pytest.approx(3.5)
    assert split["self_s"]["sim"] == pytest.approx(1.4)
    assert split["calls"]["workloads"] == pytest.approx(8)
    assert split["calls"]["sim"] == pytest.approx(110)
    assert split["self_s"]["other"] == 0.0


def test_a_builtin_shared_by_two_layers_splits_along_its_caller_edges():
    stats = {
        ENGINE: _entry(0.0, 1, {}),
        DRIVER: _entry(0.0, 1, {}),
        LEN: _entry(1.0, 40, {ENGINE: _edge(0.25, 30),
                              DRIVER: _edge(0.75, 10)}),
    }
    split = attribute(stats)
    assert split["self_s"]["sim"] == pytest.approx(0.25)
    assert split["self_s"]["openmx"] == pytest.approx(0.75)
    # Each caller's own call plus its edge's calls to len().
    assert split["calls"]["sim"] == pytest.approx(1 + 30)
    assert split["calls"]["openmx"] == pytest.approx(1 + 10)


def test_charging_walks_up_through_non_repro_python_frames():
    # len() <- stdlib helper <- openmx driver: both land in openmx.
    stats = {
        DRIVER: _entry(0.1, 1, {}),
        STDLIB: _entry(0.2, 2, {DRIVER: _edge(0.2, 2)}),
        LEN: _entry(0.3, 6, {STDLIB: _edge(0.3, 6)}),
    }
    split = attribute(stats)
    assert split["self_s"]["openmx"] == pytest.approx(0.6)
    assert sum(split["self_s"].values()) == pytest.approx(0.6)


def test_time_without_a_repro_caller_is_other_even_in_a_cycle():
    stats = {
        STDLIB: _entry(0.2, 2, {LEN: _edge(0.2, 1)}),
        LEN: _entry(0.3, 3, {STDLIB: _edge(0.3, 3)}),
    }
    split = attribute(stats)
    assert split["self_s"]["other"] == pytest.approx(0.5)
    assert set(split["self_s"]) == set(LAYERS) | {"other"}


def test_a_real_profile_of_one_pingpong_point_splits_across_layers():
    from repro.experiments.figures67 import pingpong_point
    from repro.openmx import PinningMode

    profiler = cProfile.Profile()
    profiler.enable()
    pingpong_point(PinningMode.OVERLAP, False, 64 * 1024)
    profiler.disable()
    split = attribute(profile_stats(profiler))["self_s"]
    for layer in ("sim", "openmx", "kernel", "hw", "cluster", "workloads"):
        assert split[layer] > 0, layer
    assert split["sim"] > split["mpi"]
