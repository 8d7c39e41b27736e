"""Benchmark + equivalence guardrails for the data-path coalescing change.

The contract under test: the coalesced TX pump / fabric batch / fused-BH
stack must simulate *exactly* the same world as the frozen per-frame seed
stack (``datapath_seed_reference.py``) while dispatching fewer heap events
— and anything a fault injector can touch must fall back to the historical
per-frame slow path, again without moving a single timestamp or counter.
"""

from pathlib import Path

import pytest

from repro.cluster.network import FrameVerdict
from repro.sim import Environment
from repro.sim.bench import SCENARIOS, _datapath_pull, run_benchmarks

from benchmarks.conftest import full_sweep

SEED_STACK = Path(__file__).with_name("datapath_seed_reference.py")
QUICK_ROUNDS = SCENARIOS["datapath_pull"].quick_rounds


def _run(rounds=3, stack=None, rig=None):
    """Build + run the datapath scenario; return (end state, probe)."""
    env = Environment()
    probe = _datapath_pull(env, rounds, stack=stack)
    if rig is not None:
        rig(probe)
    env.run()
    return probe(), probe


def test_datapath_ab_identical_end_state_fewer_events(run_once):
    # The A/B raises SystemExit if the seed stack and the current stack
    # disagree on any simulated end-state field.
    report = run_once(run_benchmarks, ["datapath_pull"], ref=str(SEED_STACK),
                      quick=not full_sweep(), repeat=1)
    report = report["scenarios"]["datapath_pull"]
    assert report["events"] < report["baseline_events"]
    assert report["event_reduction"] > 0.5
    assert report["sim_state"]["handled_frames"] > 0
    assert report["sim_state"]["ksoftirqd_rounds"] > 0  # budget really trips
    print()
    print(f"datapath_pull: {report['event_reduction']:.1%} fewer events, "
          f"{report['speedup']:.2f}x vs seed stack")


def test_clean_run_takes_fabric_fast_path():
    state, probe = _run()
    assert probe.fabric.frames_batched == state["frames_carried"] > 0


def test_injector_forces_slow_path_identical_results():
    # A fault injector with no opinion on any frame must not change a
    # thing — except which fabric path runs.
    class NoOpinion:
        def on_frame(self, frame, now):
            return None

    clean_state, _ = _run()
    slow_state, probe = _run(
        rig=lambda p: p.fabric.add_fault_injector(NoOpinion()))
    assert probe.fabric.frames_batched == 0
    assert slow_state == clean_state


def test_ring_pressure_forces_per_frame_delivery_identical_results():
    # Phantom RX pressure small enough to cause no drops: delivery must
    # leave the batching path yet land every frame at the same instants.
    clean_state, _ = _run()
    pressured_state, probe = _run(
        rig=lambda p: setattr(p.rx_nic, "ring_pressure", 1))
    assert probe.fabric.frames_batched == 0
    assert pressured_state == clean_state
    assert pressured_state["rx_ring_drops"] == 0


class _DupDelay:
    """Deterministic duplicate + extra-delay injector (no randomness)."""

    def __init__(self):
        self.count = 0

    def on_frame(self, frame, now):
        self.count += 1
        if self.count % 17 == 0:
            return FrameVerdict(duplicate=True)
        if self.count % 13 == 0:
            return FrameVerdict(extra_delay_ns=500)
        return None


def test_faulted_run_matches_seed_stack_bit_for_bit():
    # Duplicates and injected delay take the per-frame slow path on both
    # stacks; the resulting worlds must be indistinguishable.
    from benchmarks.datapath_seed_reference import STACK

    seed_state, _ = _run(stack=STACK,
                         rig=lambda p: p.fabric.add_fault_injector(_DupDelay()))
    cur_state, probe = _run(
        rig=lambda p: p.fabric.add_fault_injector(_DupDelay()))
    assert probe.fabric.frames_batched == 0
    assert cur_state == seed_state
    # The injector really fired: duplicates inflate RX over TX.
    assert cur_state["rx_frames"] > cur_state["tx_frames"]


def test_quick_sim_state_matches_committed_reference():
    # The CI drift gate's reference: regenerate and compare exactly —
    # the simulation is deterministic, so equality is the bar, not 2%.
    import json

    committed = json.loads(
        Path(__file__).with_name("datapath_sim_quick.json").read_text())
    state, _ = _run(rounds=QUICK_ROUNDS)
    assert state == committed["state"]
