"""Benchmark + equivalence guardrails for the VM-layer index change.

The contract under test: the bisect-indexed AddressSpace, the
interval-dispatched notifier index, the prefix-array region geometry and
the fused pin charge must simulate *exactly* the same world as the frozen
linear seed stack (``vm_seed_reference.py``) while dispatching fewer heap
events — and the fused pin path must stand down (slow per-page path, same
timestamps) the moment anything could observe the difference.
"""

import json
from pathlib import Path

from repro.sim import Environment
from repro.sim.bench import SCENARIOS, _vm_churn, run_benchmarks

from benchmarks.conftest import full_sweep

SEED_STACK = Path(__file__).with_name("vm_seed_reference.py")
QUICK_ROUNDS = SCENARIOS["vm_churn"].quick_rounds


def _run(rounds=QUICK_ROUNDS, stack=None):
    env = Environment()
    probe = _vm_churn(env, rounds, stack=stack)
    env.run()
    return probe()


def test_vm_ab_identical_end_state_fewer_events(run_once):
    # The A/B raises SystemExit if the seed stack and the current stack
    # disagree on any simulated end-state field (clock, any per-process
    # counter, any data digest).
    report = run_once(run_benchmarks, ["vm_churn"], ref=str(SEED_STACK),
                      quick=not full_sweep(), repeat=1)
    report = report["scenarios"]["vm_churn"]
    assert report["events"] < report["baseline_events"]
    assert report["event_reduction"] > 0.5
    procs = report["sim_state"]["procs"]
    assert all(p is not None for p in procs)
    # The scenario really exercised the indexed paths on every process.
    assert all(p["faults"] > 0 for p in procs)
    assert all(p["pins"] > 0 for p in procs)
    assert all(p["invalidations"] > 0 for p in procs)
    assert sum(p["notifier_unpins"] for p in procs) > 0
    assert sum(p["reuse_hits"] for p in procs) > 0
    assert sum(p["swapins"] for p in procs) > 0
    assert sum(p["cow_breaks"] for p in procs) > 0
    print()
    print(f"vm_churn: {report['event_reduction']:.1%} fewer events, "
          f"{report['speedup']:.2f}x vs seed stack")


def test_vm_seed_and_current_states_match_directly():
    # Same comparison as the A/B harness, but without timing machinery —
    # a plain double run must land on the identical end state too.
    from benchmarks.vm_seed_reference import STACK

    assert _run(stack=STACK) == _run()


def test_quick_sim_state_matches_committed_reference():
    # The CI drift gate's reference: regenerate and compare exactly — the
    # simulation is deterministic, so equality is the bar, not 2%.
    committed = json.loads(
        Path(__file__).with_name("vm_sim_quick.json").read_text())
    assert _run(rounds=committed["rounds"]) == committed["state"]
