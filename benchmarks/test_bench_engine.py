"""Benchmark: raw engine dispatch throughput (``repro.sim.bench``).

Unlike the experiment benchmarks this one also carries correctness
assertions: the Timeout free-list must actually engage on the retransmit
idiom, and the A/B harness must report identical event counts for the
frozen seed engine and the current one (the optimization contract — speed
may change, simulated behavior may not).
"""

from pathlib import Path

import pytest

from repro.sim.bench import SCENARIOS, run_benchmarks

from benchmarks.conftest import full_sweep

SEED_ENGINE = Path(__file__).with_name("engine_seed_reference.py")


# Every scenario that runs on one engine (openmx_shard forks PDES shards;
# benchmarks/test_bench_pdes.py covers it).
SINGLE_ENGINE = sorted(n for n, sc in SCENARIOS.items()
                       if sc.swaps != "serial")


def run_scenario(name, quick):
    report = run_benchmarks([name], quick=quick, repeat=1)
    return report["scenarios"][name]


@pytest.mark.parametrize("name", SINGLE_ENGINE)
def test_engine_scenario(run_once, name):
    report = run_once(run_scenario, name, quick=not full_sweep())
    assert report["events"] > 0
    assert report["events_per_sec"] > 0
    print()
    print(f"{name}: {report['events']} events, "
          f"{report['events_per_sec']:,} events/sec, "
          f"{report['timeouts_recycled']} timeouts recycled "
          f"({report['timeouts_reused']} reused)")


def test_timer_churn_engages_free_list():
    # The whole point of the fast path: cancelled retransmit timers are
    # recycled, and later timeout() calls are served from the pool.
    report = run_scenario("timer_churn", quick=True)
    assert report["timeouts_recycled"] > 0
    assert report["timeouts_reused"] > 0


def test_per_scenario_counters_are_scenario_local():
    # Counters in a scenario's report must come from *its own* timed run.
    # condition_fanout cancels its loser timers, so it must report its own
    # recycling — and wheel_storm must show wheel mechanics (cascades from
    # mid-level timers, promotions off the overflow heap) that the pure
    # short-delay scenarios never trigger.
    fanout = run_scenario("condition_fanout", quick=True)
    assert fanout["timeouts_recycled"] > 0
    assert fanout["timeouts_reused"] > 0

    storm = run_scenario("wheel_storm", quick=True)
    assert storm["timeouts_recycled"] > 0
    assert storm["wheel_ticks"] > 0
    assert storm["wheel_cascades"] > 0
    assert storm["wheel_promotions"] > 0

    pingpong = run_scenario("event_pingpong", quick=True)
    assert pingpong["wheel_ticks"] == 0  # pure ready-FIFO traffic
    assert pingpong["timeouts_recycled"] == 0


def test_ab_reference_agrees_on_event_counts(run_once):
    # The A/B raises SystemExit if the seed engine and the current engine
    # disagree on any scenario's event count — the determinism guardrail.
    # With no scenario named it runs every one the seed engine fits.
    report = run_once(run_benchmarks, quick=True, repeat=1,
                      ref=str(SEED_ENGINE))
    assert sorted(report["scenarios"]) == sorted(
        n for n, sc in SCENARIOS.items() if sc.swaps == "Environment")
    assert report["total"]["events"] > 0
    assert report["total"]["speedup"] > 0
    print()
    for name, row in report["scenarios"].items():
        print(f"{name}: {row['speedup']:.2f}x vs seed engine")
    print(f"total: {report['total']['speedup']:.2f}x")
