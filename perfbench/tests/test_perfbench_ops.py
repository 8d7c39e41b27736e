import math
import time

import pytest

from perfbench.measure import BuildTimer, Runner
from perfbench.ops import DeadlineExceeded, Op, Tally, check, deadline, dig
from perfbench.workloads import Workload


# Module-level so the fan-out pass can hand them to worker processes.
def answer():
    return {"value": 0.1 + 0.2, "label": "x"}


def off_by_one_ulp():
    return {"value": math.nextafter(0.1 + 0.2, 1.0), "label": "x"}


def boom():
    raise RuntimeError("injected failure")


def wedged():
    time.sleep(30)


GOLDEN = {"value": 0.1 + 0.2, "label": "x"}


def _runner(ops, op_deadline_s=0.5):
    wl = Workload("test", tuple(ops), op_deadline_s=op_deadline_s, pair_s=1.0)
    tally = Tally()
    return Runner(wl, tally, time.perf_counter() + 60, BuildTimer()), tally


def test_dig_follows_indexes_keys_and_attributes():
    class Result:
        hit_rate = 0.5

    assert dig({"a": [10, {"b": Result()}]}, ("a", 1, "b", "hit_rate")) == 0.5
    assert dig([1, 2], ()) == [1, 2]


def test_check_is_exact_on_the_json_form():
    op = Op("exact", answer, expect=(((), GOLDEN),))
    assert check(op, answer(), {}) is None
    assert check(op, (0.1 + 0.2, "x"), {}) is not None
    mismatch = check(Op("m", answer, expect=((("value",), 0.3),)), answer(), {})
    assert "golden 0.3" in mismatch


def test_check_against_a_serial_twin():
    op = Op("sharded", answer, twin="serial", twin_path=("state",))
    assert "no result" in check(op, {"state": 1}, {})
    assert check(op, {"state": {"d": 1}}, {"serial": {"state": {"d": 1}}}) is None
    assert check(op, {"state": {"d": 2}}, {"serial": {"state": {"d": 1}}})


def test_deadline_interrupts_a_blocking_call():
    start = time.perf_counter()
    with pytest.raises(DeadlineExceeded):
        with deadline(0.2):
            time.sleep(5)
    assert time.perf_counter() - start < 2
    with pytest.raises(DeadlineExceeded):
        with deadline(0):
            pass


@pytest.mark.parametrize("registry", [None, "ambient"])
def test_serial_pass_counts_mismatch_raise_and_timeout(registry):
    from repro.obs import MetricRegistry

    ops = [Op("good", answer, expect=(((), GOLDEN),)),
           Op("mismatch", off_by_one_ulp, expect=(((), GOLDEN),)),
           Op("raises", boom, expect=(((), GOLDEN),)),
           Op("wedged", wedged, expect=(((), GOLDEN),)),
           Op("after", answer, expect=(((), GOLDEN),))]
    runner, tally = _runner(ops)
    start = time.perf_counter()
    out = runner.serial_pass(tuple(ops), registry=(
        MetricRegistry() if registry else None))
    assert time.perf_counter() - start < 5
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.timed_out
    assert sorted(out.results) == ["after", "good"]
    assert len(out.op_walls) == 5
    reasons = "\n".join(tally.reasons)
    assert "mismatch: result[]" in reasons
    assert "raises: raised RuntimeError: injected failure" in reasons
    assert "wedged: ran past its 0.5 s deadline" in reasons


def test_a_wedged_fan_out_worker_fails_the_pass_instead_of_hanging():
    ops = [Op("good", answer, expect=(((), GOLDEN),)),
           Op("wedged", wedged, expect=(((), GOLDEN),))]
    runner, tally = _runner(ops, op_deadline_s=1.0)
    start = time.perf_counter()
    out = runner.fanout_pass(tuple(ops))
    assert time.perf_counter() - start < 10
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.timed_out and out.results == {}


def test_fan_out_pass_checks_every_result():
    ops = [Op("good", answer, expect=(((), GOLDEN),)),
           Op("mismatch", off_by_one_ulp, expect=(((), GOLDEN),))]
    runner, tally = _runner(ops, op_deadline_s=20.0)
    out = runner.fanout_pass(tuple(ops))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert list(out.results) == ["good"]
    assert not tally.timed_out


def test_no_op_starts_once_the_run_is_out_of_time():
    ops = [Op("late", answer, expect=(((), GOLDEN),))]
    runner, tally = _runner(ops)
    runner.stop_at = time.perf_counter() - 1
    runner.serial_pass(tuple(ops))
    assert tally.failed == 1 and "no time left" in tally.reasons[0]


def test_a_twin_anywhere_in_the_pass_is_the_golden():
    ops = [Op("sharded", answer, twin="serial", twin_path=("value",)),
           Op("serial", answer),
           Op("diverged", off_by_one_ulp, twin="serial", twin_path=("value",)),
           Op("orphan", answer, twin="missing")]
    runner, tally = _runner(ops)
    out = runner.serial_pass(tuple(ops))
    assert sorted(out.results) == ["serial", "sharded"]
    assert (tally.attempted, tally.failed) == (4, 2)
    assert any("no result from serial twin missing" in r for r in tally.reasons)
