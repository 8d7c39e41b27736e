"""The ``python -m repro.sim.bench`` command line.

Bad input exits 2 before any scenario runs, ``--state-json`` reproduces
the committed drift references byte for byte, every named scenario lands
in the ``--json`` report, and a reference that simulates a different
world aborts the A/B naming every differing leaf.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim import bench
from repro.sim.bench import SCENARIOS, main
from repro.sim.openmx_shard import OpenmxParams, openmx_params
from repro.sim.pdes import host_core_count

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
ENGINE_REF = str(BENCHMARKS / "engine_seed_reference.py")
VM_REF = str(BENCHMARKS / "vm_seed_reference.py")

# A datapath stack whose sender NICs each lose their first frame.
DROPPING_STACK = '''
from repro.cluster.network import Fabric
from repro.hw.nic import EthernetFrame, Nic
from repro.kernel.interrupts import SoftirqEngine


class DropFirstNic(Nic):
    dropped = False

    def send(self, frame):
        if self.dropped:
            super().send(frame)
        else:
            self.dropped = True


STACK = {"EthernetFrame": EthernetFrame, "Nic": DropFirstNic,
         "Fabric": Fabric, "SoftirqEngine": SoftirqEngine}
'''


def exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr()


def test_help_lists_exactly_six_flags(capsys):
    flags = {opt for action in bench._parser()._actions
             for opt in action.option_strings}
    assert flags == {"-h", "--help", "--quick", "--repeat", "--json", "--ab",
                     "--shards", "--state-json"}
    code, out = exit_code(["--help"], capsys)
    assert code == 0
    assert out.out.startswith("usage: python -m repro.sim.bench")


@pytest.mark.parametrize("argv, needle", [
    pytest.param(["--repeat", "0"], "--repeat", id="repeat-0"),
    pytest.param(["--repeat", "-1", "--ab", ENGINE_REF], "--repeat",
                 id="repeat-negative-ab"),
    pytest.param(["--shards", "0"], "--shards", id="shards-0"),
    pytest.param(["--shards", "x"], "--shards", id="shards-x"),
    pytest.param(["--state-json", "s.json"], "exactly one scenario, got 0",
                 id="state-json-no-scenario"),
    pytest.param(["--state-json", "s.json", "datapath_pull", "vm_churn"],
                 "exactly one scenario, got 2", id="state-json-two"),
    pytest.param(["--state-json", "s.json", "timer_churn"],
                 "timer_churn has no state schema", id="state-json-no-schema"),
    pytest.param(["--state-json", "s.json", "--ab", VM_REF, "vm_churn"],
                 "--state-json writes the end state only",
                 id="state-json-with-ab"),
    pytest.param(["--quick", "--ab", ENGINE_REF, "datapath_pull"],
                 f"datapath_pull: swaps STACK, but {ENGINE_REF} exports "
                 "Environment", id="engine-ref-datapath"),
    pytest.param(["--quick", "--ab", VM_REF, "datapath_pull"],
                 f"{VM_REF}'s STACK lacks", id="vm-stack-datapath"),
    pytest.param(["--quick", "--repeat", "1", "--ab", ENGINE_REF,
                  "openmx_shard"],
                 "openmx_shard: its reference (the in-process serial run) "
                 "is built in", id="ref-with-openmx-shard"),
    pytest.param(["--ab", "missing_reference.py"], "missing_reference.py",
                 id="ab-missing-file"),
    pytest.param(["--quick", "timer_churn", "bogus"],
                 "unknown scenario(s) ['bogus']", id="unknown-scenario"),
])
def test_bad_input_exits_two_before_running(argv, needle, capsys, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = exit_code(argv, capsys)
    assert code == 2
    assert needle in out.err
    assert out.out == ""
    assert not list(tmp_path.iterdir())


def test_shards_auto_caps_at_host_cores():
    args = bench._parser().parse_intermixed_args(
        ["--shards", "auto", "openmx_shard"])
    assert args.shards == max(1, min(4, host_core_count()))
    assert args.scenario == ["openmx_shard"]


@pytest.mark.parametrize("name, committed", [
    ("datapath_pull", "datapath_sim_quick.json"),
    ("vm_churn", "vm_sim_quick.json"),
])
def test_quick_state_json_matches_committed_bytes(name, committed, tmp_path):
    out = tmp_path / "state.json"
    assert main(["--quick", "--state-json", str(out), name]) == 0
    assert out.read_bytes() == (BENCHMARKS / committed).read_bytes()


def test_openmx_scenario_rounds_match_the_canned_params():
    # --state-json openmx_shard goes through openmx_params(quick=...), the
    # A/B through the table: both must describe the same scenario.
    sc = SCENARIOS["openmx_shard"]
    for quick in (False, True):
        assert sc.build(sc.rounds_for(quick)) == openmx_params(quick=quick)


def test_every_named_scenario_lands_in_the_json_report(tmp_path,
                                                       monkeypatch, capsys):
    # Four hosts keep the forked serial-vs-sharded A/B well under a second.
    monkeypatch.setitem(SCENARIOS, "openmx_shard", replace(
        SCENARIOS["openmx_shard"],
        build=lambda rounds: OpenmxParams(nhosts=4, rounds=rounds)))
    out = tmp_path / "report.json"
    assert main(["--quick", "--repeat", "1", "--shards", "2", "openmx_shard",
                 "timer_churn", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert sorted(report["scenarios"]) == ["openmx_shard", "timer_churn"]
    omx = report["scenarios"]["openmx_shard"]
    assert (omx["nhosts"], omx["shards"]) == (4, 2)
    assert omx["events"] == omx["baseline_events"]
    assert sorted(omx["strategies"]) == ["affinity", "block", "stripe"]
    assert "timer_churn" in capsys.readouterr().out


def test_divergent_reference_aborts_naming_the_leaf(tmp_path, capsys):
    ref = tmp_path / "dropping_stack.py"
    ref.write_text(DROPPING_STACK)
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "--repeat", "1", "--ab", str(ref), "datapath_pull"])
    message = str(exc.value.code)
    assert message.startswith("datapath_pull: reference and current "
                              "disagree on simulated end state")
    assert "\n  handled_frames: ref=1918 cur=1920" in message
    assert capsys.readouterr().out == ""


def test_state_diff_names_every_differing_leaf():
    ref = {"now_ns": 5, "procs": [{"pins": 1, "faults": 2}, None, {"pins": 3}]}
    cur = {"now_ns": 5, "procs": [{"pins": 1, "faults": 4}, None, {"pins": 7}]}
    assert bench._state_diff(ref, cur) == ["procs[0].faults: ref=2 cur=4",
                                           "procs[2].pins: ref=3 cur=7"]
