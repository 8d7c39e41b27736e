"""The ``python -m repro.experiments`` command line fails loudly on bad input.

Each case here must exit before any simulation starts: ``--help`` prints
usage and exits 0, and a typo or invalid value exits 2 instead of being
ignored (which used to run the whole grid).
"""

import pytest

from repro.experiments.__main__ import _parser, main


def exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr()


def test_help_prints_usage_and_exits_zero(capsys):
    code, out = exit_code(["--help"], capsys)
    assert code == 0
    assert out.out.startswith("usage: python -m repro.experiments")
    assert "--jobs" in out.out and "overlap-miss" in out.out


@pytest.mark.parametrize("flag", ["--bogus", "--ful", "--jso"])
def test_unknown_or_abbreviated_flag_exits_two(flag, capsys):
    code, out = exit_code([flag], capsys)
    assert code == 2
    assert "unrecognized arguments" in out.err


@pytest.mark.parametrize("argv", [["--jobs", "0"], ["--jobs", "two"],
                                  ["--shards", "0"], ["--json"]])
def test_invalid_value_exits_two(argv, capsys):
    code, out = exit_code(argv, capsys)
    assert code == 2
    assert argv[0] in out.err


def test_unknown_artifact_exits_two(capsys):
    code, out = exit_code(["table1", "figure9"], capsys)
    assert code == 2
    assert "figure9" in out.err


def test_artifacts_and_flags_interleave():
    args = _parser().parse_intermixed_args(
        ["table1", "--jobs", "3", "overlap_miss", "--cache-dir", "d",
         "--full"])
    assert args.artifacts == ["table1", "overlap_miss"]
    assert (args.jobs, args.cache_dir, args.full) == (3, "d", True)
    assert (args.json, args.metrics, args.shards, args.cache) == \
        (None, None, None, False)
