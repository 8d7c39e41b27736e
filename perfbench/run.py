"""Benchmark entry point: the paper's reproduction, timed end to end.

One workload, one run; the last stdout line is the JSON result::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 20 --trace 0

Every workload in turn, as a table of each metric with its unit::

    python3 perfbench/run.py --all [--trace 1]

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and reports its per-layer
metrics.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402  (needs the path above)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time the paper reproduction end to end.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary table")
    # Every workload is a fixed grid of the paper with committed goldens,
    # so no input depends on the seed; the benchmark interface passes one.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME or --all")
    return args


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    from perfbench.measure import run_workload

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    tally, values = run_workload(args.workload, seconds,
                                 trace=bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_failed_ratio':36s} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table."""
    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                              timeout=300)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode} without a result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        ratio = result["failed"] / result["attempted"]
        rows.append((name, "ops_failed_ratio", ratio,
                     f"({result['failed']} of {result['attempted']} ops)"))
        rows.extend((name, metric, m["value"], m["unit"])
                    for metric, m in result["metrics"].items())
    for workload, metric, value, unit in rows:
        print(f"{workload:12s} {metric:36s} {value:>16.6g} {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run this from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.all:
        return _run_all(args)
    return _run_one(args, json.loads(SPEC.read_text()))


if __name__ == "__main__":
    raise SystemExit(main())
