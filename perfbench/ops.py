"""Ops, their golden checks, per-op deadlines and failure counting.

An *op* is one task a workload lists: a pingpong point, a Table 2 row, a
reuse point, a shard run.  Each op is a module-level callable of the
program plus keyword arguments, so it can run in-process or be handed to
``repro.experiments.parallel.parallel_map``.  An op fails when it raises,
runs past its deadline, or returns a result that is not exactly its
golden.  Failures are counted, never fatal: the benchmark reports
``failed`` out of ``attempted`` and keeps going.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["DeadlineExceeded", "Op", "Tally", "check", "deadline", "dig"]


class DeadlineExceeded(Exception):
    """An op (or a fanned-out pass) ran past its deadline."""


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`DeadlineExceeded` in the body after ``seconds``.

    Uses ``SIGALRM``, so it interrupts pure-Python loops and blocking
    waits (sleep, pipe reads, ``Pool.map``) in the main thread alike.
    """
    if seconds <= 0:
        raise DeadlineExceeded("no time left in the run")

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"ran past its {seconds:.1f} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Op:
    """One task of a workload and what its result must be.

    ``expect`` holds ``(path, value)`` pairs: :func:`dig` follows ``path``
    into the raw result and the JSON form of what it finds must equal
    ``value`` exactly.  An op with a ``twin`` is checked against that
    op's result instead (a sharded run against its serial twin), at
    ``twin_path``.
    """

    id: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    expect: tuple[tuple[tuple, Any], ...] = ()
    twin: str | None = None
    twin_path: tuple = ()

    @property
    def task(self) -> tuple[Callable[..., Any], dict[str, Any]]:
        return (self.fn, self.kwargs)


def dig(obj: Any, path: tuple) -> Any:
    """Follow ``path``: ints and dict keys index, other strings are attributes."""
    for step in path:
        if isinstance(step, int) or isinstance(obj, dict):
            obj = obj[step]
        else:
            obj = getattr(obj, step)
    return obj


def check(op: Op, result: Any, twins: dict[str, Any]) -> str | None:
    """Return why ``result`` is wrong for ``op``, or None when it is exact."""
    from repro.experiments.runner import to_jsonable

    expect = op.expect
    if op.twin is not None:
        if op.twin not in twins:
            return f"no result from serial twin {op.twin}"
        expect = ((op.twin_path, to_jsonable(dig(twins[op.twin], op.twin_path))),)
    for path, want in expect:
        got = to_jsonable(dig(result, path))
        if got != want:
            return f"result{list(path)} = {_short(got)}, golden {_short(want)}"
    return None


def _short(value: Any, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


@dataclass
class Tally:
    """Attempted/failed op counts, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    timed_out: bool = False

    def record(self, op_id: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{op_id}: {reason}")
