"""Host self time and call counts per ``repro`` layer, from a cProfile run.

A layer is a top-level package of ``src/repro``.  Functions defined
outside ``repro`` (C builtins, the standard library, numpy) are charged
to the ``repro`` layer that called them, along the profiler's caller
edges: numpy's ``argsort`` called from ``repro/workloads/npb_is.py`` is
``workloads`` time, not "builtins".  Time with no ``repro`` caller at all
(the benchmark's own loop, the profiler) is ``other``, as are the small
``repro`` packages outside the nine layers (``util``, ``baselines``,
``faults``).
"""

from __future__ import annotations

import os
from typing import Any

__all__ = ["LAYERS", "attribute", "layer_of"]

LAYERS = ("sim", "openmx", "kernel", "hw", "cluster", "mpi", "workloads",
          "obs", "experiments")
OTHER = "other"

# pstats key: (filename, lineno, funcname); value:
# (primitive calls, total calls, self time, cumulative time, callers) where
# callers maps a caller key to that edge's (pcalls, calls, self, cumulative).
FuncKey = tuple[str, int, str]


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None when it is not ``repro`` code."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts[:-1]:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro", 1)
    package = parts[idx + 1]
    return package if package in LAYERS else OTHER


def attribute(stats: dict[FuncKey, tuple]) -> dict[str, dict[str, float]]:
    """Split ``pstats.Stats(...).stats`` into per-layer self time and calls.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}}`` over
    :data:`LAYERS` plus ``other``.
    """
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    shares: dict[FuncKey, dict[str, float]] = {}

    def share(key: FuncKey, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``key``'s time owed to each layer."""
        own = layer_of(key[0])
        if own is not None:
            return {own: 1.0}
        if key in shares:
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        edges = [(c, e) for c, e in callers.items() if c not in visiting]
        weight = sum(e[2] for _, e in edges)
        mix: dict[str, float] = {}
        for caller, edge in edges:
            w = edge[2] / weight if weight > 0 else 1.0 / len(edges)
            for layer, f in share(caller, visiting | {key}).items():
                mix[layer] = mix.get(layer, 0.0) + w * f
        # A caller cycle with no repro frame on it is cut and lands in other.
        shares[key] = mix or {OTHER: 1.0}
        return shares[key]

    for key, (_, ncalls, tt, _, callers) in stats.items():
        own = layer_of(key[0])
        if own is not None:
            self_s[own] += tt
            calls[own] += ncalls
            continue
        if not callers:
            self_s[OTHER] += tt
            calls[OTHER] += ncalls
            continue
        # Charge along each caller edge with that edge's own time and count.
        for caller, (_, edge_calls, edge_tt, _) in callers.items():
            for layer, f in share(caller, frozenset({key})).items():
                self_s[layer] += f * edge_tt
                calls[layer] += f * edge_calls
    return {"self_s": self_s, "calls": calls}


def profile_stats(profiler: Any) -> dict[FuncKey, tuple]:
    """The raw stats table of a finished ``cProfile.Profile``."""
    import pstats

    return pstats.Stats(profiler).stats
