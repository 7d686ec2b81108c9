"""Attribute a cProfile of one replay to the layers of ``src/repro``.

A layer is a module (or package) of the program.  Each profiled
function's self time goes to the layer of the file that defines it.
Functions outside the program -- built-ins (cProfile files them under
``~``), the standard library, dataclass-generated ``__init__`` methods --
have no layer of their own: their self time is charged to the layers of
their callers, split by pstats' per-caller time, and walked further up
while the caller is itself outside the program.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: (path below the ``repro`` package, layer).  First match wins; program
#: files matching none belong to ``other``.
LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("sim/core.py", "sim.core"),
    ("sim/process.py", "sim.process"),
    ("sim/resources.py", "sim.resources"),
    ("net/", "net"),
    ("http/", "http"),
    ("proxy/", "proxy"),
    ("server/httpd.py", "server.httpd"),
    ("server/sitelist.py", "server.sitelist"),
    ("server/cluster.py", "server.cluster"),
    ("replay/", "replay"),
    ("chaos/", "chaos"),
    ("obs/", "obs"),
    ("metrics/", "metrics"),
    ("traces/", "traces"),
    ("workload/", "workload"),
)
LAYERS: Tuple[str, ...] = tuple(layer for _, layer in LAYER_PATHS) + ("other",)

#: pstats key: (file, first line, function name).
FuncKey = Tuple[str, int, str]


class LayerMap:
    """Maps a profiled file name to its layer (``None`` outside the program)."""

    def __init__(self, package_dir: str) -> None:
        self._prefix = os.path.realpath(package_dir) + os.sep
        self._cache: Dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            self._cache[filename] = self._lookup(filename)
        return self._cache[filename]

    def _lookup(self, filename: str) -> Optional[str]:
        if filename == "~" or filename.startswith("<"):
            return None
        path = os.path.realpath(filename)
        if not path.startswith(self._prefix):
            return None
        rel = path[len(self._prefix):].replace(os.sep, "/")
        for prefix, layer in LAYER_PATHS:
            if rel.startswith(prefix):
                return layer
        return "other"


def self_time_by_layer(stats: dict, layer_of: LayerMap) -> Dict[str, float]:
    """Seconds of self time per layer, from a ``pstats.Stats(...).stats`` dict.

    The values sum to the profile's total self time.
    """
    owners: Dict[FuncKey, Dict[str, float]] = {}

    def owner_shares(func: FuncKey, active: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s time owed by each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        if func in active or not callers:
            return {"other": 1.0}
        # Weight callers by the callee time they caused; fall back to call
        # counts when every edge timed as zero.
        weights = {c: edge[2] for c, edge in callers.items()}
        if not any(weights.values()):
            weights = {c: edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for owner, frac in owner_shares(caller, active | {func}).items():
                shares[owner] = shares.get(owner, 0.0) + frac * weight / total
        owners[func] = shares
        return shares

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for owner, frac in owner_shares(func, frozenset()).items():
            totals[owner] += tt * frac
    return totals


def code_key(func) -> FuncKey:
    """The pstats key of a Python function or method."""
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_count(stats: dict, func) -> int:
    """How many times the profiled run called ``func`` (0 if never)."""
    entry = stats.get(code_key(func))
    return entry[1] if entry else 0
