"""Per-layer timing by wrapping orbitkit's public functions from outside.

``Tracer`` replaces each named function, in every ``orbitkit`` module
that binds it, by a wrapper that records the call's self time: its
duration minus the time spent in wrapped functions it called.  A name
that no longer exists (a later change removed or renamed it) is not an
error: its metrics are listed in ``absent`` and read 0.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# (layer metric prefix, module, attribute path, counter, count metrics).
# The counter maps a call's arguments and result to the counts it adds.
TARGETS = [
    ("cli.self", "orbitkit.cli", "main", None, ()),
    ("bfile.parse", "orbitkit.bfile", "parse_bfile",
     lambda args, result: {"bfile.bytes_in": len(args[0])}, ("bfile.bytes_in",)),
    ("bfile.format", "orbitkit.bfile", "format_bfile",
     lambda args, result: {"bfile.bytes_out": len(result)}, ("bfile.bytes_out",)),
    ("sequences.validate", "orbitkit.sequences", "Sequence.__post_init__", None, ()),
    ("sequences.builtin", "orbitkit.sequences", "builtin", None, ()),
    ("numtheory.divisors", "orbitkit.numtheory", "divisors", None, ()),
    ("numtheory.mobius", "orbitkit.numtheory", "mobius", None, ()),
    ("transforms.orbit_to_fix", "orbitkit.transforms", "orbit_to_fix", None, ()),
    ("transforms.fix_to_orbit", "orbitkit.transforms", "fix_to_orbit", None, ()),
    ("transforms.euler", "orbitkit.transforms", "euler", None, ()),
    ("operators.product_orbits", "orbitkit.operators", "product_orbits", None, ()),
    ("operators.iterate_orbits", "orbitkit.operators", "iterate_orbits", None, ()),
    ("operators.union_orbits", "orbitkit.operators", "union_orbits", None, ()),
    ("dirichlet.mul", "orbitkit.dirichlet", "mul", None, ()),
    ("dirichlet.div", "orbitkit.dirichlet", "div", None, ()),
    ("zetaseries.zeta_from_fix", "orbitkit.zetaseries", "zeta_from_fix", None, ()),
    ("zetaseries.product_formula", "orbitkit.zetaseries", "product_formula", None, ()),
    ("identities.run", "orbitkit.identities", "run",
     lambda args, result: {"identities.calls": 1}, ("identities.calls",)),
    ("oracle.simulate_product", "orbitkit.oracle", "simulate_product", None, ()),
    ("oracle.simulate_iterate", "orbitkit.oracle", "simulate_iterate", None, ()),
    ("factorization.factor_search", "orbitkit.factorization", "factor_search",
     lambda args, result: {"factorization.pairs": len(result.pairs),
                           "factorization.truncated": int(result.truncated)},
     ("factorization.pairs", "factorization.truncated")),
    ("asymptotics.pnt_report", "orbitkit.asymptotics", "pnt_report", None, ()),
]

# Every per-layer metric name with its unit, in report order.
METRICS: dict[str, str] = {"cli.import_s": "s"}
for _target in TARGETS:
    METRICS[f"{_target[0]}_s"] = "s"
for _target in TARGETS:
    for _count in _target[4]:
        METRICS[_count] = "bytes" if "bytes" in _count else "count"
METRICS["trace.overhead_s"] = "s"


def _resolve(module: str, path: str):
    """The object at module.path and its owner, or (None, None)."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not inspect.isfunction(fn):
        return None, None
    return owner, fn


class Tracer:
    """Self time and counts per target, while installed."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, metric: str, fn, counter):
        stack, seconds, counts, clock = self._stack, self.seconds, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                seconds[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded orbitkit module that binds it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "orbitkit"]
        self.absent = []
        for prefix, module, path, counter, counts in TARGETS:
            owner, fn = _resolve(module, path)
            if fn is None:
                self.absent += [f"{prefix}_s", *counts]
                continue
            wrapper = self._wrap(f"{prefix}_s", fn, counter)
            name = path.split(".")[-1]
            places = [(owner, name)] if inspect.isclass(owner) else [
                (m, attr) for m in modules for attr, value in vars(m).items() if value is fn
            ]
            for place, attr in places:
                self._patches.append((place, attr, fn))
                setattr(place, attr, wrapper)

    def uninstall(self) -> None:
        for place, attr, fn in reversed(self._patches):
            setattr(place, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

