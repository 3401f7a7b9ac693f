"""Per-layer tracing from outside the library.

The tracer wraps the public functions of the library's layer modules and
rebinds each wrapper under every name that refers to the original anywhere
in the package, because modules import functions by name (``membership``
lives in ``solver`` and ``cli`` as well as in ``riccati``); a wrapper bound
only in the defining module would miss those calls.

Each call is a span with a parent (the innermost wrapped call around it).
Spans are aggregated as they close: calls, inclusive time and self time
(inclusive time minus the time of wrapped child spans), plus a few counts
read from arguments, results and exceptions at the layer boundary.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "riccati_kyp"
LAYERS = ("linops", "systems", "riccati", "solver", "boundary", "cli")
# only main is wrapped in cli, so its self time holds parse, dispatch,
# encode and emit
ONLY = {"cli": ("main",)}


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _observe_membership(counts, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "NotPD":
            counts["riccati.membership.not_pd"] += 1
    elif result.diagnostics.boundary_case:
        counts["riccati.membership.boundary_cases"] += 1


def _observe_sampler(counts, args, kwargs, result, exc):
    count = kwargs["count"] if "count" in kwargs else args[1]
    counts["solver.sample_ri_members.requested"] += count
    if exc is None:
        counts["solver.sample_ri_members.returned"] += len(result)


def _observe_solve_re(counts, args, kwargs, result, exc):
    if exc is None:
        counts["solver.solve_re.members"] += len(result.members)
        counts["solver.solve_re.newton_iters"] += sum(
            p.get("iterations", 0) for p in result.provenance
        )


OBSERVERS = {
    "riccati.membership": _observe_membership,
    "solver.sample_ri_members": _observe_sampler,
    "solver.solve_re": _observe_solve_re,
}


class Tracer:
    """Install with ``install()``, read ``stats``/``counts``/``edges``,
    restore the library with ``uninstall()``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        # (parent, child) -> calls; parent None for a root span
        self.edges: dict[tuple, int] = defaultdict(int)
        self._stack: list[list] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats, counts, edges, stack = self.stats, self.counts, self.edges, self._stack
        stat = stats[name]
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                edges[(parent[0] if parent else None, name)] += 1
                if observe is not None:
                    observe(counts, args, kwargs, result, exc)

        return wrapper

    def targets(self) -> dict:
        """original function -> traced name, for every wrapped function."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr in ONLY.get(layer, (attr,))
                ):
                    found[obj] = f"{layer}.{attr}"
        return found

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn) for fn, name in self.targets().items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._rebound.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def edge(self, parent: str | None, child: str) -> int:
        return self.edges.get((parent, child), 0)
