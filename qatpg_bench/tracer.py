"""Call counts and times for qatpg's public functions, kept in memory.

`Tracer.install` replaces every public function of the listed modules,
wherever a qatpg module binds it by name, with a wrapper that counts the
call and times it. Because `helstrom` calls `faulty_variant` through its
own binding, and `circuit.apply` calls `gate_matrix` through the circuit
module's globals, calls between layers and within one layer are timed
too. Self time is a call's duration minus the part covered by wrapped
calls made beneath it. Nothing under `src/` changes; `uninstall` puts
the original functions back.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import time

LAYERS = ("circuit", "linalg", "separator", "faults", "helstrom", "diagnosis")


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Per-function call counts and times for one qatpg package object."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat = self.stats.get(qualname)
                if stat is None:
                    stat = self.stats[qualname] = Stat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for binder in [self.package, *self.modules]:
            for name, value in list(vars(binder).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((binder, name, value))
                    setattr(binder, name, wrappers[value])

    def uninstall(self) -> None:
        for binder, name, original in reversed(self._patches):
            setattr(binder, name, original)
        self._patches = []

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n].total_s for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_s for n in names if n in self.stats)

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.stats.items()
                   if n.startswith(layer + "."))

    def covered_s(self) -> float:
        """Time inside any wrapped call: the self times of all calls add up to it."""
        return sum(s.self_s for s in self.stats.values())
