"""Layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the ``spangle``
modules, in every namespace that binds it (re-bound imports such as
``spangle.angles.principal_cosines`` and module-level dispatch tables
such as ``spangle.verify._RUNNERS`` included), by a wrapper that records
a span; ``numpy.linalg.svd`` and ``Subspace.__post_init__`` get the same
wrapper.  ``uninstall`` puts the originals back.  The program's source is
not touched.

Per span name the tracer keeps calls, inclusive time and self time (the
duration minus the time its child spans cover).  Per group (a module, or
a named set of spans) it keeps the inclusive time of the outermost spans
only, so nested calls are not counted twice.  The first ``keep`` spans
are also kept whole, as (id, parent id, name, start, end), for writing
out when the run ends.
"""

from __future__ import annotations

import functools
import time
import types

import numpy as np

ORACLE_GROUP = "exterior.oracle"


def _oracle_span(name: str) -> bool:
    return name.startswith("exterior.oracle_") or name in ("exterior.blade_of", "exterior.wedge")


class Tracer:
    def __init__(self, keep: int = 20000):
        self.keep = keep
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.outer: dict[str, float] = {}  # group -> inclusive s of outermost spans
        self.spans: list[tuple] = []
        self._depth: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str):
        groups = (name.split(".", 1)[0],) + ((ORACLE_GROUP,) if _oracle_span(name) else ())
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1][4] if stack else 0
            for g in groups:
                depth[g] = depth.get(g, 0) + 1
            frame = [clock(), 0.0, name, groups, self._next_id, parent]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)

        return traced

    def _close(self, frame: list, end: float) -> None:
        start, child, name, groups, span_id, parent = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        for g in groups:
            d = self._depth[g] - 1
            self._depth[g] = d
            if d == 0:
                self.outer[g] = self.outer.get(g, 0.0) + dur
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end))

    # -- patching --------------------------------------------------------

    def _set(self, owner, key, value, is_item: bool = False) -> None:
        old = owner[key] if is_item else getattr(owner, key)
        self._restore.append((owner, key, old, is_item))
        if is_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self, modules: list[types.ModuleType]) -> None:
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("spangle.")
                    and not obj.__name__.startswith("_")
                ):
                    if id(obj) not in wrappers:
                        layer = obj.__module__.removeprefix("spangle.")
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._set(mod, attr, wrappers[id(obj)])
        for mod in modules:
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, obj in list(table.items()):
                        if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                            self._set(table, key, wrappers[id(obj)], is_item=True)
        subspace = next(m for m in modules if m.__name__ == "spangle.subspace")
        self._set(
            subspace.Subspace,
            "__post_init__",
            self._wrap(subspace.Subspace.__post_init__, "subspace.Subspace.__post_init__"),
        )
        self._set(np.linalg, "svd", self._wrap(np.linalg.svd, "numpy.linalg.svd"))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, old, is_item = self._restore.pop()
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.inclusive(name) / calls if calls else 0.0

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))
