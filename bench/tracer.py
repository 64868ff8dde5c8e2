"""Span tracer that wraps a package's public functions from outside.

`install()` rebinds every public function of the given modules to a wrapper
that records a span. The rebinding covers the defining module, every other
given module that imported the function by name (`from .x import y`), and
module-level dicts that hold it (the CLI's renderer table). `uninstall()`
puts the originals back.

Calls, self time and cumulative time are aggregated online for every call.
A span's self time is its duration minus the time its child spans cover.
Full spans (id, parent, op, name, start, end) are kept in memory only for
the first `SPAN_OPS` ops and for the two outermost levels, so memory stays
bounded on long sweeps; `write_spans()` writes them out at exit.
"""

from __future__ import annotations

import functools
import time
import types

SPAN_OPS = 1000


class Tracer:
    def __init__(self, modules, op_marker=None, capture=None):
        """`op_marker=(child, parent)`: a call to `child` made directly from
        `parent` starts a new op (one sweep pair is one `classify` call made
        by `build_sweep_report`). `capture` names a function whose last
        return value is kept in `captured`."""
        self.modules = modules
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.cum_ns: list[int] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op = 0
        self.captured = None
        self._op_marker = op_marker
        self._capture = capture
        self._stack: list[list[int]] = []  # [span id, name index, child ns]
        self._next_id = 0
        self._rebound: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                public = not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
                if public and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in self.modules:
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._rebind(namespace, name, wrappers[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._rebind(obj, key, wrappers[id(value)])

    def uninstall(self) -> None:
        for container, key, original in reversed(self._rebound):
            container[key] = original
        self._rebound.clear()

    def _rebind(self, container: dict, key: str, wrapper) -> None:
        self._rebound.append((container, key, container[key]))
        container[key] = wrapper

    def _wrap(self, qualname: str, fn):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_ns.append(0)
        self.cum_ns.append(0)
        tracer = self
        stack, spans = self._stack, self.spans
        calls, self_ns, cum_ns = self.calls, self.self_ns, self.cum_ns
        clock = time.perf_counter_ns
        marks_op = self._op_marker is not None and self._op_marker[0] == qualname
        op_parent = self._op_marker[1] if marks_op else None
        captures = self._capture == qualname

        def traced(*args, **kwargs):
            if marks_op and stack and tracer.names[stack[-1][1]] == op_parent:
                tracer.op += 1
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                cum_ns[idx] += duration
                self_ns[idx] += duration - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    parent_id = parent[0]
                else:
                    parent_id = -1
                if len(stack) <= 1 or tracer.op < SPAN_OPS:
                    spans.append((span_id, parent_id, tracer.op, idx, start, end))
            if captures:
                tracer.captured = result
            return result

        return functools.update_wrapper(traced, fn)

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """Qualified name -> (calls, self ns, cumulative ns)."""
        return {
            name: (self.calls[i], self.self_ns[i], self.cum_ns[i]) for i, name in enumerate(self.names)
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_ns,end_ns\n")
            for span_id, parent_id, op, idx, start, end in self.spans:
                handle.write(f"{span_id},{parent_id},{op},{self.names[idx]},{start},{end}\n")
