"""Outside-in tracer for the steinberg package.

Wraps every public module-level function of the five working layers
(``rootsys``, ``parabolic``, ``algebra``, ``varieties``, ``cli``) and
rebinds every name that points at one of them, including the copies that
``from ... import`` made in other modules and in the package namespace.
Each call records a span (function, start, end, parent span) in memory;
``Tracer.dump`` writes them out once the run is over.  A few wrappers also
count exact quantities at the layer boundary (vectors reduced, cosets built,
group order, verification reports).  No file of the package is changed.

Run as a script, it executes one CLI invocation under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json verify --type A2

The CLI's stdout and exit code pass through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("rootsys", "parabolic", "algebra", "varieties", "cli")


def public_functions(module):
    """(name, function) for each public function defined in ``module`` itself."""
    return [
        (name, obj)
        for name, obj in sorted(vars(module).items())
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Span recorder installed around the package's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, package: str = "steinberg") -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in public_functions(module):
                qualname = f"{layer}.{name}"
                wrapper = self._wrap(len(self.names), fn, self._counting(qualname, fn))
                self.names.append(qualname)
                wrappers[id(fn)] = (fn, wrapper)
        namespaces = [
            module
            for modname, module in sorted(sys.modules.items())
            if modname == package or modname.startswith(package + ".")
        ]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _wrap(self, fid, fn, call):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                spans[idx] = (fid, start, clock(), parent)
                stack.pop()

        traced.__traced__ = fn
        return traced

    def _counting(self, qualname, fn):
        """``fn`` itself, or ``fn`` plus exact counters read off its result."""
        counters = self.counters
        if qualname == "algebra.span_dimension":
            def call(vectors):
                vectors = list(vectors)
                basis = fn(vectors)
                counters["algebra.span_dimension.vectors_in"] += len(vectors)
                counters["algebra.span_dimension.rank_out"] += basis.dimension
                return basis
            return call
        if qualname == "parabolic.double_cosets":
            def call(*args, **kwargs):
                dec = fn(*args, **kwargs)
                counters["parabolic.cosets_total"] += len(dec)
                return dec
            return call
        if qualname == "rootsys.enumerate_weyl":
            def call(*args, **kwargs):
                group = fn(*args, **kwargs)
                counters["rootsys.group_order"] = max(
                    counters["rootsys.group_order"], group.order
                )
                return group
            return call
        if qualname.startswith("varieties.") and (
            fn.__annotations__.get("return") == "VerificationReport"
        ):
            def call(*args, **kwargs):
                report = fn(*args, **kwargs)
                counters["varieties.reports"] += 1
                counters["varieties.reports_failed"] += not report.passed
                return report
            return call
        return fn

    def dump(self, path, **extra) -> None:
        record = {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


def summarize(names, spans) -> dict[str, dict[str, int]]:
    """Per function: calls, total and self nanoseconds.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children nest inside parents.
    """
    child_ns = [0] * len(spans)
    for fid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in names}
    for i, (fid, start, end, _) in enumerate(spans):
        entry = out[names[fid]]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
    return out


def main(argv) -> int:
    spans_path, *cli_argv = argv
    import steinberg
    from steinberg import cli

    tracer = Tracer()
    tracer.install("steinberg")
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, steinberg_file=steinberg.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
