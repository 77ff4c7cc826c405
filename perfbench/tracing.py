"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's side of each layer boundary: around
the calls the benchmark itself makes into a layer (``Tracer.span``), and,
through wrappers that ``instrumented`` installs on the package's module and
class attributes for the length of a traced pass, around the calls one layer
makes into another.  No file of the package is changed, and every replaced
attribute is put back when the pass ends.  Spans stay in memory and are
written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracer for untraced passes: records nothing."""

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    """Records spans as ``[name, start, end, parent index, pass index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_index = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.pass_index]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def summary(self, pass_indices) -> tuple[dict, dict, dict]:
        """Self time and call count per span name, and top-level coverage per pass.

        A span's self time is its duration minus the durations of its direct
        children; spans are sequential within a pass, so the top-level spans
        of a pass never overlap and their summed duration is the part of the
        pass that some span covers.
        """
        wanted = set(pass_indices)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time, calls, covered = defaultdict(float), defaultdict(int), defaultdict(float)
        for index, (name, start, end, parent, pass_index) in enumerate(self.spans):
            if pass_index not in wanted:
                continue
            self_time[name] += (end - start) - child_time[index]
            calls[name] += 1
            if parent < 0:
                covered[pass_index] += end - start
        return dict(self_time), dict(calls), dict(covered)


@contextlib.contextmanager
def instrumented(tracer: Tracer, package: str, targets):
    """Wrap layer entry points in spans for the duration of the block.

    ``targets`` holds ``(owner, attribute, span name)`` triples.  A module
    owner's function is replaced in every module of ``package`` that holds
    it, so calls between layers are traced whichever name they go through;
    a class owner's attribute is replaced on the class, keeping its kind
    (function or classmethod).
    """
    modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
    replaced = []
    for owner, attribute, name in targets:
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__))
            else:
                replacement = tracer.wrap(name, original)
            replaced.append((owner, attribute, original, replacement))
            continue
        original = getattr(owner, attribute)
        replacement = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, key, original, replacement))
    try:
        for holder, key, _, replacement in replaced:
            setattr(holder, key, replacement)
        yield
    finally:
        for holder, key, original, _ in reversed(replaced):
            setattr(holder, key, original)
