"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own process by wrapping the
program's functions at their layer boundaries; the program itself is
not changed.  Each span has a name, start and end (perf_counter_ns), the
id of the span that was open when it started, and a session id (-1
outside sessions).  Self time is a span's duration minus the time its
direct children cover, where a child covers its whole wrapper, from
entry to exit, so the tracer's bookkeeping for a child is not counted as
its parent's own time; one thread runs everything traced, so children
nest and never overlap.  What the wrapper still adds, to its own span
and to its parent's self time (the call into the wrapper and the return
from it), is measured on a no-op by `calibrate` and subtracted.  Totals
are aggregated per phase, name and parent name as spans close, so a
layer called from two places can be told apart.  Spans are also kept
in memory and written out at the end, up to KEEP_SPANS of them to bound
the traced run's memory; they are kept or dropped one top-level span at
a time, so every kept span's parent is kept too.  Calls that are only
counted, not timed, go to `counts`.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

KEEP_SPANS = 50_000
CALIBRATION_CALLS = 1000
CALIBRATION_REPEATS = 5


def _noop() -> None:
    return None


class SpanTotals:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.session = -1
        self.phase = "setup"
        self.totals: dict[tuple[str, str, str], SpanTotals] = {}
        self.counts: dict[tuple[str, str], int] = {}   # (phase, name) -> calls
        self._keeping = True
        # Wrapper cost per span (see `calibrate`): inside the span's own
        # start and end, and in its parent's self time.
        self.own_ns = 0.0
        self.child_ns = 0.0
        self._stack: list[list] = []   # [span id, child ns, name, children]
        self._next_id = 0
        self.columns = {k: array("q") for k in
                        ("id", "name", "start", "end", "parent", "session")}
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def totals_for(self, phase: str, name: str, parent: str | None = None) -> SpanTotals:
        """Totals of the spans called `name` in `phase`, all of them or
        those whose parent span is called `parent`."""
        found = SpanTotals()
        for (p, n, parent_name), totals in self.totals.items():
            if p == phase and n == name and parent in (None, parent_name):
                for attr in SpanTotals.__slots__:
                    setattr(found, attr, getattr(found, attr) + getattr(totals, attr))
        return found

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int, list]:
        stack = self._stack
        if stack:
            parent = stack[-1][0]
        else:
            parent = -1
            self._keeping = len(self.columns["id"]) < KEEP_SPANS
        frame = [self._next_id, 0, name, 0]
        self._next_id += 1
        stack.append(frame)
        return parent, perf_counter_ns(), frame

    def _close(self, name: str, parent: int, start: int, frame: list,
               entered: int) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - start - self.own_ns
        key = (self.phase, name, stack[-1][2] if stack else "")
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = SpanTotals()
        totals.calls += 1
        totals.total_ns += duration
        totals.self_ns += duration - frame[1] - frame[3] * self.child_ns
        if self._keeping:
            for column, value in zip(
                    self.columns.values(),
                    (frame[0], self._name_id(name), start, end, parent,
                     self.session)):
                column.append(value)
        if stack:
            stack[-1][1] += perf_counter_ns() - entered
            stack[-1][3] += 1

    @contextmanager
    def span(self, name: str):
        entered = perf_counter_ns()
        parent, start, frame = self._open(name)
        try:
            yield
        finally:
            self._close(name, parent, start, frame, entered)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            parent, start, frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, parent, start, frame, entered)

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (tracer.phase, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def calibrate(self) -> None:
        """Set `own_ns` and `child_ns` from spans around a no-op, traced
        by a scratch tracer under a parent span, against plain calls of
        the no-op in the same loop: the median over a few repeats."""
        own, child = [], []
        for _ in range(CALIBRATION_REPEATS):
            scratch = Tracer()
            wrapped = scratch.wrap("child", _noop)
            start = perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                _noop()
            plain = (perf_counter_ns() - start) / CALIBRATION_CALLS
            with scratch.span("parent"):
                for _ in range(CALIBRATION_CALLS):
                    wrapped()
            inner = scratch.totals_for("setup", "child").total_ns
            parent = scratch.totals_for("setup", "parent").self_ns
            own.append(max(inner / CALIBRATION_CALLS - plain, 0.0))
            child.append(max(parent / CALIBRATION_CALLS - plain, 0.0))
        self.own_ns = statistics.median(own)
        self.child_ns = statistics.median(child)

    # -- installing wrappers -------------------------------------------------

    def patch_method(self, cls, attr: str, name: str) -> None:
        self._patches.append((cls, attr, self.wrap(name, getattr(cls, attr))))

    def patch_function(self, original, name: str, count_only: bool = False) -> None:
        """Wrap every binding of `original` in the program's modules, so
        the call is traced (or, with `count_only`, counted) whichever
        module calls it."""
        wrapper = (self.counter if count_only else self.wrap)(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "proactive" and not module_name.startswith("proactive."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, wrapper))

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> int:
        """Write the kept spans as CSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns
        with path.open("w", encoding="utf-8") as out:
            out.write("id,name,start_ns,end_ns,parent,session\n")
            for i in range(len(cols["id"])):
                out.write(f"{cols['id'][i]},{self.names[cols['name'][i]]},"
                          f"{cols['start'][i]},{cols['end'][i]},"
                          f"{cols['parent'][i]},{cols['session'][i]}\n")
        return len(cols["id"])
