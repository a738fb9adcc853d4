"""Outside-in span tracer: wraps functions at their call sites, keeps spans
in memory, and derives self time from the span tree.

A span is the tuple (name, parent, start, end, ok, value):

* parent is the index of the enclosing span in ``Tracer.spans`` (-1 for a
  root); a parent is always created before its children, so it has the
  lower index;
* ok is False when the wrapped call raised;
* value is whatever the span's ``measure(args, result)`` returned (a row
  count, a byte count, ...), or None.

Everything here runs in one thread, so the open spans form a stack.
"""

from __future__ import annotations

import csv
import dataclasses
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        """Return fn wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = measure(args, result) if ok and measure is not None else None
                spans[index] = (name, parent, start, end, ok, value)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, owner, attr: str, replacement) -> None:
        """Set owner.attr = replacement, remembering the original for remove()."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install_span(self, owner, attr: str, name: str, measure=None) -> None:
        self.install(owner, attr, self.wrap(name, getattr(owner, attr), measure))

    def traced_env(self, env, name: str = "envs.step_fn"):
        """A copy of env whose black-box map records one span per call.

        The span value is the number of rows (states) in the call, so a
        batched call of M states counts M transitions.
        """
        return dataclasses.replace(env, step_fn=self.wrap(name, env.step_fn, step_rows))

    def remove(self) -> None:
        """Restore every installed attribute, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "parent", "start", "end", "ok", "value"])
            for index, (name, parent, start, end, ok, value) in enumerate(self.spans):
                writer.writerow([index, name, parent, repr(start), repr(end), int(ok), value])


def step_rows(args, result) -> int:
    x = args[0]
    return 1 if x.ndim == 1 else x.shape[0]


def self_times(spans, lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the part covered by children.

    Children outside [lo, hi) are ignored, so pass a whole subtree. Child
    intervals are merged before subtracting and clipped to the parent, so
    overlapping or overhanging children are not counted twice.
    """
    hi = len(spans) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, ok, value in spans[lo:hi]:
        if parent >= lo:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index in range(lo, hi):
        _, _, start, end, _, _ = spans[index]
        covered = 0.0
        cur_lo = cur_hi = None
        for c_lo, c_hi in sorted(children.get(index, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
