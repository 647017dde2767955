"""In-memory spans and counters around ssbm's public functions.

The benchmark records layers from outside the library: it replaces a
function in every ``ssbm`` module that binds it (``ssbm.harness`` imports
``solve_elliptope`` by name, ``ssbm.csdp`` calls it through its own global),
and puts the originals back when the ``with`` block ends.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    """One call: inclusive duration, self time (duration minus the time its
    child spans cover), and the index of the span that caused it."""

    name: str
    start: float
    end: float
    parent: int | None
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            mod, fn_name, original = self._undo.pop()
            setattr(mod, fn_name, original)

    def _replace(self, qualname: str, make):
        """Rebind ``ssbm.<module>.<function>`` wherever a module binds it to
        ``make(original)``."""
        mod_name, fn_name = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"ssbm.{mod_name}"], fn_name)
        replacement = functools.wraps(original)(make(original))
        for name, mod in list(sys.modules.items()):
            if (name == "ssbm" or name.startswith("ssbm.")) and getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, replacement)
                self._undo.append((mod, fn_name, original))

    def span(self, qualname: str, on_result=None):
        """Record a span per call; ``on_result(counts, args, result)`` may add
        counts after the span has closed."""
        def make(original):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1][0] if self._stack else None
                frame = [len(self.spans), 0.0]
                self.spans.append(None)
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][1] += end - start
                    self.spans[frame[0]] = Span(qualname, start, end, parent,
                                                end - start - frame[1])
                if on_result is not None:
                    on_result(self.counts, args, result)
                return result
            return wrapper
        self._replace(qualname, make)

    def count(self, qualname: str):
        """Count calls without a span, for functions called too often to time."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[f"{qualname}.calls"] += 1
                return original(*args, **kwargs)
            return wrapper
        self._replace(qualname, make)

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s)
        return out
