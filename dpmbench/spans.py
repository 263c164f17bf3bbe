"""Timing shims for the traced run.

A :class:`Tracer` replaces a layer's public function *at the site where the
caller looks it up* (a module global or a class attribute) with a wrapper
that records one span per call: name, start, end and the enclosing span.
Spans stay in memory until the run ends.  Leaving the ``with`` block puts
every original object back and checks that it is back.

The tracer keeps one span stack, so it serves single-threaded callers:
the sweeps run serially and the fleet client drives one connection.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

_MISSING = object()


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0  #: inclusive time
    self_s: float = 0.0  #: time not covered by child spans


class Tracer:
    """Span recorder that patches lookup sites and restores them."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in call order
        self.spans: list = []
        self.counts: Counter = Counter()
        #: per-name values returned to an ``on_return`` probe
        self.returns: "defaultdict[str, list]" = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _install(self, owner: object, attr: str, replacement: object) -> None:
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r} of its own")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: "Callable[[object], object] | None" = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``on_return`` maps each return value to a sample kept under ``name``."""
        fn = vars(owner)[attr]
        spans, stack, returns = self.spans, self._stack, self.returns[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                returns.append(on_return(result))
            return result

        self._install(owner, attr, traced)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (for hot accessors)."""
        fn = vars(owner)[attr]
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, counted)

    def restore(self) -> None:
        """Put every patched name back, newest first, and verify it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr, _MISSING) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, SpanStats]:
        """Per-name calls, inclusive time and self time."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row.calls += 1
            row.total_s += end - start
            row.self_s += end - start - child_s[index]
        return dict(out)

    def outer_total_s(self, names: "set[str]") -> float:
        """Inclusive time of spans in ``names`` not nested in another of them."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in names and (parent < 0 or self.spans[parent][0] not in names):
                total += end - start
        return total


def self_time_table(stats: "dict[str, SpanStats]", title: str, scale: float = 1.0) -> str:
    """Where the time goes: self time per span, largest first, with times
    multiplied by ``scale``."""
    total = sum(row.self_s for row in stats.values()) or 1.0
    lines = [
        title,
        f"  {'span':<34}{'calls':>9}{'incl ms':>11}{'self ms':>11}{'self %':>8}",
    ]
    for name, row in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        lines.append(
            f"  {name:<34}{row.calls:>9}{row.total_s * 1e3 * scale:>11.1f}"
            f"{row.self_s * 1e3 * scale:>11.1f}{100 * row.self_s / total:>7.1f}%"
        )
    return "\n".join(lines)
