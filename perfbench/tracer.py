"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public functions at the binding their caller uses
(``gmi.cli.score_datasets`` is a ``from``-imported name, so it is replaced
in ``gmi.cli``, not in ``gmi.scoring``) with wrappers that record one span
per call: name, start and end.  Calls on one thread nest strictly, so each
span's parent is recovered after the run from the intervals alone, which
keeps the wrapper to two clock reads and one append.  Spans stay in memory
until the run ends.  Nothing inside the engine changes.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: (name, start_ns, end_ns) per call, in order of return.
        self.spans: list[tuple[str, int, int]] = []
        #: (name, arguments, result) of the calls wrapped with ``keep``.
        self.kept: list[tuple[str, tuple, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: object, attr: str, name: str, keep: bool = False) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        With *keep*, the tracer also holds the call's arguments and result,
        so that counters can be derived after the run, outside any span.
        """
        original = getattr(module, attr)
        record, clock = self.spans.append, perf_counter_ns

        if keep:
            keep_call = self.kept.append

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record((name, start, clock()))
                keep_call((name, args, result))
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    record((name, start, clock()))

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.kept.clear()

    def kept_calls(self, name: str) -> list[tuple[tuple, object]]:
        """(arguments, result) of each kept call to the span *name*."""
        return [(args, result) for span, args, result in self.kept if span == name]

    def tree(self) -> list[tuple[str, int, int, int]]:
        """Spans in start order as (name, parent, start_ns, end_ns), where
        parent is the index of the innermost enclosing span or -1."""
        ordered = sorted(self.spans, key=lambda span: (span[1], -span[2]))
        out: list[tuple[str, int, int, int]] = []
        open_spans: list[int] = []
        for name, start, end in ordered:
            while open_spans and out[open_spans[-1]][3] <= start:
                open_spans.pop()
            out.append((name, open_spans[-1] if open_spans else -1, start, end))
            open_spans.append(len(out) - 1)
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated ``id parent name start_ns end_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, parent, start, end) in enumerate(self.tree()):
                fh.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Per-name self time in seconds, per-name call counts, and the
        summed duration of the root spans.  A span's self time is its
        duration minus the durations of the spans it directly encloses."""
        tree = self.tree()
        self_ns = [end - start for _, _, start, end in tree]
        root_ns = 0
        for name, parent, start, end in tree:
            if parent >= 0:
                self_ns[parent] -= end - start
            else:
                root_ns += end - start
        by_name: Counter = Counter()
        for (name, _, _, _), ns in zip(tree, self_ns):
            by_name[name] += ns
        calls = Counter(name for name, _, _ in self.spans)
        return {name: ns / 1e9 for name, ns in by_name.items()}, calls, root_ns / 1e9
