"""Outside-in spans around the package's public functions.

The benchmark never edits the program: it wraps functions where the
caller looks them up (``hessketch.cli.build_problem``,
``hessketch.solvers.dense_qr_ls``, the operator's ``forward`` callable,
...), records one span per call, and restores the originals afterwards.
Spans stay in memory and are written to a file when the run ends.

A span is ``(name, start, end, parent, bytes, failed)``: ``parent`` is
the index of the enclosing span (-1 for the root), ``bytes`` a computed
byte count where the layer has one, ``failed`` whether the call raised.
A layer's self time is its span durations minus the durations of their
direct children, so the self times of all spans sum to the root's
duration exactly.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, BYTES, FAILED = range(6)


class Tracer:
    """Collects nested spans from wrapped callables (single thread)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, nbytes=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``nbytes(*args, **kwargs)``, when given, computes the bytes the
        call moves; it is evaluated outside the timed interval.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    nbytes(*args, **kwargs) if nbytes else 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def self_times(self):
        """Per span name: (self seconds, calls, bytes, failed calls)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals = defaultdict(lambda: [0.0, 0, 0, 0])
        for span, covered in zip(self.spans, child_time):
            row = totals[span[NAME]]
            row[0] += span[END] - span[START] - covered
            row[1] += 1
            row[2] += span[BYTES]
            row[3] += span[FAILED]
        return {name: tuple(row) for name, row in totals.items()}

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "bytes", "failed"])
            out.writerows(
                [s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[BYTES],
                 int(s[FAILED])]
                for s in self.spans
            )


@contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr`` (or ``owner[key]`` for dicts).

    ``replacements`` is a list of ``(owner, key, new_value)``; originals
    are restored in reverse order even if the body raises.
    """
    saved = []
    try:
        for owner, key, value in replacements:
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = value
            else:
                saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, value)
        yield
    finally:
        for owner, key, value in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
