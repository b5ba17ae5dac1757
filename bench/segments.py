"""Cut each timed CLI call into segments, so a pass is timed piece by piece.

On a small shared host the processor runs slow for a second or two at a
time while other tenants are busy: the same loop takes about 1.5 times as
long then. The slowdown only ever adds time. A ladder pass lasts several
seconds, so its total carries however many slow spells fell inside it, and
the median over a run's few passes moves with the host's load.

A segment clock marks the entry to and exit from a few steinmac functions
(a block of trials, a pool of blocks, the steps of an exact rung), in the
main thread only. The same code on the same inputs cuts every pass into
the same sequence of segments, each well under a second on the
single-threaded ladders. `pass_seconds` takes each segment's fastest time over the run's
passes and sums them: the time of one pass on a quiet host. Each mark costs
one clock read, a few a second, so this is not tracing: no spans, no
parents, nothing per trial.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time

# functions whose entry and exit cut a call into segments; blocks called
# from pool threads leave no marks, so with workers > 1 the segments are
# the pool calls themselves
MARKED = (
    ("steinmac.simulate", "run_trials"),
    ("steinmac.simulate", "importance_sample_beta"),
    ("steinmac.simulate", "exact_error_probs"),
    ("steinmac.simulate", "_exact_accept_prob"),
    ("steinmac.simulate", "_compositions"),
    ("steinmac.simulate", "_typicality_flags"),
    ("steinmac.simulate", "_direct_block"),
    ("steinmac.simulate", "_is_block"),
)


class SegmentClock:
    def __init__(self):
        self._main = threading.main_thread()
        self._marks: list | None = None
        self._saved: list = []

    def mark(self) -> None:
        if self._marks is not None and threading.current_thread() is self._main:
            self._marks.append(time.perf_counter())

    def _wrap(self, fn):
        mark = self.mark

        def marked(*args, **kwargs):
            mark()
            try:
                return fn(*args, **kwargs)
            finally:
                mark()

        return marked

    def install(self) -> None:
        """Wrap every marked function that this version of steinmac has; a
        missing one only makes the segments longer."""
        for module_name, attr in MARKED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def start(self) -> None:
        self._marks = [time.perf_counter()]

    def stop(self) -> list:
        """Seconds of each segment since `start`."""
        marks, self._marks = self._marks, None
        marks.append(time.perf_counter())
        return [b - a for a, b in zip(marks, marks[1:])]


def pass_seconds(passes: list) -> float:
    """Sum over segments of the fastest time each took in any pass.

    `passes` holds one list of segment seconds per pass. If the passes were
    not cut alike (the code took different paths), fall back to the median
    of the pass totals.
    """
    if len({len(p) for p in passes}) != 1:
        return statistics.median(sum(p) for p in passes)
    return sum(min(column) for column in zip(*passes))
