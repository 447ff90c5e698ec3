"""Span tracing by wrapping nfcrb's public callables from outside the package.

Each wrapped callable records a span (name, start, end, parent span, attrs)
in memory. A module-level function is replaced at every nfcrb module global
bound to it, because callers look names up where `from .x import y` bound
them; a method is replaced on its class. A name that no longer exists is
recorded as absent and the run goes on.

Memory windows measure the tracemalloc peak of selected large calls only,
so the rest of the traced run pays no tracemalloc cost.
"""

import functools
import inspect
import sys
import time
import tracemalloc

PACKAGE = "nfcrb"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, attrs]
        self.absent = []     # span names whose callable was not found
        self.mem_peak = {}   # window label -> peak traced bytes
        self._stack = []
        self._restore = []
        self._window = None

    def wrap(self, name, owner, attr, describe=None, mem_open=None, closes_window=False):
        """Trace calls of owner.attr (owner is a module or a class) as `name`.

        describe(arguments) -> attrs dict, from the call's bound arguments.
        mem_open(attrs) -> window label or None; a window closes when the
        span that opened it ends, or earlier when a span made with
        closes_window=True starts.
        """
        original = inspect.getattr_static(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = self._wrapper(name, original, describe, mem_open, closes_window)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def unwrap(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._close_window()

    def _wrapper(self, name, fn, describe, mem_open, closes_window):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if describe is not None:
                try:
                    attrs = describe(signature.bind(*args, **kwargs).arguments)
                except (TypeError, AttributeError, KeyError):
                    attrs = None  # signature changed: the span still counts
            if closes_window:
                self._close_window()
            label = mem_open(attrs) if mem_open is not None and attrs else None
            opened = label is not None and self._open_window(label)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if opened and self._window == label:
                    self._close_window()

        return traced

    def _open_window(self, label) -> bool:
        if self._window is not None or tracemalloc.is_tracing():
            return False
        tracemalloc.start()
        self._window = label
        return True

    def _close_window(self):
        if self._window is None:
            return
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.mem_peak[self._window] = max(self.mem_peak.get(self._window, 0), peak)
        self._window = None


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]

