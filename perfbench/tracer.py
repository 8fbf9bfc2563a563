"""In-memory span tracer that wraps the package's public functions from outside.

Each traced function is replaced, for the length of one traced operation,
at every name under which a `railhandover` module can look it up: the
defining module and every module that imported it by name (`channel` and
`analytics` both hold their own `integrate`, `figures` holds its own
`estimate_pointwise`, `protocol` calls its own global `transition`).
Methods are replaced on their class.

Spans are kept per thread in flat arrays and written out once, when the
run ends. A span's parent is the enclosing span on the same thread, so
self time (duration minus the time child spans cover) never subtracts
work that a worker thread did in parallel. A name that no longer exists
is skipped and reads as 0 calls.
"""

from __future__ import annotations

import collections
import os
import sys
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined and how its spans are named.

    `label` turns the call's arguments into a suffix of the span name;
    `count` turns (arguments, result) into counter increments.
    """

    module: str
    attr: str                      # "func" or "Class.method"
    name: str
    label: Callable | None = None
    count: Callable | None = None


class _ThreadBuffer:
    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_s = array("d")
        self.stack: list[list] = []          # [span index, child seconds]
        self.counters: collections.Counter = collections.Counter()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.errors: set[str] = set()   # probes whose label or count hook failed

    # --- recording ---

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._name_lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _wrap(self, fn, probe: Probe):
        fixed_id = None if probe.label else self._name_id(probe.name)

        def traced(*args, **kwargs):
            buf = self._buffer()
            nid = fixed_id
            if nid is None:
                label = self._hook(probe, probe.label, args, kwargs, default=None)
                nid = self._name_id(probe.name if label is None else f"{probe.name}.{label}")
            stack = buf.stack
            idx = len(buf.dur)
            buf.name.append(nid)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.dur.append(0.0)
            buf.self_s.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            buf.start.append(start)  # no other span opens on this thread before here
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                buf.dur[idx] = dur
                buf.self_s[idx] = dur - frame[1]
            if probe.count is not None:
                buf.counters.update(self._hook(probe, probe.count, args, kwargs, result,
                                               default={}))
            return result

        traced.__wrapped__ = fn
        return traced

    def _hook(self, probe: Probe, hook, *hook_args, default):
        # A hook that no longer fits the program's signature must not break
        # the traced operation; the probe is reported instead.
        try:
            out = hook(*hook_args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            self.errors.add(probe.name)
            return default
        return out

    # --- patching ---

    def install(self, package: str, probes: list[Probe]) -> None:
        """Replace every probe's function at each name it can be looked up by."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for probe in probes:
            home = sys.modules.get(f"{package}.{probe.module}")
            owner, _, attr = probe.attr.rpartition(".")
            holder = getattr(home, owner, None) if owner else home
            fn = vars(holder).get(attr) if holder is not None else None
            if not callable(fn):
                self.missing.append(probe.name)
                continue
            wrapper = self._wrap(fn, probe)
            if owner:
                self._patch(holder, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # --- results ---

    def summary(self) -> tuple[dict[str, dict[str, float]], collections.Counter]:
        """Per span name: calls, total seconds, self seconds; plus all counters."""
        per: dict[str, dict[str, float]] = {}
        counters: collections.Counter = collections.Counter()
        for buf in self._buffers:
            counters.update(buf.counters)
            for nid, dur, self_s in zip(buf.name, buf.dur, buf.self_s):
                row = per.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["s"] += dur
                row["self_s"] += self_s
        return per, counters

    def span_count(self) -> int:
        return sum(len(buf.dur) for buf in self._buffers)

    def write(self, path: str) -> None:
        """All spans as flat columns; `parent` indexes rows of the same thread."""
        import numpy as np

        def column(attr, dtype):
            parts = [np.frombuffer(getattr(b, attr), dtype=dtype) for b in self._buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        thread = np.concatenate([np.full(len(b.dur), b.thread, dtype=np.int32)
                                 for b in self._buffers]) if self._buffers else np.zeros(0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), thread=thread,
                 name=column("name", np.uint32), parent=column("parent", np.int32),
                 start=column("start", np.float64), dur=column("dur", np.float64),
                 self_s=column("self_s", np.float64))
