"""Run-time layer spans for the traced benchmark run.

The library carries no tracing of its own, so this module wraps the
public entry points of each layer from the outside, records one span per
call (name, start, end, parent span, request id) and accumulates per
layer: calls, total time, self time (duration minus the time its child
spans cover) and optional byte counts. Spans whose root is a service call
belong to a request; spans with any other root (rebuild, scrub, decoder
build) are offline work and are kept apart.

Wrappers are installed only around traced stretches and removed
afterwards, so untraced blocks run the unmodified code. A wrap point or
lock class missing from the library raises, so a rename cannot quietly
turn the metrics it feeds into zeros.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: (module, class or None, attribute, layer). Layers name the repository's
#: packages; ``syscall`` and ``fsync`` are the kernel calls under them.
WRAP_POINTS = (
    ("repro.service.scheduler", "BlockService", "read", "service"),
    ("repro.service.scheduler", "BlockService", "write", "service"),
    ("repro.service.volume", "VolumeService", "read", "service"),
    ("repro.service.volume", "VolumeService", "write", "service"),
    ("repro.volume.manager", "VolumeManager", "read_bytes", "volume"),
    ("repro.volume.manager", "VolumeManager", "write_bytes", "volume"),
    ("repro.raid.planner", "RequestPlanner", "plan_read_run", "raid"),
    ("repro.raid.planner", "RequestPlanner", "plan_write_run", "raid"),
    ("repro.raid.planner", "RequestPlanner", "plan_batch", "raid"),
    ("repro.store.array_store", "ArrayStore", "read_bytes", "store"),
    ("repro.store.array_store", "ArrayStore", "write_bytes", "store"),
    ("repro.store.array_store", "ArrayStore", "rebuild", "store"),
    ("repro.store.array_store", "ArrayStore", "scrub", "store"),
    ("repro.store.array_store", "ArrayStore", "_count", "meter"),
    ("repro.store.journal", "IntentJournal", "log", "journal"),
    ("repro.store.journal", "IntentJournal", "seal", "journal"),
    ("repro.store.journal", "IntentJournal", "commit", "journal"),
    ("repro.codes.base", "ArrayCode", "decoder_for", "codes"),
    ("repro.bitmatrix.schedule", "XorSchedule", "compile", "bitmatrix"),
    ("repro.codes.base", "Decoder", "decode_columns", "codec"),
    ("os", None, "pread", "syscall"),
    ("os", None, "pwrite", "syscall"),
    ("os", None, "preadv", "syscall"),
    ("os", None, "pwritev", "syscall"),
    ("os", None, "fsync", "fsync"),
)

#: Lock classes whose instances carry a ``wait_ms`` contention meter.
LOCK_CLASSES = ("FifoSemaphore", "ArrayRWLock", "StripeLockManager")

#: Raw spans kept for the span file (the first ones of the traced
#: blocks; a race between threads may keep a few more); aggregates cover
#: every span.
SPAN_CAP = 100_000


def _written(args, result) -> int:
    """Bytes a positional write syscall moved (its return value)."""
    return result if isinstance(result, int) else 0


def _decoded(args, result) -> int:
    """Bytes a ``decode_columns`` call reconstructed (full plan)."""
    decoder, stripe = args[0], args[1]
    return decoder.num_recovered * stripe.shape[-1]


BYTE_COUNTERS = {"pwrite": _written, "pwritev": _written,
                 "decode_columns": _decoded}


class _ThreadState:
    __slots__ = ("stack", "totals", "spans")

    def __init__(self) -> None:
        #: Open frames: [span id, request id, child ns].
        self.stack: list[list[int]] = []
        #: (layer, in_request) -> [calls, total ns, self ns, bytes]
        self.totals: dict = defaultdict(lambda: [0, 0, 0, 0])
        self.spans: list[tuple] = []


class Tracer:
    """Installs layer wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []
        self._gc_started: dict[int, int] = {}
        self.gc_ns = 0
        self.kept = 0
        self.locks: "weakref.WeakSet" = weakref.WeakSet()

    # -- lock registry (installed once, before set-up) -----------------
    def register_locks(self) -> None:
        """Remember every lock built from now on, to read its wait meter."""
        import repro.service.locks as locks

        for name in LOCK_CLASSES:
            cls = getattr(locks, name)
            init = cls.__init__

            def registering(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                self.locks.add(obj)

            cls.__init__ = registering

    def lock_wait_ms(self) -> float:
        return sum(lock.wait_ms for lock in list(self.locks))

    def syscall_bytes(self) -> int:
        """Bytes moved by the wrapped positional write syscalls so far."""
        return sum(entry[3] for (layer, _), entry in self.totals().items()
                   if layer == "syscall")

    # -- wrappers -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, layer: str, count_bytes):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span = next(tracer._ids)
            if stack:
                parent, request = stack[-1][0], stack[-1][1]
            else:
                parent, request = 0, span if layer == "service" else 0
            frame = [span, request, 0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][2] += took
                entry = state.totals[(layer, request != 0)]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[2]
                if count_bytes is not None:
                    entry[3] += count_bytes(args, result)
                if tracer.kept < SPAN_CAP:
                    tracer.kept += 1
                    state.spans.append(
                        (span, parent, request, layer, start, end,
                         threading.get_ident())
                    )

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        ident = threading.get_ident()
        if phase == "start":
            self._gc_started[ident] = time.perf_counter_ns()
        else:
            started = self._gc_started.pop(ident, None)
            if started is not None:
                self.gc_ns += time.perf_counter_ns() - started

    def install(self) -> None:
        import importlib

        for module_name, class_name, attr, layer in WRAP_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = (
                owner.__dict__.get(attr) if class_name else
                getattr(owner, attr, None)
            )
            if original is None:
                self.uninstall()
                name = ".".join(filter(None, (module_name, class_name, attr)))
                raise RuntimeError(f"wrap point {name} is missing")
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, layer, BYTE_COUNTERS.get(attr)))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- results --------------------------------------------------------
    def totals(self) -> dict:
        """(layer, in_request) -> [calls, total ns, self ns, bytes]."""
        merged: dict = defaultdict(lambda: [0, 0, 0, 0])
        for state in self._states:
            for key, entry in state.totals.items():
                into = merged[key]
                for i in range(4):
                    into[i] += entry[i]
        return merged

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(
            (span for state in self._states for span in state.spans),
            key=lambda span: span[4],
        )
        fields = ("span", "parent", "request", "layer", "start_ns",
                  "end_ns", "thread")
        with open(path, "w") as out:
            for span in spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
        return len(spans)


def proc_io() -> dict[str, int]:
    """This process's kernel I/O counters (``/proc/self/io``), plus the
    size of the one read that fetched them under ``"own_bytes"``."""
    with open("/proc/self/io", "rb", buffering=0) as handle:
        raw = handle.read(4096)
    counters = {
        key: int(value)
        for key, value in (line.split(": ") for line in
                           raw.decode().splitlines())
    }
    counters["own_bytes"] = len(raw)
    return counters


def io_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Counter growth between two snapshots, less the one ``read`` that
    took ``before`` (the kernel counts it once it returns)."""
    delta = {key: after[key] - before[key] for key in before}
    delta["rchar"] -= before["own_bytes"]
    delta["syscr"] -= 1
    return delta


def peak_rss_mib() -> float:
    """Peak resident set size of this process, MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

