"""Per-layer self time, measured from outside the program.

:class:`Tracer` wraps public functions of each layer at run time (the
program's source is untouched) and keeps, per thread, a stack of open
spans.  A span's *self time* is its duration minus the part covered by the
spans it opened; self time and call counts accumulate per layer and per
operation kind.  :meth:`Tracer.op` opens the root span of one benchmark
operation, whose self time is the residual no wrapped layer covers.

Wrappers are installed for a round and removed after it, so a traced run
alternates traced and untraced rounds and the difference in latency between
the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple


def _targets() -> Dict[str, List[Tuple[object, str]]]:
    """Layer name -> (owner, attribute) of each public entry point timed."""
    from repro.btree import btree, node
    from repro.cache import buffer_pool
    from repro.core import query as core_query
    from repro.fulltext import persistent_index
    from repro.integrity import checksum
    from repro.osd import object_store
    from repro.query import scored
    from repro.recovery import manager
    from repro.serve import batcher, protocol
    from repro.storage import block_device, journal
    from repro.telemetry import attribution, registry

    return {
        "fulltext.add_document": [(persistent_index.PersistentInvertedIndex, "add_document")],
        "btree.codec": [(node.LeafNode, "encode"), (node.InnerNode, "encode"),
                        (node, "decode_node")],
        # get() delegates to lookup(), so only lookup() is wrapped: each
        # point lookup counts once whichever of the two the caller used
        "btree.get": [(btree.BPlusTree, "lookup")],
        "btree.put": [(btree.BPlusTree, "put")],
        "integrity.frame": [(checksum, "frame_page"), (checksum, "verify_frame")],
        "recovery.log": [(manager.RecoveryManager, "log_page")],
        "recovery.commit": [(manager.RecoveryManager, "commit")],
        "recovery.checkpoint": [(buffer_pool.BufferPool, "flush"),
                                (journal.Journal, "checkpoint")],
        "recovery.replay": [(manager.RecoveryManager, "replay")],
        "storage.device": [(block_device.BlockDevice, "read_blocks"),
                           (block_device.BlockDevice, "write_blocks")],
        "osd.write": [(object_store.ObjectStore, "write")],
        "osd.read": [(object_store.ObjectStore, "read")],
        "osd.mount": [(object_store.ObjectStore, "mount")],
        "core.plan": [(core_query, "parse_query"),
                      (core_query.QueryPlanner, "order_conjuncts"),
                      (core_query.QueryPlanner, "push_down_disjunction")],
        "query.wand": [(scored.WandCursor, "top_k")],
        "telemetry.observe": [(registry.Histogram, "observe")],
        "telemetry.timed_lock": [(attribution.TimedLock, "acquire"),
                                 (attribution.TimedLock, "release")],
        "serve.decode": [(protocol, "decode_payload")],
        "serve.encode": [(protocol, "encode_frame")],
        "serve.ack_wait": [(batcher.WriteBatcher, "wait_durable")],
    }


#: engine entry points that, in the served workload, mark which kind of
#: request a worker thread is executing (so its layer time is attributed).
ENGINE_ROOTS = ("create", "find", "query", "rank", "read")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.op = "other"
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.op_self: Dict[Tuple[str, str], float] = defaultdict(float)
        self.op_calls: Dict[Tuple[str, str], int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []
        #: async waits (not on any thread's span stack): layer -> [seconds, calls]
        self.waits: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    def _close(self, state: _ThreadState, layer: str, frame: List[float],
               started: float) -> None:
        elapsed = perf_counter() - started
        state.stack.pop()
        if state.stack:
            state.stack[-1][0] += elapsed
        own = elapsed - frame[0]
        state.self_s[layer] += own
        state.calls[layer] += 1
        state.op_self[(state.op, layer)] += own
        state.op_calls[(state.op, layer)] += 1

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def waiting(*args, **kwargs):
                started = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    slot = tracer.waits[layer]
                    slot[0] += perf_counter() - started
                    slot[1] += 1
            return waiting

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            frame = [0.0]
            state.stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, layer, frame, started)
        return wrapper

    def _root(self, kind: str, fn: Callable) -> Callable:
        """Engine entry point: attribute the calling thread's spans to ``kind``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            previous, state.op = state.op, kind
            try:
                return fn(*args, **kwargs)
            finally:
                state.op = previous
        return wrapper

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation (in-process workloads)."""
        state = self._state()
        previous, state.op = state.op, kind
        frame = [0.0]
        state.stack.append(frame)
        started = perf_counter()
        try:
            yield
        finally:
            self._close(state, "residual", frame, started)
            state.op = previous

    # -- install / remove ----------------------------------------------------

    def install(self, engine_roots: bool = False) -> None:
        for layer, targets in _targets().items():
            for owner, name in targets:
                self._patch(owner, name, lambda fn, layer=layer: self._wrap(layer, fn))
        if engine_roots:
            from repro.core.filesystem import HFADFileSystem
            for kind in ENGINE_ROOTS:
                self._patch(HFADFileSystem, kind,
                            lambda fn, kind=kind: self._root(kind, fn))

    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return
        # A module-level function: rebind it in every module that imported it.
        original = getattr(owner, name)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                self._saved.append((module, name, original))
                setattr(module, name, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    # -- totals --------------------------------------------------------------

    def totals(self):
        """(self seconds per layer, calls per layer, per (op, layer) seconds
        and calls), summed over every thread."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        op_self: Dict[Tuple[str, str], float] = defaultdict(float)
        op_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.calls.items():
                calls[key] += value
            for key, value in state.op_self.items():
                op_self[key] += value
            for key, value in state.op_calls.items():
                op_calls[key] += value
        for layer, (seconds, count) in self.waits.items():
            self_s[layer] += seconds
            calls[layer] += count
        return self_s, calls, op_self, op_calls
