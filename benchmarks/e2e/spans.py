"""Outside-in span tracing for the end-to-end benchmark.

The benchmark does not change the program to trace it. Instead,
:func:`install` swaps the public functions each layer is called through,
as bound at their import sites, for wrappers that record one span per
call. Spans stay in memory (:class:`Tracer`) and are written once, at
exit, as a Chrome trace.

Each span records its name, start, end, track (one per thread, so one
per simulated rank), parent and run id. A span opened on a thread with
no open span of its own (a rank thread, say) takes as parent the
innermost open span of the thread that opened the run, so the rank
work of a redistribution nests under ``elastic.redistribute``.

A span's *self time* is its duration minus the part of that interval
its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "track", "parent", "run", "flops")

    def __init__(self, sid, name, start, track, parent, run):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.track = track
        self.parent = parent
        self.run = run
        self.flops = 0.0


class Tracer:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.enabled = False
        self.spans: List[Span] = []
        self.run_id = 0
        #: track -> simulated MPI rank, learned from Comm calls.
        self.track_rank: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._tracks = itertools.count(0)
        self._local = threading.local()
        self._main_stack: List[int] = []

    def _state(self) -> Tuple[int, List[int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.track = next(self._tracks)
        return local.track, local.stack

    def begin(self, name: str) -> Span:
        track, stack = self._state()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(next(self._ids), name, time.perf_counter(), track, parent,
                    self.run_id)
        stack.append(span.sid)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        _track, stack = self._state()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def run_span(self, name: str = "run"):
        """Open a new run on the calling thread; spans of other threads
        without an open parent nest under it."""
        self.run_id += 1
        _track, self._main_stack = self._state()
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)
            self._main_stack = []

    def record(self, name: str, start: float, end: float, track: int) -> None:
        """Add a span measured elsewhere (from protocol event times)."""
        span = Span(next(self._ids), name, start, track, None, self.run_id)
        span.end = end
        self.spans.append(span)

    def note_rank(self, rank: int) -> None:
        track, _stack = self._state()
        self.track_rank[track] = rank

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable, flops: Optional[Callable] = None,
             rank_of: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call made while
        the tracer is enabled. ``flops(args)`` attributes arithmetic to the
        span; ``rank_of(args)`` names the rank of the calling thread."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if rank_of is not None:
                tracer.note_rank(rank_of(args))
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if flops is not None:
                    span.flops = flops(args)
                tracer.finish(span)

        return wrapper

    # -- analysis ----------------------------------------------------------
    def run_spans(self, run_id: int) -> List[Span]:
        return [s for s in self.spans if s.run == run_id]

    def chrome_trace(self) -> dict:
        """Every recorded span as Chrome trace ``X`` events (µs)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": s.run,
                "tid": s.track,
                "args": {"id": s.sid, "parent": s.parent,
                         "rank": self.track_rank.get(s.track)},
            })
        for track, rank in sorted(self.track_rank.items()):
            for run in {s.run for s in self.spans if s.track == track}:
                events.append({"name": "thread_name", "ph": "M", "pid": run,
                               "tid": track, "args": {"name": f"rank {rank}"}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.sid, ()) if hi > s.start and lo < s.end]
        out[s.sid] = (s.end - s.start) - covered(kids)
    return out


# -- the wrapped surface ----------------------------------------------------

def _gemm_flops(args) -> float:
    a, b = args[0], args[1]
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _matmul_into_flops(args) -> float:
    a, b = args[1], args[2]
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _comm_rank(args) -> int:
    return args[0].rank


def _request_rank(args) -> int:
    return args[0]._comm.rank


#: (module, attribute, span name, flops, rank_of) for module functions,
#: wrapped as bound at each import site the drivers call through.
FUNCTIONS = [
    (mod, "getrf", "blas.getrf", None, None)
    for mod in ("repro.lu.tasks", "repro.cluster.hpl_mpi", "repro.hybrid.functional")
] + [
    (mod, "laswp", "blas.laswp", None, None)
    for mod in ("repro.lu.tasks", "repro.hybrid.functional")
] + [
    (mod, "trsm_lower_unit_left", "blas.trsm", None, None)
    for mod in ("repro.lu.tasks", "repro.cluster.hpl_mpi", "repro.hybrid.functional")
] + [
    (mod, "gemm", "blas.gemm", _gemm_flops, None)
    for mod in ("repro.lu.tasks", "repro.cluster.hpl_mpi")
] + [
    (mod, "matmul_into", "blas.gemm", _matmul_into_flops, None)
    for mod in ("repro.lu.tasks", "repro.cluster.hpl_mpi")
] + [
    (mod, "hpl_system", "hpl.matgen", None, None)
    for mod in ("repro.hpl.driver", "repro.cluster.hpl_mpi")
] + [
    ("repro.cluster.hpl_mpi", "hpl_submatrix", "hpl.matgen", None, None),
] + [
    (mod, "lu_solve", "hpl.solve", None, None)
    for mod in ("repro.hpl.driver", "repro.cluster.hpl_mpi")
] + [
    (mod, name, "hpl.verify", None, None)
    for mod in ("repro.hpl.driver", "repro.cluster.hpl_mpi")
    for name in ("hpl_residual", "residual_passes")
] + [
    # The distributed epilogue imports refine_to_double from its home
    # module at call time, so that binding is wrapped too.
    (mod, "refine_to_double", "hpl.refine", None, None)
    for mod in ("repro.hpl.driver", "repro.hpl.mxp")
] + [
    ("repro.cluster.hpl_mpi", "redistribute", "elastic.redistribute", None, None),
]

#: (module, class, method, span name, rank_of) for methods.
METHODS = [
    ("repro.lu.dynamic", "DynamicScheduler", "run", "lu.factor", None),
    ("repro.cluster.comm", "Comm", "send", "cluster.send", _comm_rank),
    ("repro.cluster.comm", "Comm", "isend", "cluster.send", _comm_rank),
    ("repro.cluster.comm", "Comm", "recv", "cluster.recv", _comm_rank),
    ("repro.cluster.comm", "RecvRequest", "wait", "cluster.recv", _request_rank),
    ("repro.cluster.comm", "SendRequest", "wait", "cluster.drain", _request_rank),
    ("repro.resilience.checkpoint", "CheckpointStore", "save",
     "resilience.ckpt_save", None),
    ("repro.resilience.checkpoint", "CheckpointStore", "load",
     "resilience.ckpt_load", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the whole surface; returns a function that restores it."""
    import importlib

    undo = []
    for mod_name, attr, name, flops, rank_of in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        setattr(mod, attr, tracer.wrap(name, original, flops=flops, rank_of=rank_of))
        undo.append((mod, attr, original))
    for mod_name, cls_name, attr, name, rank_of in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, rank_of=rank_of))
        undo.append((cls, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
