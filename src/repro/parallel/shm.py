"""Process-backed tile execution over POSIX shared memory.

The thread-based :class:`~repro.parallel.executor.TileExecutor` escapes
the GIL only inside BLAS calls; the DES engine, the vector-ISA emulator
and the scheduler bookkeeping around them are pure Python and therefore
single-core-bound. This module provides the process escape hatch while
keeping the two properties the substrate is built on:

1. **Zero-copy operands.** A :class:`SharedArena` owns
   ``multiprocessing.shared_memory`` segments and hands out NumPy views
   with the same checkout/release lease protocol as
   :class:`~repro.blas.buffers.BufferPool` (double release and foreign
   buffers raise :class:`SharedArenaError`; ``active`` exposes leaks).
   The matrix being factored, the pack-cache tile panels and the buffer
   -pool workspaces all live *inside* the arena, so child processes map
   the same physical pages — nothing is serialized.
2. **Descriptors, never payloads.** Work crosses the worker pipes as
   :class:`ArrayRef` descriptors — (segment, offset, shape, strides,
   dtype) tuples plus scalar task parameters. Sending a NumPy array
   raises :class:`TypeError` (the payload guard), and every pipe
   message's pickled size is counted (``pipe_task_bytes`` /
   ``pipe_max_message_bytes``) so tests can assert the steady-state
   path ships kilobytes, not matrices.

Determinism is inherited, not re-proven: every task writes a disjoint
slice of shared output (GEMM row stripes, LU column panels), and the
workers replay byte-for-byte the same kernel calls the serial and
thread paths make, so results are bitwise identical at any worker
count and across ``executor="thread" | "process"``.

Worker tasks are plain module-level functions registered with
:func:`shm_task`; the parent names them over the pipe as
``(module, name)`` so a spawn-started worker can import them (fork
inherits the registry for free).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from contextlib import contextmanager
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.parallel.executor import default_workers

try:  # NumPy >= 2.0 moved byte_bounds out of the top-level namespace.
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - NumPy 1.x
    _byte_bounds = np.byte_bounds

#: Arena block alignment: one cache line, so every checkout view starts
#: on the boundary BLAS kernels prefer.
_ALIGN = 64

#: Default size of each shared segment; big requests get a segment of
#: their own, so this only bounds how often small checkouts grow the
#: arena.
DEFAULT_SEGMENT_BYTES = 16 << 20


class SharedArenaError(RuntimeError):
    """An arena-protocol violation (double release, foreign buffer,
    use after destroy)."""


class ArrayRef(NamedTuple):
    """A pipe-safe handle to an array living in a shared segment."""

    segment: str
    offset: int
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]
    dtype: str


def _aligned(nbytes: int) -> int:
    return max(_ALIGN, (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without letting this process's
    resource tracker claim ownership.

    The arena's creating process is the sole owner; a tracker entry in
    an attaching worker either unlinks the parent's live segment when
    the worker's own tracker exits (spawn — bpo-38119) or, with fork's
    shared tracker, double-removes the parent's registration. Python
    3.13 has ``track=False`` for exactly this; earlier versions get the
    registration suppressed for the duration of the attach (workers are
    single-threaded, so the swap cannot race)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _close_segment(shm: shared_memory.SharedMemory) -> None:
    """Best-effort close: NumPy views created over ``shm.buf`` keep the
    exported memoryview alive, and ``close()`` then raises BufferError.
    The mapping is reclaimed when the last view dies, so skipping the
    eager close is safe — the segment itself is already unlinked."""
    try:
        shm.close()
    except BufferError:
        pass


class SharedArena:
    """A lease-tracked arena of shared-memory NumPy buffers.

    The protocol mirrors :class:`~repro.blas.buffers.BufferPool` —
    :meth:`checkout` / :meth:`release` / :meth:`rent`, best-fit reuse of
    freed blocks, leak detection — with two additions: the backing
    storage is OS shared memory that child processes attach by name,
    and :meth:`ref_of` turns any view into (or slice of) the arena into
    a pipe-safe :class:`ArrayRef` that :meth:`resolve` rebuilds on the
    other side without copying a byte.
    """

    def __init__(
        self,
        name: str = "parallel.shm_arena",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        if segment_bytes < _ALIGN:
            raise ValueError("segment_bytes is too small to hold a block")
        self.name = name
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._bases: Dict[str, np.ndarray] = {}  # uint8 view per segment
        self._used: Dict[str, int] = {}  # bump pointer per segment
        #: Free blocks as (nbytes, segment, offset), sorted by size.
        self._free: List[Tuple[int, str, int]] = []
        #: id(view) -> (view, segment, offset, block nbytes, dtype, key).
        #: Like BufferPool, the dtype travels with the lease: spans are
        #: raw bytes and freely reused across precisions, but a live SP
        #: lease can never alias a live DP lease's bytes.
        self._leases: Dict[int, Tuple[np.ndarray, str, int, int, str, str]] = {}
        self._destroyed = False
        # -- counters ----------------------------------------------------
        self.checkouts = 0
        self.releases = 0
        self.segments_created = 0
        self.reuses = 0
        self.bytes_served = 0
        self.arena_bytes = 0
        self.peak_bytes = 0
        self.by_key: Dict[str, int] = {}
        self.by_dtype: Dict[str, int] = {}  # checkouts per dtype str

    # -- segment management ----------------------------------------------------
    def _new_segment(self, min_bytes: int) -> str:
        size = max(self.segment_bytes, _aligned(min_bytes))
        shm = shared_memory.SharedMemory(create=True, size=size)
        self._segments[shm.name] = shm
        self._bases[shm.name] = np.frombuffer(shm.buf, dtype=np.uint8)
        self._used[shm.name] = 0
        self.segments_created += 1
        self.arena_bytes += size
        if self.arena_bytes > self.peak_bytes:
            self.peak_bytes = self.arena_bytes
        return shm.name

    def _take(self, nbytes: int) -> Tuple[str, int, int]:
        """A (segment, offset, block_nbytes) span of at least ``nbytes``
        (lock held): best-fit from the free list, else bump-allocated
        from a segment with tail room, else a fresh segment."""
        for i, (size, seg, off) in enumerate(self._free):
            if size >= nbytes:  # sorted: first fit = best fit
                self._free.pop(i)
                self.reuses += 1
                return seg, off, size
        for seg, shm in self._segments.items():
            if shm.size - self._used[seg] >= nbytes:
                off = self._used[seg]
                self._used[seg] += nbytes
                return seg, off, nbytes
        seg = self._new_segment(nbytes)
        self._used[seg] = nbytes
        return seg, 0, nbytes

    # -- checkout / release ----------------------------------------------------
    def checkout(self, shape: tuple, dtype, key: str = "anonymous") -> np.ndarray:
        """A C-contiguous shared view of the requested geometry.

        Contents are undefined; must be released exactly once.
        """
        with self._lock:
            if self._destroyed:
                raise SharedArenaError(f"{self.name}: checkout after destroy")
            shape = tuple(int(s) for s in shape)
            dtype = np.dtype(dtype)
            nbytes = _aligned(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
            seg, off, block = self._take(nbytes)
            view = np.ndarray(
                shape, dtype=dtype, buffer=self._segments[seg].buf, offset=off
            )
            self._leases[id(view)] = (view, seg, off, block, dtype.name, key)
            self.checkouts += 1
            self.bytes_served += nbytes
            self.by_key[key] = self.by_key.get(key, 0) + 1
            self.by_dtype[dtype.name] = self.by_dtype.get(dtype.name, 0) + 1
        return view

    def release(self, buf: np.ndarray) -> None:
        """Return a checked-out view; raises on double/foreign release."""
        with self._lock:
            lease = self._leases.pop(id(buf), None)
            if lease is None:
                raise SharedArenaError(
                    f"{self.name}: buffer is not leased "
                    "(double release, or not from this arena)"
                )
            _view, seg, off, block, _dtype, _key = lease
            self._insert_free((block, seg, off))
            self.releases += 1

    def _insert_free(self, entry: Tuple[int, str, int]) -> None:
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < entry[0]:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, entry)

    @contextmanager
    def rent(self, shape: tuple, dtype, key: str = "anonymous"):
        buf = self.checkout(shape, dtype, key=key)
        try:
            yield buf
        finally:
            self.release(buf)

    def adopt(self, array: np.ndarray, key: str = "adopt") -> np.ndarray:
        """Copy ``array`` into the arena and return the shared view."""
        view = self.checkout(array.shape, array.dtype, key=key)
        np.copyto(view, array)
        return view

    # -- descriptors -----------------------------------------------------------
    def ref_of(self, array: np.ndarray) -> Optional[ArrayRef]:
        """The :class:`ArrayRef` of an array whose bytes live inside one
        of this arena's segments (any view or slice of a checkout), or
        ``None`` when the array is ordinary process-private memory."""
        array = np.asarray(array)
        lo, hi = _byte_bounds(array)
        with self._lock:
            for seg, base in self._bases.items():
                b0 = base.__array_interface__["data"][0]
                if b0 <= lo and hi <= b0 + base.nbytes:
                    return ArrayRef(
                        seg, lo - b0, array.shape, array.strides, array.dtype.str
                    )
        return None

    def resolve(self, ref: ArrayRef) -> np.ndarray:
        """Rebuild the view a ref describes (parent-side symmetry with
        the worker's :class:`AttachedSegments`)."""
        with self._lock:
            shm = self._segments.get(ref.segment)
        if shm is None:
            raise SharedArenaError(f"{self.name}: unknown segment {ref.segment!r}")
        return np.ndarray(
            ref.shape,
            dtype=np.dtype(ref.dtype),
            buffer=shm.buf,
            offset=ref.offset,
            strides=ref.strides,
        )

    # -- substrate factories ---------------------------------------------------
    def buffer_pool(self, name: str = "blas.buffer_pool"):
        """A :class:`~repro.blas.buffers.BufferPool` whose backing blocks
        live in this arena — every buffer it issues is ref-addressable
        by worker processes. (Lazy import: the blas layer must not load
        just because the parallel package did.)"""
        from repro.blas.buffers import BufferPool

        return BufferPool(name=name, arena=self)

    def pack_cache(self):
        """A :class:`~repro.blas.workspace.PackCache` whose cached panels
        are allocated from this arena (and released back to it on
        invalidation), so packed tiles are shared with the workers."""
        from repro.blas.workspace import PackCache

        return PackCache(
            alloc=lambda shape, dtype: self.checkout(shape, dtype, key="pack.panel"),
            free=self.release,
        )

    # -- introspection / lifecycle ---------------------------------------------
    @property
    def active(self) -> int:
        with self._lock:
            return len(self._leases)

    def active_keys(self) -> List[str]:
        with self._lock:
            return sorted(key for (*_rest, key) in self._leases.values())

    def active_leases(self) -> List[Tuple[str, str, int]]:
        """``(key, dtype, nbytes)`` per outstanding lease — the dtype
        column mirrors :meth:`BufferPool.active_leases` so the
        cross-precision aliasing property tests cover both arenas."""
        with self._lock:
            return sorted(
                (key, dt, view.nbytes)
                for (view, _s, _o, _b, dt, key) in self._leases.values()
            )

    @property
    def segment_names(self) -> List[str]:
        with self._lock:
            return list(self._segments)

    def destroy(self) -> None:
        """Unlink every segment (idempotent). Live views keep their
        mapping until they are garbage collected; new checkouts fail."""
        with self._lock:
            if self._destroyed:
                return
            self._destroyed = True
            segments = list(self._segments.values())
            self._segments.clear()
            self._bases.clear()
            self._used.clear()
            self._free.clear()
            self._leases.clear()
            self.arena_bytes = 0
        for shm in segments:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _close_segment(shm)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.destroy()
        except Exception:
            pass

    # -- observability ---------------------------------------------------------
    def publish(self, metrics) -> None:
        if metrics is None:
            return
        metrics.counter(f"{self.name}.checkouts").inc(self.checkouts)
        metrics.counter(f"{self.name}.releases").inc(self.releases)
        metrics.counter(f"{self.name}.segments").inc(self.segments_created)
        metrics.counter(f"{self.name}.reuses").inc(self.reuses)
        metrics.counter(f"{self.name}.bytes_served").inc(self.bytes_served)
        metrics.gauge(f"{self.name}.arena_bytes").set(self.arena_bytes)
        metrics.gauge(f"{self.name}.peak_bytes").update_max(self.peak_bytes)
        metrics.gauge(f"{self.name}.active").set(self.active)
        for dt, count in sorted(self.by_dtype.items()):
            metrics.counter(f"{self.name}.checkouts.{dt}").inc(count)

    def __repr__(self) -> str:
        return (
            f"SharedArena({self.name}: {len(self._segments)} segments, "
            f"{self.arena_bytes} bytes, {self.active} active)"
        )


# ---------------------------------------------------------------------------
# Worker-side machinery
# ---------------------------------------------------------------------------

#: Registered worker tasks: name -> (defining module, function).
_TASKS: Dict[str, Tuple[str, Callable]] = {}


def shm_task(name: str):
    """Register a module-level function as a process-executor task.

    The function receives the worker's :class:`WorkerContext` first,
    then the task's keyword parameters; its return value (descriptors
    and scalars only) travels back over the pipe.
    """

    def deco(fn: Callable) -> Callable:
        _TASKS[name] = (fn.__module__, fn)
        return fn

    return deco


def _lookup_task(module: str, name: str) -> Callable:
    entry = _TASKS.get(name)
    if entry is None:
        __import__(module)  # registers via the shm_task decorator
        entry = _TASKS.get(name)
    if entry is None:
        raise KeyError(f"no shm task {name!r} registered by module {module!r}")
    return entry[1]


class AttachedSegments:
    """A worker's lazy, name-keyed cache of attached shared segments."""

    def __init__(self):
        self._shms: Dict[str, shared_memory.SharedMemory] = {}

    def resolve(self, ref: ArrayRef) -> np.ndarray:
        shm = self._shms.get(ref.segment)
        if shm is None:
            shm = self._shms[ref.segment] = _attach_segment(ref.segment)
        return np.ndarray(
            ref.shape,
            dtype=np.dtype(ref.dtype),
            buffer=shm.buf,
            offset=ref.offset,
            strides=ref.strides,
        )

    def close(self) -> None:
        for shm in self._shms.values():
            _close_segment(shm)
        self._shms.clear()


class WorkerContext:
    """Per-worker state handed to every task: the attached segments plus
    a free-form ``state`` dict that setup tasks populate (the worker's
    own LU workspace, pack cache, buffer pool, ...)."""

    def __init__(self):
        self.segments = AttachedSegments()
        self.state: Dict[str, object] = {}

    def resolve(self, ref) -> np.ndarray:
        return self.segments.resolve(ArrayRef(*ref))


def _worker_main(conn) -> None:
    """The worker loop: receive (setup | batch | stop) messages, execute
    registered tasks, reply ("ok", results, busy_seconds) or
    ("err", traceback)."""
    ctx = WorkerContext()
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            msg = pickle.loads(raw)
            if msg[0] == "stop":
                conn.send_bytes(pickle.dumps(("bye",)))
                break
            try:
                t0 = time.perf_counter()
                if msg[0] == "setup":
                    _kind, module, name, kwargs = msg
                    fn = _lookup_task(module, name)
                    results = [fn(ctx, **kwargs)]
                elif msg[0] == "batch":
                    _kind, module, name, common, items = msg
                    fn = _lookup_task(module, name)
                    results = [fn(ctx, **common, **item) for item in items]
                else:
                    raise ValueError(f"unknown message kind {msg[0]!r}")
                busy = time.perf_counter() - t0
                conn.send_bytes(pickle.dumps(("ok", results, busy)))
            except BaseException:
                conn.send_bytes(pickle.dumps(("err", traceback.format_exc())))
    finally:
        ctx.segments.close()
        conn.close()


def _assert_no_arrays(obj, where: str) -> None:
    """The payload guard: descriptors must never smuggle an ndarray."""
    if isinstance(obj, np.ndarray):
        raise TypeError(
            f"{where}: NumPy arrays must not cross the worker pipe — "
            "pass an ArrayRef into the shared arena instead"
        )
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_arrays(k, where)
            _assert_no_arrays(v, where)
    elif isinstance(obj, (list, tuple, set, frozenset)) and not isinstance(
        obj, ArrayRef
    ):
        for v in obj:
            _assert_no_arrays(v, where)


class ProcessTileExecutor:
    """A pool of worker *processes* behind the TileExecutor interface.

    Differences from the thread executor, by design:

    * :meth:`run_tasks` is the native entry point — named, registered
      tasks with descriptor parameters, fanned round-robin and executed
      in the workers against the shared arena;
    * :meth:`map` (the closure-based thread API) runs inline: closures
      capture process-private arrays, so shipping them would violate
      the zero-payload contract. Call sites that want process fan-out
      go through descriptors;
    * workers are started eagerly at construction, *before* the caller
      spawns any helper threads — forking later from a multithreaded
      parent risks inheriting held locks.
    """

    backend = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_method: Optional[str] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else default_workers()
        if start_method is None:
            start_method = "fork" if "fork" in get_all_start_methods() else None
        self._ctx = get_context(start_method)
        self.arena = SharedArena(segment_bytes=segment_bytes)
        self._procs: list = []
        self._conns: list = []
        self._lock = threading.RLock()
        self._closed = False
        # -- counters (same names as TileExecutor, plus the pipe probe) --
        self.tasks = 0
        self.maps = 0
        self.inline_maps = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.setup_calls = 0
        self.pipe_messages = 0
        self.pipe_task_bytes = 0
        self.pipe_max_message_bytes = 0
        self._start_workers()

    # -- lifecycle -------------------------------------------------------------
    def _start_workers(self) -> None:
        for _ in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def close(self) -> None:
        """Stop the workers and unlink the arena (idempotent). Unlike
        the thread executor, a closed process executor stays closed —
        its shared state is gone."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                try:
                    conn.send_bytes(pickle.dumps(("stop",)))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            for conn in self._conns:
                conn.close()
            self._procs.clear()
            self._conns.clear()
        self.arena.destroy()

    def __enter__(self) -> "ProcessTileExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------------
    def _send(self, conn, message: tuple) -> None:
        blob = pickle.dumps(message)
        self.pipe_messages += 1
        self.pipe_task_bytes += len(blob)
        if len(blob) > self.pipe_max_message_bytes:
            self.pipe_max_message_bytes = len(blob)
        conn.send_bytes(blob)

    @staticmethod
    def _recv(conn):
        try:
            reply = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise RuntimeError("process executor worker died") from exc
        if reply[0] == "err":
            raise RuntimeError(f"worker task failed:\n{reply[1]}")
        return reply

    def setup(self, task: str, **kwargs) -> List:
        """Broadcast a registered task to every worker (worker-local
        state initialisation: attach the matrix, build caches, ...)."""
        _assert_no_arrays(kwargs, f"setup({task!r})")
        with self._lock:
            if self._closed:
                raise RuntimeError("process executor is closed")
            module, _fn = _TASKS[task]
            for conn in self._conns:
                self._send(conn, ("setup", module, task, kwargs))
            out = []
            for conn in self._conns:
                reply = self._recv(conn)
                out.extend(reply[1])
            self.setup_calls += 1
        return out

    def run_tasks(self, task: str, items: List[dict], common: Optional[dict] = None) -> List:
        """Execute ``task`` for every descriptor dict in ``items`` across
        the workers (round-robin shards, one batch message per worker);
        returns results in item order. ``common`` parameters are sent
        once per batch instead of once per item."""
        common = common or {}
        _assert_no_arrays(items, f"run_tasks({task!r})")
        _assert_no_arrays(common, f"run_tasks({task!r})")
        if not items:
            return []
        with self._lock:
            if self._closed:
                raise RuntimeError("process executor is closed")
            module, _fn = _TASKS[task]
            t0 = time.perf_counter()
            shards = [
                (w, items[w :: len(self._conns)]) for w in range(len(self._conns))
            ]
            engaged = [(w, shard) for w, shard in shards if shard]
            for w, shard in engaged:
                self._send(self._conns[w], ("batch", module, task, common, shard))
            results: List = [None] * len(items)
            for w, shard in engaged:
                reply = self._recv(self._conns[w])
                self.busy_s += reply[2]
                for j, value in enumerate(reply[1]):
                    results[w + j * len(self._conns)] = value
            self.tasks += len(items)
            self.maps += 1
            self.wall_s += time.perf_counter() - t0
        return results

    def map(self, fn: Callable, items: Iterable) -> List:
        """TileExecutor-compatible closure map — runs inline (closures
        capture process-private memory, which must not cross the pipe).
        Descriptor-based call sites use :meth:`run_tasks` instead."""
        work = list(items)
        t0 = time.perf_counter()
        out = [fn(item) for item in work]
        dt = time.perf_counter() - t0
        with self._lock:
            self.tasks += len(work)
            self.maps += 1
            self.inline_maps += 1
            self.busy_s += dt
            self.wall_s += dt
        return out

    # -- observability ---------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Busy-seconds over worker-seconds across all dispatches.
        Guarded: a trivially fast dispatch can round wall_s to 0.0."""
        if self.wall_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.workers))

    def publish(self, metrics) -> None:
        if metrics is None:
            return
        metrics.counter("parallel.tasks").inc(self.tasks)
        metrics.counter("parallel.maps").inc(self.maps)
        metrics.counter("parallel.maps_inline").inc(self.inline_maps)
        metrics.gauge("parallel.pool.workers").set(self.workers)
        metrics.gauge("parallel.pool.utilization").set(round(self.utilization, 4))
        metrics.timer("parallel.pool.busy").add(self.busy_s, count=max(1, self.maps))
        metrics.gauge(f"parallel.pool.backend.{self.backend}").set(1)
        metrics.counter("parallel.pipe.messages").inc(self.pipe_messages)
        metrics.counter("parallel.pipe.task_bytes").inc(self.pipe_task_bytes)
        metrics.gauge("parallel.pipe.max_message_bytes").update_max(
            self.pipe_max_message_bytes
        )
        self.arena.publish(metrics)

    def __repr__(self) -> str:
        return (
            f"ProcessTileExecutor(workers={self.workers}, tasks={self.tasks}, "
            f"pipe_bytes={self.pipe_task_bytes})"
        )


def is_process_executor(executor) -> bool:
    """True for an executor whose fan-out crosses process boundaries."""
    return getattr(executor, "backend", "thread") == "process"
