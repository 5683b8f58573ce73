"""The tile executor: a reusable thread pool for independent tile work.

Design constraints, in order:

1. **Bitwise determinism.** Every work item handed to
   :meth:`TileExecutor.map` must write a disjoint slice of the output
   (the GEMM row stripes of one outer product). Under that contract the pool cannot change
   any floating-point reduction order, so serial and parallel runs —
   and runs at different worker counts — produce bitwise-identical
   results. The executor enforces nothing numerically; it preserves
   whatever the decomposition guarantees.
2. **No nested pools.** A worker thread that calls ``map`` again (on
   *any* executor) runs the items inline — one level of the hierarchy
   owns the cores, the rest degrade to serial.
3. **Cheap reuse.** The pool is created lazily on the first parallel
   ``map`` and reused for the executor's lifetime; scratch buffers are
   thread-local and keyed by (role tag, shape, dtype) so hot loops never
   re-allocate accumulators.

Observability: ``parallel.tasks`` / ``parallel.maps`` counters, a
``parallel.pool.busy`` timer (sum of in-task seconds), and
``parallel.pool.workers`` / ``parallel.pool.utilization`` gauges,
published through :meth:`TileExecutor.publish`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Process-wide flag: is the *current thread* a tile-executor worker?
#: Shared by all executors so hierarchical fan-out never nests pools.
_worker_ctx = threading.local()

#: Thread-local scratch buffers keyed by (shape, dtype) — the
#: preallocated accumulators of the GEMM stripe path.
_scratch = threading.local()


def default_workers() -> int:
    """Pool width when none is given: ``REPRO_WORKERS`` or all cores."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError("REPRO_WORKERS must be >= 1")
        return value
    return os.cpu_count() or 1


def scratch_buffer(shape: tuple, dtype: np.dtype, tag: str = "") -> np.ndarray:
    """A reusable per-thread array of the requested geometry.

    ``tag`` names the buffer's role, so two roles that happen to share
    a geometry never get the same array. Contents are undefined on
    return; callers must fully overwrite it (e.g. via
    ``np.matmul(..., out=buf)``).
    """
    cache = getattr(_scratch, "buffers", None)
    if cache is None:
        cache = _scratch.buffers = {}
    key = (tag, tuple(shape), np.dtype(dtype).str)
    buf = cache.get(key)
    if buf is None:
        buf = cache[key] = np.empty(shape, dtype=dtype)
    return buf


def in_worker() -> bool:
    """True when called from inside a tile-executor worker thread."""
    return getattr(_worker_ctx, "active", False)


class TileExecutor:
    """A persistent thread pool for disjoint-output tile work.

    Parameters
    ----------
    workers:
        Pool width. ``None`` resolves via :func:`default_workers`
        (``REPRO_WORKERS`` or all cores); ``1`` runs everything inline.
    """

    #: Execution backend tag, mirrored by ProcessTileExecutor ("process")
    #: and published as the parallel.pool.backend.<name> gauge.
    backend = "thread"

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else default_workers()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        # -- counters (guarded by _lock where raced) --------------------
        self.tasks = 0
        self.maps = 0
        self.inline_maps = 0
        self.busy_s = 0.0
        self.wall_s = 0.0

    # -- lifecycle -------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-tile"
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor stays usable —
        the next parallel ``map`` recreates the pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; returns results in item order.

        Runs inline (serial, in submission order) when the pool width is
        1, when there is at most one item, or when called from inside
        any executor's worker thread (no nested pools). ``fn`` must only
        write output regions disjoint from every other item's.
        """
        work = list(items)
        t0 = time.perf_counter()
        if self.workers <= 1 or len(work) <= 1 or in_worker():
            out = [fn(item) for item in work]
            dt = time.perf_counter() - t0
            with self._lock:
                self.tasks += len(work)
                self.maps += 1
                self.inline_maps += 1
                self.busy_s += dt
                self.wall_s += dt
            return out

        def run(item: T) -> R:
            _worker_ctx.active = True
            t1 = time.perf_counter()
            try:
                return fn(item)
            finally:
                dt1 = time.perf_counter() - t1
                with self._lock:
                    self.busy_s += dt1

        pool = self._ensure_pool()
        out = list(pool.map(run, work))
        with self._lock:
            self.tasks += len(work)
            self.maps += 1
            self.wall_s += time.perf_counter() - t0
        return out

    # -- observability ---------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Busy-seconds over worker-seconds across all maps (0..1).

        Guarded against ``wall_s == 0``: a trivially fast map (empty
        work list, sub-resolution clock tick) must publish utilization
        0.0, never divide by zero.
        """
        if self.wall_s <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.workers))

    def publish(self, metrics) -> None:
        """Copy the executor's counters into a MetricsRegistry."""
        if metrics is None:
            return
        metrics.counter("parallel.tasks").inc(self.tasks)
        metrics.counter("parallel.maps").inc(self.maps)
        metrics.counter("parallel.maps_inline").inc(self.inline_maps)
        metrics.gauge("parallel.pool.workers").set(self.workers)
        metrics.gauge("parallel.pool.utilization").set(round(self.utilization, 4))
        metrics.timer("parallel.pool.busy").add(self.busy_s, count=max(1, self.maps))
        metrics.gauge(f"parallel.pool.backend.{self.backend}").set(1)

    def __repr__(self) -> str:
        return f"TileExecutor(workers={self.workers}, tasks={self.tasks})"


def as_executor(executor) -> Optional[TileExecutor]:
    """Coerce ``None | int | TileExecutor`` into an executor (or None).

    ``None`` stays None (pure inline execution, no pool machinery);
    an int becomes a fresh executor of that width.
    """
    if executor is None:
        return None
    if isinstance(executor, TileExecutor):
        return executor
    if getattr(executor, "backend", None) == "process" and hasattr(executor, "map"):
        return executor  # a ProcessTileExecutor passes straight through
    if isinstance(executor, (int, np.integer)):
        return TileExecutor(int(executor))
    raise TypeError(f"executor must be None, an int or a TileExecutor, got {executor!r}")


#: Executor backends selectable via RunSpec.executor / --executor.
EXECUTOR_BACKENDS = ("thread", "process")


def make_executor(backend: str = "thread", workers: Optional[int] = None):
    """Build an executor of the requested backend.

    ``"thread"`` is the GIL-sharing :class:`TileExecutor`; ``"process"``
    is the shared-memory :class:`~repro.parallel.shm.ProcessTileExecutor`
    (imported lazily so plain thread runs never touch multiprocessing).
    Both honor the same ``workers`` convention (None resolves via
    :func:`default_workers`).

    Inside a child process — a campaign or benchmark-service pool
    worker — ``"process"`` downgrades to the thread executor with a
    warning instead of forking grandchild pools: nested process trees
    oversubscribe cores, multiply fixed spawn cost, and leak when the
    middle layer is killed. The no-nested-pools rule the thread executor
    enforces per thread (see :func:`in_worker`) applies per process here.
    """
    if backend in (None, "thread"):
        return TileExecutor(workers)
    if backend == "process":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            import warnings

            warnings.warn(
                "executor='process' requested inside a child process; "
                "using the thread executor instead of nesting pools",
                RuntimeWarning,
                stacklevel=2,
            )
            return TileExecutor(workers)
        from repro.parallel.shm import ProcessTileExecutor

        return ProcessTileExecutor(workers)
    raise ValueError(
        f"executor backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
    )
