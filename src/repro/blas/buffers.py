"""Buffer arena: pooled scratch memory for the allocation-free hot paths.

The paper's DGEMM/LU design is an exercise in controlling memory
behaviour — pack once, block for L2, never touch a line you don't need
(Sections III-A1/A2). The functional layer's hidden enemy is the NumPy
temporary: every ``np.outer`` rank-1 update, fancy-index row swap and
``L21 @ U12`` product allocates (and immediately discards) a fresh
array, so the "hot" loops spend their time in the allocator instead of
the kernels. :class:`BufferPool` is the fix: a keyed arena of reusable
scratch blocks with checkout/release semantics that the kernels thread
``out=`` parameters into, so steady-state stages allocate nothing.

Design:

* **arena blocks** — the pool owns flat byte arrays; a checkout carves a
  ``(shape, dtype)`` view off the smallest free block that fits (best
  fit), allocating a new block only when none does. Releasing returns
  the block to the free list, so a loop whose request sizes shrink (an
  LU factorization's trailing updates) reuses one block for every
  stage;
* **keys** — checkouts are tagged (``"getf2.rank1"``, ``"laswp.gather"``,
  ``"comm.segment"``, ...) purely for accounting: per-key rent counts
  identify which kernel is churning;
* **leak detection** — every checkout must be released exactly once;
  releasing a buffer twice (or one the pool never issued) raises
  :class:`BufferPoolError`, and :attr:`BufferPool.active` exposes the
  outstanding count so tests can assert nothing leaked;
* **thread safety** — the free list and lease table are lock-protected;
  tile-executor workers checkout/release concurrently. The pool hands
  out disjoint blocks, so the
  :class:`~repro.parallel.TileExecutor` disjoint-write contract (and
  with it bitwise determinism at any worker count) is preserved.

Counters (published to a :class:`~repro.obs.metrics.MetricsRegistry`
via :meth:`BufferPool.publish`): ``blas.buffer_pool.checkouts`` /
``.releases`` / ``.allocations`` / ``.reuses`` / ``.bytes_served``,
plus ``.arena_bytes`` / ``.peak_bytes`` gauges.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np


class BufferPoolError(RuntimeError):
    """A pool-protocol violation (double release, foreign buffer)."""


class BufferPool:
    """An arena of reusable, shape/dtype-tagged scratch arrays.

    With ``arena`` set to a :class:`~repro.parallel.shm.SharedArena`,
    the pool's backing blocks are carved out of shared memory instead
    of private ``np.empty`` allocations — every buffer the pool issues
    is then addressable by child processes through an
    :class:`~repro.parallel.shm.ArrayRef`, which is how the process
    executor's GEMM stripes consume pool-staged operands without a
    copy. The checkout/release protocol, the best-fit reuse and the
    lease accounting are identical either way.
    """

    def __init__(self, name: str = "blas.buffer_pool", arena=None):
        self.name = name
        self.arena = arena
        self._lock = threading.Lock()
        #: Free arena blocks (1-D uint8), kept sorted by size for best fit.
        self._free: List[np.ndarray] = []
        #: Outstanding leases: id(view) -> (view, backing block, key, dtype).
        #: The dtype is part of the lease identity: a view is only ever
        #: handed out at exactly the requested precision (blocks are raw
        #: bytes, so reuse across dtypes is safe — but a *live* lease can
        #: never alias another dtype's bytes).
        self._leases: Dict[int, Tuple[np.ndarray, np.ndarray, str, str]] = {}
        # -- counters ----------------------------------------------------
        self.checkouts = 0
        self.releases = 0
        self.allocations = 0  # checkouts that had to allocate a new block
        self.reuses = 0  # checkouts served from the free list
        self.bytes_served = 0  # sum of checked-out view sizes
        self.arena_bytes = 0  # total bytes owned (free + leased blocks)
        self.peak_bytes = 0  # high-water mark of arena_bytes
        self.by_key: Dict[str, int] = {}
        self.by_dtype: Dict[str, int] = {}  # checkouts per dtype str

    # -- checkout / release ----------------------------------------------------
    def checkout(
        self, shape: tuple, dtype, key: str = "anonymous"
    ) -> np.ndarray:
        """A C-contiguous scratch array of the requested geometry.

        Contents are undefined; callers must fully overwrite it (e.g.
        via ``np.matmul(..., out=buf)``). Must be passed back to
        :meth:`release` exactly once.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        with self._lock:
            block = self._take_block(nbytes)
            view = block[:nbytes].view(dtype).reshape(shape)
            self._leases[id(view)] = (view, block, key, dtype.name)
            self.checkouts += 1
            self.bytes_served += nbytes
            self.by_key[key] = self.by_key.get(key, 0) + 1
            self.by_dtype[dtype.name] = self.by_dtype.get(dtype.name, 0) + 1
        return view

    def release(self, buf: np.ndarray) -> None:
        """Return a checked-out buffer to the pool.

        Raises :class:`BufferPoolError` on a double release or a buffer
        this pool never issued — the leak detector of the tests.
        """
        with self._lock:
            lease = self._leases.pop(id(buf), None)
            if lease is None:
                raise BufferPoolError(
                    f"{self.name}: buffer is not leased "
                    "(double release, or not from this pool)"
                )
            _view, block, _key, _dtype = lease
            self._insert_free(block)
            self.releases += 1

    @contextmanager
    def rent(
        self, shape: tuple, dtype, key: str = "anonymous"
    ) -> Iterator[np.ndarray]:
        """Checkout scoped to a ``with`` block (released on exit)."""
        buf = self.checkout(shape, dtype, key=key)
        try:
            yield buf
        finally:
            self.release(buf)

    # -- internals -------------------------------------------------------------
    def _take_block(self, nbytes: int) -> np.ndarray:
        """Best-fit block of at least ``nbytes`` (lock held)."""
        for i, block in enumerate(self._free):  # sorted: first fit = best fit
            if block.nbytes >= nbytes:
                self.reuses += 1
                return self._free.pop(i)
        if self.arena is not None:
            block = self.arena.checkout((nbytes,), np.uint8, key=f"{self.name}.block")
        else:
            block = np.empty(nbytes, dtype=np.uint8)
        self.allocations += 1
        self.arena_bytes += nbytes
        if self.arena_bytes > self.peak_bytes:
            self.peak_bytes = self.arena_bytes
        return block

    def _insert_free(self, block: np.ndarray) -> None:
        """Insert keeping the free list sorted by size (lock held)."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].nbytes < block.nbytes:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, block)

    # -- introspection ---------------------------------------------------------
    @property
    def active(self) -> int:
        """Number of outstanding (checked-out, unreleased) buffers."""
        with self._lock:
            return len(self._leases)

    def active_keys(self) -> List[str]:
        """Keys of the outstanding leases (for leak diagnostics)."""
        with self._lock:
            return sorted(key for (_v, _b, key, _d) in self._leases.values())

    def active_leases(self) -> List[Tuple[str, str, int]]:
        """``(key, dtype, nbytes)`` per outstanding lease.

        The dtype column is what the cross-precision tests assert on:
        a live SP lease and a live DP lease must never share bytes, and
        a lease's recorded dtype always matches the view it backs.
        """
        with self._lock:
            return sorted(
                (key, dt, view.nbytes)
                for (view, _b, key, dt) in self._leases.values()
            )

    def clear(self) -> int:
        """Drop every free block (leases stay out); returns bytes freed.
        Arena-backed blocks are returned to the shared arena."""
        with self._lock:
            freed = sum(b.nbytes for b in self._free)
            if self.arena is not None:
                for block in self._free:
                    self.arena.release(block)
            self._free.clear()
            self.arena_bytes -= freed
            return freed

    # -- observability ---------------------------------------------------------
    def publish(self, metrics) -> None:
        """Copy the pool counters into a MetricsRegistry."""
        if metrics is None:
            return
        metrics.counter(f"{self.name}.checkouts").inc(self.checkouts)
        metrics.counter(f"{self.name}.releases").inc(self.releases)
        metrics.counter(f"{self.name}.allocations").inc(self.allocations)
        metrics.counter(f"{self.name}.reuses").inc(self.reuses)
        metrics.counter(f"{self.name}.bytes_served").inc(self.bytes_served)
        metrics.gauge(f"{self.name}.arena_bytes").set(self.arena_bytes)
        metrics.gauge(f"{self.name}.peak_bytes").update_max(self.peak_bytes)
        metrics.gauge(f"{self.name}.active").set(self.active)
        for dt, count in sorted(self.by_dtype.items()):
            metrics.counter(f"{self.name}.checkouts.{dt}").inc(count)

    def __repr__(self) -> str:
        return (
            f"BufferPool({self.name}: {self.arena_bytes} arena bytes, "
            f"{self.checkouts} checkouts, {self.reuses} reuses, "
            f"{self.active} active)"
        )


def matmul_into(
    pool: BufferPool,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray,
    key: str = "matmul.stage",
) -> np.ndarray:
    """``np.matmul(x, y, out=out)`` with operands staged through the pool.

    NumPy's matmul copies an operand that is contiguous in neither
    memory order into a hidden C-ordered temporary before calling BLAS
    — an allocation per product that defeats the arena. Staging the
    same C-ordered copy through a rented buffer hands BLAS
    bitwise-identical inputs without touching the allocator. Operands
    that are already contiguous (either order) pass straight through,
    exactly as ``np.matmul`` would take them.

    Vector-like products (any dimension of the GEMM is 1) also pass
    straight through: NumPy routes those to GEMV-style kernels that
    consume leading-dimension strides without copying, so there is no
    allocation to avoid — and staging would *change* the kernel (and
    with it the floating-point summation order).

    All three arrays must share one dtype: a mixed-precision product
    would silently upcast through a hidden temporary, exactly the
    allocation (and precision surprise) this helper exists to prevent,
    so mismatches raise :class:`TypeError` instead.
    """
    if not (x.dtype == y.dtype == out.dtype):
        raise TypeError(
            "matmul_into requires matching dtypes (no silent promotion): "
            f"x={x.dtype}, y={y.dtype}, out={out.dtype}"
        )
    if 1 in (x.shape[0], x.shape[1], y.shape[1]):
        np.matmul(x, y, out=out)
        return out
    staged = []
    try:
        if not (x.flags.c_contiguous or x.flags.f_contiguous):
            xc = pool.checkout(x.shape, x.dtype, key=key)
            np.copyto(xc, x)
            staged.append(xc)
            x = xc
        if not (y.flags.c_contiguous or y.flags.f_contiguous):
            yc = pool.checkout(y.shape, y.dtype, key=key)
            np.copyto(yc, y)
            staged.append(yc)
            y = yc
        np.matmul(x, y, out=out)
    finally:
        for buf in staged:
            pool.release(buf)
    return out


def add_into(target: np.ndarray, value: np.ndarray, band: np.ndarray) -> np.ndarray:
    """``target += value[:, :target.shape[1]]`` through ``band``, a
    contiguous scratch array of ``value``'s shape.

    Adding into a strided ``target`` takes NumPy's buffered-iterator
    path, allocating ~128 KiB per call. Copying ``target`` into
    ``band``, adding there with every operand contiguous and copying
    back keeps one addition per element, so the result is bitwise
    identical. Columns of ``value`` past ``target``'s width (a packed
    panel's padding) are added to zeros and dropped.
    """
    cols = target.shape[1]
    band[:, cols:] = 0
    np.copyto(band[:, :cols], target)
    np.add(band, value, out=band)
    np.copyto(target, band[:, :cols])
    return target


def subtract_into(target: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``target -= value`` without the buffered-iterator allocation.

    NumPy routes a binary ufunc whose ``out`` is a non-contiguous view
    through the buffered nditer path, allocating ~128 KiB of iteration
    buffers per call — exactly the trailing-update shape the blocked LU
    subtracts into. Going row by row keeps every operand of the inner
    call contiguous, so the unbuffered loop runs; the per-element
    arithmetic is unchanged, so the result is bitwise identical.

    ``target`` and ``value`` must share one dtype — a mixed-precision
    subtract would round ``value`` through a casting buffer per call,
    so mismatches raise :class:`TypeError` instead of promoting.
    """
    if target.dtype != value.dtype:
        raise TypeError(
            "subtract_into requires matching dtypes (no silent promotion): "
            f"target={target.dtype}, value={value.dtype}"
        )
    if target.ndim == 2 and not target.flags.c_contiguous:
        for i in range(target.shape[0]):
            np.subtract(target[i], value[i], out=target[i])
    else:
        np.subtract(target, value, out=target)
    return target
