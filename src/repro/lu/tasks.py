"""Real-numerics execution of the LU DAG tasks.

:class:`LUWorkspace` owns the matrix being factored in place and executes
:class:`~repro.lu.dag.Task` objects:

* **Task1 / PANEL(i)** — factor the column panel A[i*nb:, i*nb:(i+1)*nb]
  with partial pivoting (:func:`repro.blas.getrf.getrf`), recording the
  stage's local pivot vector;
* **Task2 / UPDATE(i, p)** — the composite of Figure 5b: apply stage i's
  row swaps to panel p (DLASWP), forward-solve the top nb x nb block
  against L11 (DTRSM), and GEMM-update the rows below.

:meth:`LUWorkspace.factor` is the one single-node numeric stage loop:
panel i, then stage i's trailing updates, in order. ``blocked_lu``, the
numeric :class:`~repro.hpl.driver.NativeHPL` run (under either
scheduler — the DES schedulers only predict time) and the MxP
double-precision fallback all reach it. Any other execution order that
respects the DAG's dependencies produces the same factorization;
:func:`repro.lu.factorize.lu_via_dag` replays such orders one task at a
time as the test oracle for that property.

After all tasks complete, :meth:`LUWorkspace.finalize` applies each
stage's swaps to the *left* of its panel (bookkeeping HPL defers), so the
in-place result matches LAPACK's getrf storage exactly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

# matmul_into stays bound here for benchmarks/e2e/spans.py, which wraps it.
from repro.blas.buffers import BufferPool, matmul_into  # noqa: F401
from repro.blas.gemm import gemm
from repro.blas.getrf import getrf
from repro.blas.laswp import laswp
from repro.blas.trsm import trsm_lower_unit_left
from repro.blas.workspace import PackCache
from repro.lu.dag import Task, TaskType
from repro.parallel import as_executor, is_process_executor


class LUWorkspace:
    """The in-place blocked LU state. Tasks run one at a time — the
    per-stage update counts are not locked — and only the GEMM stripes
    inside a task fan out.

    Every trailing update runs through the packed-GEMM substrate with
    one :class:`~repro.blas.workspace.PackCache` (``pack_cache``, or the
    workspace's own — backed by ``pool``, or by the shared arena under
    a process executor): stage i's L21 panel is packed exactly once —
    the first UPDATE(i, p) misses, every later one hits — then
    invalidated the moment the stage's last update retires. An
    ``executor`` (worker count, :class:`~repro.parallel.TileExecutor` or
    :class:`~repro.parallel.ProcessTileExecutor`) is forwarded to those
    GEMMs, so the serial task order still fans each update's stripe
    grid across threads or processes. One :class:`~repro.blas.buffers.BufferPool` (``pool``, or
    the workspace's own) is threaded into every kernel — getrf scratch,
    laswp gathers, trsm workspaces and GEMM stripes — so steady-state
    stages rent their temporaries from the arena instead of allocating.
    """

    def __init__(
        self,
        a: np.ndarray,
        nb: int,
        pack_cache: Optional[PackCache] = None,
        executor=None,
        pool: Optional[BufferPool] = None,
    ):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("LU workspace expects a square matrix")
        if a.dtype.kind != "f":
            raise ValueError("matrix must be a float array (factored in place)")
        if nb < 1:
            raise ValueError("block size must be positive")
        self.a = a
        self.n = a.shape[0]
        self.nb = nb
        self.n_panels = -(-self.n // nb)
        self.stage_ipiv: List[Optional[np.ndarray]] = [None] * self.n_panels
        self.executor = as_executor(executor)
        # A process-backed stripe executor needs the matrix (and the
        # cached pack panels) addressable from the worker processes:
        # move the factorization into the executor's shared arena and
        # restore the caller's array — the in-place contract — at
        # finalize(). Task execution itself is unchanged.
        self._restore_to: Optional[np.ndarray] = None
        if self.executor is not None and is_process_executor(self.executor):
            self._restore_to = self.a
            self.a = self.executor.arena.adopt(self.a, key="lu.a")
            if pack_cache is None:
                pack_cache = self.executor.arena.pack_cache()
        self.pool = BufferPool() if pool is None else pool
        if pack_cache is None:
            # Cached panels rent from the pool: packing allocates nothing.
            pack_cache = PackCache(
                alloc=lambda shape, dtype: self.pool.checkout(
                    shape, dtype, key="lu.pack"
                ),
                free=self.pool.release,
            )
        self.pack_cache = pack_cache
        # Per-stage count of outstanding trailing updates, so the stage's
        # packed L21 can be dropped as soon as its last consumer retires.
        self._updates_left = [self.n_panels - i - 1 for i in range(self.n_panels)]
        self.finalized = False

    # -- geometry -------------------------------------------------------------
    def panel_cols(self, p: int) -> slice:
        """Column range of panel p (the last panel may be narrower)."""
        self._check_panel(p)
        return slice(p * self.nb, min((p + 1) * self.nb, self.n))

    def stage_row0(self, i: int) -> int:
        """First row of stage i's diagonal block."""
        return i * self.nb

    def panel_width(self, p: int) -> int:
        c = self.panel_cols(p)
        return c.stop - c.start

    # -- task execution ---------------------------------------------------------
    def factor(self) -> np.ndarray:
        """Factor the whole matrix in stage order — panel i, then stage
        i's trailing updates — and return the global pivot vector
        (:meth:`finalize`). Tasks run one at a time; the executor only
        fans each update's GEMM stripes, which write disjoint row bands,
        so results are bitwise identical at any width and on either
        backend."""
        for i in range(self.n_panels):
            self._run_panel(i)
            for p in range(i + 1, self.n_panels):
                self._run_update(i, p)
        return self.finalize()

    def execute(self, task: Task) -> None:
        if task.type is TaskType.PANEL:
            self._run_panel(task.stage)
        else:
            self._run_update(task.stage, task.panel)

    def _run_panel(self, i: int) -> None:
        if self.stage_ipiv[i] is not None:
            raise RuntimeError(f"panel {i} factored twice")
        r0 = self.stage_row0(i)
        panel = self.a[r0:, self.panel_cols(i)]
        self.stage_ipiv[i] = getrf(panel, pool=self.pool)

    def _run_update(self, i: int, p: int) -> None:
        ipiv = self.stage_ipiv[i]
        if ipiv is None:
            raise RuntimeError(f"update of stage {i} before its panel factored")
        r0 = self.stage_row0(i)
        w = self.panel_width(i)
        block = self.a[r0:, self.panel_cols(p)]
        # DLASWP: stage i's swaps, local to rows r0...
        laswp(block, ipiv, forward=True, pool=self.pool)
        # DTRSM: U block = L11^{-1} @ top rows.
        l11 = self.a[r0 : r0 + w, self.panel_cols(i)]
        u_block = block[:w, :]
        trsm_lower_unit_left(l11, u_block, pool=self.pool)
        # DGEMM: trailing rows -= L21 @ U block.
        if block.shape[0] > w:
            gemm(
                self.a[r0 + w :, self.panel_cols(i)],
                u_block,
                block[w:, :],
                alpha=-1.0,
                beta=1.0,
                pack_cache=self.pack_cache,
                a_key=("lu.l21", i),
                b_key=("lu.u", i, p),
                executor=self.executor,
                pool=self.pool,
            )
        # The U panel is consumed by exactly this update; the L21 panel
        # dies with the stage's last trailing update.
        self.pack_cache.invalidate(("lu.u", i, p))
        self._updates_left[i] -= 1
        if self._updates_left[i] == 0:
            self.pack_cache.invalidate(("lu.l21", i))

    # -- finalisation -----------------------------------------------------------
    def finalize(self) -> np.ndarray:
        """Apply each stage's swaps to the columns left of its panel and
        return the global LAPACK-convention pivot vector."""
        if self.finalized:
            raise RuntimeError("workspace already finalized")
        if any(ip is None for ip in self.stage_ipiv):
            raise RuntimeError("finalize before all panels factored")
        for i in range(1, self.n_panels):
            r0 = self.stage_row0(i)
            left = self.a[:, : r0]
            laswp(
                left,
                self.stage_ipiv[i],
                offset=r0,
                forward=True,
                pool=self.pool,
            )
        if self._restore_to is not None:
            np.copyto(self._restore_to, self.a)
            self.executor.arena.release(self.a)
            self.a = self._restore_to
            self._restore_to = None
        self.finalized = True
        return self.global_ipiv()

    def global_ipiv(self) -> np.ndarray:
        """Concatenate stage-local pivots into one global vector."""
        parts = []
        for i, ip in enumerate(self.stage_ipiv):
            if ip is None:
                raise RuntimeError("global_ipiv before all panels factored")
            parts.append(ip + self.stage_row0(i))
        return np.concatenate(parts)

    def _check_panel(self, p: int) -> None:
        if not 0 <= p < self.n_panels:
            raise IndexError(f"panel {p} out of range (have {self.n_panels})")
