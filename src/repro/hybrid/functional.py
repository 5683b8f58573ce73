"""Functional (numeric) hybrid LU — the hybrid structure, computing for
real.

The timing driver (:mod:`repro.hybrid.driver`) models the hybrid stage
loop; this module *executes* it: the host factors the panel, applies the
pivots and solves the U row panel, and the stage's trailing update runs
through the offload engine — tiles packed, "shipped", computed by the
simulated card via the packed-format BLAS, and accumulated back, with
the host's spare capacity work-stealing from the opposite corner. The
result is verified against SciPy and the HPL residual test, which pins
down that the hybrid orchestration moves exactly the right blocks.

The offloaded updates run on the pack-once + tile-executor substrate:
each stage's resident strips are packed once and shared across tiles,
and with ``workers`` the stripe GEMMs fan across the pool.
:func:`run_hybrid_numeric` wraps the whole factorization + solve +
residual check into a :class:`~repro.obs.result.RunResult` for the
CLI's ``hybrid --numeric`` path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blas.buffers import BufferPool
from repro.blas.getrf import getrf
from repro.blas.laswp import laswp
from repro.blas.trsm import trsm_lower_unit_left
from repro.blas.workspace import PackCache
from repro.hybrid.offload import OffloadDGEMM
from repro.lu.tasks import LUWorkspace
from repro.obs import AllocProfiler, MetricsRegistry, RunResult
from repro.parallel import (
    EXECUTOR_BACKENDS,
    TileExecutor,
    as_executor,
    is_process_executor,
    make_executor,
)


def hybrid_blocked_lu(
    a: np.ndarray,
    nb: int = 64,
    cards: int = 1,
    tile: Optional[tuple] = None,
    host_assist: bool = True,
    workers=None,
    pack_cache: Optional[PackCache] = None,
    pool: Optional[BufferPool] = None,
) -> tuple:
    """Factor ``a`` in place with offloaded trailing updates.

    Returns (a, global_ipiv) in the same convention as
    :func:`repro.lu.factorize.blocked_lu` — and produces bit-compatible
    results with it, because the offload tiles partition the exact same
    GEMM.

    ``pack_cache`` (a :class:`~repro.blas.workspace.PackCache`,
    call-local when omitted) lets each stage's offload engine pack its
    resident A/B strips once and reuse them across tiles; ``workers``
    fans the card-side stripe GEMMs over a
    :class:`~repro.parallel.TileExecutor`; ``pool`` (a
    :class:`~repro.blas.buffers.BufferPool`, call-local when omitted)
    rents the host kernels' scratch and the offload staging buffers (the
    ``-L21`` / U / C contiguous copies) instead of allocating per stage.
    """
    if pack_cache is None:
        pack_cache = PackCache()
    if pool is None:
        pool = BufferPool()
    own_executor = (
        workers is not None
        and not isinstance(workers, TileExecutor)
        and not is_process_executor(workers)
    )
    executor = as_executor(workers)
    ws = LUWorkspace(a, nb, pool=pool)  # reuse the geometry/pivot bookkeeping
    try:
        for i in range(ws.n_panels):
            r0 = ws.stage_row0(i)
            cols = ws.panel_cols(i)
            w = ws.panel_width(i)
            # Host: panel factorization.
            ipiv = getrf(a[r0:, cols], pool=pool)
            ws.stage_ipiv[i] = ipiv
            trailing = a[r0:, cols.stop :]
            if trailing.shape[1] == 0:
                continue
            # Host: pivot swaps and the U-panel triangular solve.
            laswp(trailing, ipiv, forward=True, pool=pool)
            l11 = a[r0 : r0 + w, cols]
            u_panel = trailing[:w, :]
            trsm_lower_unit_left(l11, u_panel, pool=pool)
            # Card(s): the offloaded trailing update C -= L21 @ U.
            m_t = trailing.shape[0] - w
            n_t = trailing.shape[1]
            if m_t > 0:
                # Stage the contiguous offload operands in rented buffers:
                # -L21 (the sign folds the subtraction into the
                # accumulate), U and C.
                neg_l21 = pool.checkout((m_t, w), a.dtype, key="hybrid.l21")
                np.negative(a[r0 + w :, cols], out=neg_l21)
                u = pool.checkout((w, n_t), a.dtype, key="hybrid.u")
                np.copyto(u, u_panel)
                c = pool.checkout((m_t, n_t), a.dtype, key="hybrid.c")
                np.copyto(c, trailing[w:, :])
                try:
                    tile_choice = tile or (max(1, m_t // 2), max(1, n_t // 2))
                    OffloadDGEMM(
                        m_t,
                        n_t,
                        kt=w,
                        cards=min(cards, n_t),
                        tile=tile_choice,
                        host_assist=host_assist,
                        pack_cache=pack_cache,
                        executor=executor,
                        pool=pool,
                    ).run(neg_l21, u, c)
                    trailing[w:, :] = c
                finally:
                    pool.release(neg_l21)
                    pool.release(u)
                    pool.release(c)
                # This stage's strips are dead; only counters persist.
                pack_cache.invalidate()
    finally:
        if own_executor and executor is not None:
            executor.close()
    return ws.a, ws.finalize()


@dataclass
class HybridNumericResult(RunResult):
    """A real (numeric) hybrid factorization + solve + residual check."""

    n: int
    nb: int
    cards: int
    workers: int
    time_s: float
    gflops: float
    residual: float
    passed: bool
    metrics: Optional[MetricsRegistry] = None
    alloc: Optional[dict] = None
    dtype: str = "float64"
    #: Measured wall seconds of the factorization phase.
    factor_time_s: Optional[float] = None
    #: Measured wall seconds of the MxP refinement (None unless mxp).
    refine_time_s: Optional[float] = None
    #: :meth:`repro.hpl.mxp.RefineReport.to_dict` of the refinement loop.
    refine: Optional[dict] = None

    kind = "hybrid-numeric"


def run_hybrid_numeric(
    n: int,
    nb: int = 64,
    cards: int = 1,
    workers: Optional[int] = None,
    executor: str = "thread",
    host_assist: bool = True,
    seed: int = 42,
    alloc_profile: bool = False,
    dtype: str = "float64",
    mxp: bool = False,
    refine_tol: float = 1.0,
    refine_max_iters: int = 8,
) -> HybridNumericResult:
    """Factor and solve a seeded HPL system through the hybrid path.

    Wall-clock timed (this is a real computation); the pack-cache and
    pool counters land in ``metrics``. ``workers=None`` uses all cores;
    ``executor`` picks the stripe fan-out backend ("thread" or
    "process" — shared-memory worker processes, bitwise identical).
    ``alloc_profile`` wraps the factor and solve phases in tracemalloc
    spans recorded as ``alloc``.

    ``dtype="float32"`` factors in single precision; with ``mxp`` the
    SP factorization is followed by iterative refinement against the DP
    system (:func:`repro.hpl.mxp.refine_to_double`), so the result faces
    the standard DP residual check. A pure SP run (``mxp=False``) is
    judged against SP's own epsilon instead.
    """
    from repro.hpl.matgen import hpl_system
    from repro.hpl.mxp import refine_to_double
    from repro.hpl.residual import hpl_residual, residual_passes
    from repro.lu.factorize import lu_solve
    from repro.lu.timing import LUTiming

    if executor not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"executor must be one of {EXECUTOR_BACKENDS}, got {executor!r}"
        )
    if dtype not in ("float64", "float32"):
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    if mxp and dtype != "float32":
        raise ValueError("mxp factors in single precision: set dtype='float32'")
    np_dtype = np.float32 if dtype == "float32" else np.float64
    if mxp:
        a0, b = hpl_system(n, seed)  # DP ground truth
        a_work = a0.astype(np.float32)
    else:
        a0, b = hpl_system(n, seed, dtype=np_dtype)
        a_work = a0.copy()
    cache = PackCache()
    pool = BufferPool()
    profiler = AllocProfiler(enabled=alloc_profile)
    executor = make_executor(executor, workers)
    report = None
    t0 = time.perf_counter()
    try:
        with profiler.span("hybrid.factor"):
            lu, ipiv = hybrid_blocked_lu(
                a_work,
                nb=nb,
                cards=cards,
                workers=executor,
                pack_cache=cache,
                host_assist=host_assist,
                pool=pool,
            )
        factor_s = time.perf_counter() - t0
        with profiler.span("hybrid.solve"):
            if mxp:
                x, report = refine_to_double(
                    a0, b, lu, ipiv,
                    tol=refine_tol,
                    max_iters=refine_max_iters,
                    pool=pool,
                    fallback_nb=nb,
                    fallback_workers=executor,
                )
            else:
                x = lu_solve(lu, ipiv, b, pool=pool)
    finally:
        executor.close()
        profiler.close()
    wall_s = time.perf_counter() - t0
    metrics = MetricsRegistry()
    cache.publish(metrics)
    pool.publish(metrics)
    profiler.publish(metrics)
    executor.publish(metrics)
    metrics.gauge("hpl.wall_time_s").set(wall_s)
    metrics.gauge("hpl.factor_time_s").set(factor_s)
    if report is not None:
        metrics.gauge("hpl.refine_time_s").set(report.refine_wall_s)
        metrics.gauge("hpl.refine_iterations").set(report.iterations)
    eps_dtype = np.float64 if mxp else np_dtype
    return HybridNumericResult(
        n=n,
        nb=nb,
        cards=cards,
        workers=executor.workers,
        time_s=wall_s,
        gflops=LUTiming.hpl_flops(n) / wall_s / 1e9,
        residual=hpl_residual(a0, x, b, eps_dtype=eps_dtype),
        passed=residual_passes(a0, x, b, eps_dtype=eps_dtype),
        metrics=metrics,
        alloc=profiler.to_dict(),
        dtype=dtype,
        factor_time_s=factor_s,
        refine_time_s=report.refine_wall_s if report is not None else None,
        refine=report.to_dict() if report is not None else None,
    )
