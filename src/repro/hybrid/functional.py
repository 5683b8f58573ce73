"""Functional (numeric) hybrid LU — the hybrid structure, computing for
real.

The timing driver (:mod:`repro.hybrid.driver`) models the hybrid stage
loop; this module *executes* it. As in Section V, the hybrid Linpack is
the native algorithm with one change: the
:class:`~repro.lu.tasks.LUWorkspace` stage loop runs on the host, and
each stage's trailing update goes through the offload step
(:func:`repro.hybrid.offload.offload_update`) — tiles packed, "shipped",
computed by the simulated card via the packed-format BLAS and
accumulated back, with the host's spare capacity work-stealing from the
opposite corner. :func:`run_hybrid_numeric` adds the shared
solve-and-verify epilogue (:func:`repro.hpl.driver.solve_and_verify`)
for the CLI's ``hybrid --numeric`` path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blas.buffers import BufferPool

# The host kernels stay bound here for benchmarks/e2e/spans.py, which
# wraps them at every import site; the stage loop itself calls them
# from repro.lu.tasks.
from repro.blas.getrf import getrf  # noqa: F401
from repro.blas.laswp import laswp  # noqa: F401
from repro.blas.trsm import trsm_lower_unit_left  # noqa: F401
from repro.blas.workspace import PackCache
from repro.hpl.driver import check_numeric_args, seeded_system, solve_and_verify
from repro.lu.factorize import blocked_lu
from repro.obs import AllocProfiler, MetricsRegistry, RunResult
from repro.parallel import make_executor


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
    """Factor ``a`` in place with offloaded trailing updates; returns
    (a, global_ipiv) like :func:`repro.lu.factorize.blocked_lu`, which
    this is with each stage's trailing GEMM run as one offload
    (``cards``, ``tile``, ``host_assist``).

    ``pack_cache`` lets each stage's offload pack its resident A/B
    strips once and reuse them across tiles; ``workers`` fans the
    card-side stripe GEMMs over threads or processes; ``pool`` rents the
    host kernels' scratch and the offload staging buffers.
    """
    offload = {"cards": cards, "tile": tile, "host_assist": host_assist}
    return blocked_lu(a, nb=nb, workers=workers, pack_cache=pack_cache,
                      pool=pool, offload=offload)


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
    spans recorded as ``alloc``. ``dtype="float32"`` factors in single
    precision, and ``mxp`` refines that to the DP check.
    """
    from repro.lu.timing import LUTiming

    check_numeric_args(dtype, mxp, executor)
    system = seeded_system(n, seed, dtype, mxp)
    a_work = system[0].astype(dtype)
    cache = PackCache()
    pool = BufferPool()
    profiler = AllocProfiler(enabled=alloc_profile)
    executor = make_executor(executor, workers)
    t0 = time.perf_counter()
    try:
        with profiler.span("hpl.factor"):
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
        metrics = MetricsRegistry()
        verdict = solve_and_verify(
            lu, ipiv, system, dtype=dtype, mxp=mxp, nb=nb, pool=pool,
            executor=executor, refine_tol=refine_tol,
            refine_max_iters=refine_max_iters, metrics=metrics,
            profiler=profiler,
        )
    finally:
        executor.close()
        profiler.close()
    # Wall clock of the factor and solve; the residual check is not timed.
    wall_s = time.perf_counter() - t0 - verdict.verify_s
    cache.publish(metrics)
    pool.publish(metrics)
    profiler.publish(metrics)
    executor.publish(metrics)
    metrics.gauge("hpl.wall_time_s").set(wall_s)
    metrics.gauge("hpl.factor_time_s").set(factor_s)
    return HybridNumericResult(
        n=n,
        nb=nb,
        cards=cards,
        workers=executor.workers,
        time_s=wall_s,
        gflops=LUTiming.hpl_flops(n) / wall_s / 1e9,
        residual=verdict.residual,
        passed=verdict.passed,
        metrics=metrics,
        alloc=profiler.to_dict(),
        dtype=dtype,
        factor_time_s=factor_s,
        refine_time_s=verdict.refine.refine_wall_s if verdict.refine else None,
        refine=verdict.refine.to_dict() if verdict.refine else None,
    )
