"""Native Linpack driver (Section IV) and the Sandy Bridge baseline.

:class:`NativeHPL` runs the benchmark entirely "on the card": one of the
paper's two schedulers predicts the factorization time on the simulated
Knights Corner, the solve is charged as a bandwidth-bound pass, and — in
numeric mode — the LU workspace's stage loop actually factors the
matrix, computes x and checks the HPL residual through
:func:`solve_and_verify`, the epilogue every numeric run shares.

The Sandy Bridge curve of Figure 6 (MKL SMP Linpack) is an analytic
baseline calibrated to the paper's two published points: 83% at N=30K
(Figure 6) and 86.4% at N=84K (Table III's CPU-only row).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hpl.matgen import hpl_system
from repro.hpl.mxp import (RefineReport, expected_iterations,
                           refine_model_time_s, refine_to_double)
from repro.hpl.residual import hpl_residual, residual_passes
from repro.lu.dynamic import DynamicScheduler, ScheduleResult
from repro.lu.factorize import lu_solve
from repro.lu.static_la import StaticLookaheadScheduler
from repro.lu.tasks import LUWorkspace
from repro.lu.timing import LUTiming
from repro.machine.calibration import default_calibration
from repro.machine.config import SNB
from repro.obs import AllocProfiler, MetricsRegistry, RunResult
from repro.parallel import EXECUTOR_BACKENDS, make_executor
from repro.sim import TraceRecorder

#: Anchors for the SNB MKL Linpack curve: (N, efficiency).
_SNB_ANCHORS = ((30000.0, 0.83), (84000.0, 0.864))


def _snb_fit() -> tuple:
    """Fit eff(N) = E_inf * N / (N + n0) through the two paper anchors."""
    (n1, e1), (n2, e2) = _SNB_ANCHORS
    # e2/e1 = (n2 (n1 + n0)) / (n1 (n2 + n0))  ->  solve for n0.
    r = e2 / e1
    n0 = n1 * n2 * (r - 1.0) / (n2 - r * n1)
    e_inf = e1 * (n1 + n0) / n1
    return e_inf, n0


_SNB_EINF, _SNB_N0 = _snb_fit()


def snb_hpl_efficiency(n: int) -> float:
    """MKL SMP Linpack efficiency on the dual-socket E5-2670 vs N."""
    if n < 1:
        raise ValueError("n must be positive")
    return _SNB_EINF * n / (n + _SNB_N0)


def snb_hpl_gflops(n: int) -> float:
    """The corresponding achieved GFLOPS (333 GFLOPS peak)."""
    return snb_hpl_efficiency(n) * SNB.peak_dp_gflops()


def check_numeric_args(dtype: str, mxp: bool, executor: str) -> None:
    """Vet the dtype, MxP and executor knobs of a numeric HPL run."""
    if dtype not in ("float64", "float32"):
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    if mxp and dtype != "float32":
        raise ValueError("mxp factors in single precision: set dtype='float32'")
    if executor not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"executor must be one of {EXECUTOR_BACKENDS}, got {executor!r}"
        )


def seeded_system(n: int, seed: int, dtype: str, mxp: bool) -> tuple:
    """The seeded (A, b) a run is judged against: at the working
    precision, or the DP ground truth whose SP rounding MxP factors."""
    return hpl_system(n, seed, dtype=np.float64 if mxp else np.dtype(dtype))


@dataclass
class Verdict:
    """What :func:`solve_and_verify` found."""

    x: np.ndarray
    residual: float
    passed: bool
    refine: Optional[RefineReport]  #: None unless mxp
    verify_s: float  #: wall seconds of the residual check alone


def solve_and_verify(
    lu, ipiv, system, *, dtype, mxp, nb, pool, executor=None, refine_tol=1.0,
    refine_max_iters=8, metrics=None, profiler=None,
) -> Verdict:
    """Solve A x = b from the factors and run the HPL residual check
    against ``system``, the run's :func:`seeded_system`.

    MxP refines the SP factors against the DP system (falling back to an
    ``nb``-blocked DP factorization on ``executor``) and faces the DP
    check, recording the ``hpl.refine_*`` gauges in ``metrics``; pure SP
    is judged against SP's epsilon. ``profiler`` records the
    ``hpl.solve`` and ``hpl.refine`` alloc spans.
    """
    a0, b = system
    profiler = AllocProfiler(enabled=False) if profiler is None else profiler
    report = None
    with profiler.span("hpl.solve"):
        if mxp:
            with profiler.span("hpl.refine"):
                x, report = refine_to_double(
                    a0, b, lu, ipiv, tol=refine_tol, max_iters=refine_max_iters,
                    pool=pool, fallback_nb=nb, fallback_workers=executor,
                )
        else:
            x = lu_solve(lu, ipiv, b, pool=pool)
    t0 = time.perf_counter()
    eps_dtype = np.float64 if mxp else np.dtype(dtype)
    residual = hpl_residual(a0, x, b, eps_dtype=eps_dtype)
    passed = residual_passes(a0, x, b, eps_dtype=eps_dtype)
    verify_s = time.perf_counter() - t0
    if metrics is not None and report is not None:
        metrics.gauge("hpl.refine_time_s").set(report.refine_wall_s)
        metrics.gauge("hpl.refine_iterations").set(report.iterations)
    return Verdict(x, residual, passed, report, verify_s)


@dataclass
class HPLResult(RunResult):
    """One benchmark run's report row."""

    n: int
    nb: int
    scheduler: str
    time_s: float
    gflops: float
    efficiency: float
    trace: Optional[TraceRecorder] = None
    residual: Optional[float] = None
    passed: Optional[bool] = None
    metrics: Optional[MetricsRegistry] = None
    alloc: Optional[dict] = None
    dtype: str = "float64"
    #: Model seconds of the factorization phase (SP for MxP runs).
    factor_time_s: Optional[float] = None
    #: Model seconds of the MxP refinement phase (None unless mxp).
    refine_time_s: Optional[float] = None
    #: :meth:`repro.hpl.mxp.RefineReport.to_dict` of the refinement loop.
    refine: Optional[dict] = None

    kind = "native"


class NativeHPL:
    """The native Knights Corner Linpack benchmark."""

    SCHEDULERS = {"dynamic": DynamicScheduler, "static": StaticLookaheadScheduler}

    def __init__(
        self,
        n: int,
        nb: int = 300,
        scheduler: str = "dynamic",
        timing: Optional[LUTiming] = None,
        workers: Optional[int] = None,
        executor: str = "thread",
        alloc_profile: bool = False,
        dtype: str = "float64",
        mxp: bool = False,
        refine_tol: float = 1.0,
        refine_max_iters: int = 8,
    ):
        if scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; pick from {sorted(self.SCHEDULERS)}"
            )
        check_numeric_args(dtype, mxp, executor)
        self.n = n
        self.nb = nb
        self.scheduler_name = scheduler
        self.workers = workers
        self.executor = executor
        self.alloc_profile = alloc_profile
        self.dtype = dtype
        self.mxp = mxp
        self.refine_tol = refine_tol
        self.refine_max_iters = refine_max_iters
        self.itemsize = 4 if dtype == "float32" else 8
        self.timing = timing or LUTiming(dtype_bytes=self.itemsize)
        cal = self.timing.cal or default_calibration()
        mem_needed = self.itemsize * n * n
        if mem_needed > self.timing.machine.dram_bytes:
            raise ValueError(
                f"N={n} needs {mem_needed / 2**30:.1f} GiB but the card has "
                f"{self.timing.machine.dram_bytes / 2**30:.0f} GiB — the memory "
                "limit that motivates the hybrid implementation (Section V)"
            )

    def _make_scheduler(self):
        cls = self.SCHEDULERS[self.scheduler_name]
        return cls(self.n, nb=self.nb, timing=self.timing)

    def solve_time_s(self) -> float:
        """Forward+back substitution: 2 n^2 FLOPs, bandwidth-bound (the
        whole factored matrix streams through once, at its own width)."""
        bytes_touched = self.itemsize * self.n * self.n
        return bytes_touched / (self.timing.machine.stream_bw_gbs * 1e9)

    def refine_time_model_s(self, iterations: Optional[int] = None) -> float:
        """Model seconds of MxP refinement; ``iterations`` defaults to the
        condition-number rule of thumb when no measured count exists."""
        iters = expected_iterations(self.n) if iterations is None else iterations
        return refine_model_time_s(self.n, iters, self.timing.machine)

    def run(self, numeric: bool = False, seed: int = 42) -> HPLResult:
        """Run the benchmark; ``numeric=True`` also computes and checks x
        (keep N modest — the matrix is materialised).

        Numeric runs factor through :meth:`LUWorkspace.factor
        <repro.lu.tasks.LUWorkspace.factor>`, the stage loop, with each
        trailing update's GEMM stripes fanned over the executor
        (``workers`` wide, all cores by default); the scheduler only
        predicts the time, so ``time_s`` and the ``sched.*`` metrics are
        the same with or without numerics. The cache and pool counters
        land in the result's metrics registry. The kernels rent their
        scratch from the workspace's
        :class:`~repro.blas.buffers.BufferPool`, and ``alloc_profile``
        wraps the factor/solve phases in tracemalloc spans recorded as
        the result's ``alloc`` field.
        """
        workspace = None
        executor = None
        system = None
        profiler = AllocProfiler(enabled=numeric and self.alloc_profile)
        if numeric:
            system = seeded_system(self.n, seed, self.dtype, self.mxp)
            a_work = system[0].astype(self.dtype)
            executor = make_executor(self.executor, self.workers)
            workspace = LUWorkspace(a_work, self.nb, executor=executor)
        sched = self._make_scheduler()
        with profiler.span("hpl.factor"):
            if numeric:
                ipiv = workspace.factor()
            result: ScheduleResult = sched.run()
        # Carry the scheduler's registry forward and add the HPL-level view.
        metrics = result.metrics or MetricsRegistry()

        verdict = report = None
        if numeric:
            verdict = solve_and_verify(
                workspace.a, ipiv, system, dtype=self.dtype, mxp=self.mxp,
                nb=self.nb, pool=workspace.pool, executor=executor,
                refine_tol=self.refine_tol,
                refine_max_iters=self.refine_max_iters, metrics=metrics,
                profiler=profiler,
            )
            report = verdict.refine

        refine_time = None
        if self.mxp:
            refine_time = self.refine_time_model_s(report and report.iterations)
        time_s = result.makespan_s + self.solve_time_s() + (refine_time or 0.0)
        flops = LUTiming.hpl_flops(self.n)
        gflops = flops / time_s / 1e9
        peak = self.timing.machine.peak_gflops(
            self.itemsize, self.timing.machine.compute_cores
        )
        metrics.gauge("hpl.factor_time_s").set(result.makespan_s)
        metrics.gauge("hpl.solve_time_s").set(self.solve_time_s())
        if refine_time is not None:
            # Native reports the model clock, also for the refinement.
            metrics.gauge("hpl.refine_time_s").set(refine_time)
        out = HPLResult(
            n=self.n,
            nb=self.nb,
            scheduler=self.scheduler_name,
            time_s=time_s,
            gflops=gflops,
            efficiency=gflops / peak,
            trace=result.trace,
            metrics=metrics,
            dtype=self.dtype,
            factor_time_s=result.makespan_s,
            refine_time_s=refine_time,
            refine=report.to_dict() if report else None,
        )
        if numeric:
            out.residual = verdict.residual
            out.passed = verdict.passed
            workspace.pack_cache.publish(metrics)
            workspace.pool.publish(metrics)
            profiler.publish(metrics)
            out.alloc = profiler.to_dict()
            executor.publish(metrics)
            executor.close()
        profiler.close()
        return out
