"""Static look-ahead LU scheduling (the Figure 6/7 baseline).

This is the scheme of Deisher et al. the paper compares against: global
barrier synchronisation between stages, a *static* partition of each
stage's trailing update across thread groups, and a dedicated panel
group sized to the "minimum required number of threads ... to achieve
the best load-balance with trailing update".

Per stage i the simulated timeline is:

1. one group first processes the stage-i update of panel i+1 (the
   look-ahead target); all other groups start immediately on their
   statically assigned column slab of the trailing update — the
   partition is at column granularity, so the static split itself is
   nearly perfectly balanced;
2. the moment panel i+1's update lands, the dedicated panel group starts
   factoring it (the look-ahead overlap);
3. a global barrier closes the stage: nothing of stage i+1 may start
   before both the updates and the panel are done.

What the scheme cannot do — and what Figure 7a shows as white (barrier)
and violet (DGETRF) regions — is fill the panel group's idle time with
update work, start the next stage's updates early, or recover when the
panel outlasts the trailing update (inevitable for small matrices). The
dynamic scheduler removes exactly those losses.

Like the dynamic scheduler, this one only predicts time; numeric runs
factor through :meth:`~repro.lu.tasks.LUWorkspace.factor`.
"""

from __future__ import annotations

from typing import Optional

from repro.lu.dynamic import ScheduleResult
from repro.lu.timing import LUTiming
from repro.obs import MetricsRegistry
from repro.sim import Simulator, TraceRecorder


class StaticLookaheadScheduler:
    """Simulate the static look-ahead native LU."""

    def __init__(
        self,
        n: int,
        nb: int = 300,
        timing: Optional[LUTiming] = None,
        cores: Optional[int] = None,
        update_group_cores: int = 4,
    ):
        if n < 1 or nb < 1:
            raise ValueError("n and nb must be positive")
        self.n = n
        self.nb = nb
        self.timing = timing or LUTiming()
        self.cores = cores if cores is not None else self.timing.machine.compute_cores
        self.n_panels = -(-n // nb)
        self.update_group_cores = max(1, update_group_cores)

    def _panel_width(self, p: int) -> int:
        return min((p + 1) * self.nb, self.n) - p * self.nb

    def _stage_rows(self, i: int) -> int:
        return self.n - i * self.nb

    def _trailing_cols(self, i: int) -> int:
        """Columns right of stage i's panel."""
        return self.n - (i + 1) * self.nb

    def stage_update_components(self, i: int, cores: int) -> tuple:
        """(swap, trsm, gemm) wall time of stage i's whole trailing update
        on ``cores`` cores — the column-partitioned slab cost. The swap is
        aggregated over all columns, so it sees the full swap bandwidth
        (bw_sharers = 1): each group's slab takes this same wall time."""
        rows = self._stage_rows(i)
        cols = self._trailing_cols(i)
        if cols <= 0:
            return (0.0, 0.0, 0.0)
        return self.timing.update_components(
            rows, min(self.nb, rows), cols, cores, bw_sharers=1
        )

    def panel_group_cores(self, stage: int) -> int:
        """Minimum cores for the stage's look-ahead panel to finish no
        later than the trailing update on the remaining cores."""
        if stage + 1 >= self.n_panels:
            return 0
        rows = self._stage_rows(stage + 1)
        for g in range(1, self.cores):
            rest = self.cores - g
            panel_t = self.timing.panel_time(rows, self._panel_width(stage + 1), g)
            update_t = sum(self.stage_update_components(stage, rest))
            if panel_t <= update_t:
                return g
        return self.cores - 1

    # -- simulation -------------------------------------------------------------
    def run(self) -> ScheduleResult:
        """Predict the factorization: each stage's slabs, look-ahead
        panel and closing barrier on simulated time."""
        sim = Simulator()
        trace = TraceRecorder()
        tasks_run = [0]
        barriers = [0]

        def run_panel(stage: int, g: int):
            dur = self.timing.panel_time(
                self._stage_rows(stage), self._panel_width(stage), g
            )
            t0 = sim.now
            yield dur
            trace.record("panel_group", "dgetrf", t0, sim.now, info=f"s{stage}")
            tasks_run[0] += 1

        def run_slab(worker: str, components, head_event=None, head_frac=0.0):
            """One group's column slab of a stage's update: optionally the
            slab leads with the look-ahead head (panel i+1's columns),
            after which ``head_event`` fires."""
            swap, trsm, gemm = components
            if head_event is not None and head_frac > 0:
                for kind, dur in (
                    ("dlaswp", swap * head_frac),
                    ("dtrsm", trsm * head_frac),
                    ("dgemm", gemm * head_frac),
                ):
                    t0 = sim.now
                    yield dur
                    trace.record(worker, kind, t0, sim.now)
                if not head_event.triggered:
                    head_event.succeed()
                swap, trsm, gemm = (
                    swap * (1 - head_frac),
                    trsm * (1 - head_frac),
                    gemm * (1 - head_frac),
                )
            for kind, dur in (("dlaswp", swap), ("dtrsm", trsm), ("dgemm", gemm)):
                t0 = sim.now
                yield dur
                trace.record(worker, kind, t0, sim.now)

        def stage_driver():
            # Stage 0's panel is fully exposed start-up.
            yield sim.process(run_panel(0, min(self.cores, 8)))
            for i in range(self.n_panels - 1):
                g_panel = self.panel_group_cores(i)
                rest = max(1, self.cores - g_panel)
                n_groups = max(1, rest // self.update_group_cores)
                # Column-partitioned update: every group's slab takes the
                # same wall time (static split at column granularity).
                per_group = self.stage_update_components(i, rest)
                lookahead_ready = sim.event()
                cols = self._trailing_cols(i)
                head_frac = (
                    min(1.0, self._panel_width(i + 1) * n_groups / cols)
                    if cols > 0
                    else 0.0
                )

                def panel_worker(i=i, g_panel=g_panel, ready=lookahead_ready):
                    if g_panel == 0:
                        return
                    yield ready
                    yield sim.process(run_panel(i + 1, g_panel))

                procs = [
                    sim.process(
                        run_slab(
                            f"ugroup{g}",
                            per_group,
                            head_event=lookahead_ready if g == 0 else None,
                            head_frac=head_frac,
                        ),
                        name=f"ugroup{g}",
                    )
                    for g in range(n_groups)
                ]
                procs.append(sim.process(panel_worker(), name="panel_group"))
                for proc in procs:
                    yield proc
                # Global barrier between stages.
                barriers[0] += 1
                t0 = sim.now
                yield self.timing.barrier_time()
                trace.record("global", "barrier", t0, sim.now)

        sim.process(stage_driver(), name="stage_driver")
        makespan = sim.run()
        flops = LUTiming.lu_flops(self.n)
        gflops = flops / makespan / 1e9
        peak = self.timing.machine.peak_dp_gflops(self.cores)
        metrics = MetricsRegistry()
        metrics.counter("sched.tasks").inc(tasks_run[0])
        metrics.counter("sched.barriers").inc(barriers[0])
        metrics.gauge("sched.idle_fraction").set(1.0 - trace.utilisation())
        metrics.timer("sched.panel_group_busy").add(
            trace.busy_time("panel_group"), count=max(1, self.n_panels)
        )
        sim.publish_metrics(metrics)
        return ScheduleResult(
            n=self.n,
            nb=self.nb,
            makespan_s=makespan,
            gflops=gflops,
            efficiency=gflops / peak,
            trace=trace,
            tasks_executed=tasks_run[0],
            barriers=barriers[0],
            metrics=metrics,
        )
