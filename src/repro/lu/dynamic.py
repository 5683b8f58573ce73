"""The dynamic LU scheduler of Section IV-A.

Workers are *thread groups* (the paper partitions Knights Corner's
hardware threads into groups; only a group's "master" thread touches the
DAG critical section, which is why the critical section is modelled as a
lock acquired once per task rather than once per hardware thread). The
scheduler extends Buttari-style dynamic DAG scheduling with:

* **master-thread critical section** — one lock acquisition per task per
  group; its service time comes from the calibration. The
  ``master_only_lock=False`` ablation restores the original scheme where
  every hardware thread of the group queues on the lock;
* **look-ahead** — inherited from the DAG's task priority: a ready next
  panel factorization is always preferred over updates;
* **super-stages** — the factorization is cut into super-stages; within
  one, the thread grouping is fixed; at each boundary a *global barrier*
  is charged and threads are regrouped — fewer, wider groups for the
  later (smaller) stages so panel factorization stays hidden.

The scheduler only predicts: it runs task durations on simulated
time and touches no matrix. A numeric run factors through
:meth:`~repro.lu.tasks.LUWorkspace.factor` and calls :meth:`run` for the
predicted time; that any dependency-respecting task order gives the
same factorization is proved by
:func:`~repro.lu.factorize.lu_via_dag`'s property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.lu.dag import PanelDAG, Task, TaskType
from repro.lu.timing import LUTiming
from repro.obs import MetricsRegistry, RunResult
from repro.sim import Lock, Simulator, TraceRecorder


@dataclass
class ScheduleResult(RunResult):
    """Outcome of a simulated LU factorization."""

    n: int
    nb: int
    makespan_s: float
    gflops: float
    efficiency: float
    trace: TraceRecorder
    tasks_executed: int
    lock_mean_wait_s: float = 0.0
    barriers: int = 0
    metrics: Optional[MetricsRegistry] = None

    kind = "schedule"

    @property
    def time_s(self) -> float:
        """Uniform-API alias for the factorization makespan."""
        return self.makespan_s


@dataclass(frozen=True)
class SuperStage:
    """Stages [start, end) run with groups of ``group_cores[i]`` cores."""

    start: int
    end: int
    group_cores: tuple

    @property
    def n_groups(self) -> int:
        return len(self.group_cores)


def _split_cores(cores: int, n_groups: int) -> tuple:
    """Distribute cores over groups with at most one core of skew."""
    base, extra = divmod(cores, n_groups)
    return tuple(base + (1 if i < extra else 0) for i in range(n_groups))


def plan_superstages(
    n_panels: int,
    cores: int,
    n: int,
    nb: int,
    timing: "LUTiming",
    shrink: float = 0.25,
) -> List[SuperStage]:
    """Cut the factorization into super-stages, choosing each one's
    thread grouping by cost.

    For the first stage of each super-stage, every candidate group count
    G is scored with a stage-time estimate — the longer of (a) the
    update rounds ceil(R/G) * t_update and (b) the look-ahead panel on a
    C/G-core group chained behind its own update — and the cheapest G
    wins. This reproduces the Section IV-A regrouping rationale
    organically: large trailing matrices favour many narrow groups
    (update throughput), small ones favour few wide groups (the panel is
    the critical path and needs threads).
    """
    if n_panels < 1 or cores < 1:
        raise ValueError("need positive panel and core counts")
    if not 0 < shrink < 1:
        raise ValueError("shrink must be in (0, 1)")
    plan: List[SuperStage] = []
    start = 0
    while start < n_panels:
        remaining = n_panels - start
        n_groups = _best_group_count(start, remaining, cores, n, nb, timing)
        length = max(1, math.ceil(remaining * shrink))
        end = min(start + length, n_panels)
        plan.append(SuperStage(start, end, _split_cores(cores, n_groups)))
        start = end
    return plan


def _best_group_count(
    stage: int, remaining: int, cores: int, n: int, nb: int, timing: "LUTiming"
) -> int:
    rows = n - stage * nb
    r_tasks = max(1, remaining - 1)
    best_g, best_t = 1, float("inf")
    for n_groups in range(1, min(cores, r_tasks) + 1):
        g = max(1, cores // n_groups)
        upd = timing.update_time(
            rows, min(nb, rows), min(nb, rows), g, bw_sharers=max(1, n_groups // 3)
        )
        rounds = math.ceil(r_tasks / n_groups)
        t_updates = rounds * upd
        t_panel = upd + timing.panel_time(max(rows - nb, 1), min(nb, rows), g)
        t = max(t_updates, t_panel)
        if t < best_t:
            best_g, best_t = n_groups, t
    return best_g


class DynamicScheduler:
    """Simulate the dynamic-scheduled native LU."""

    def __init__(
        self,
        n: int,
        nb: int = 300,
        timing: Optional[LUTiming] = None,
        cores: Optional[int] = None,
        superstages: Optional[List[SuperStage]] = None,
        master_only_lock: bool = True,
    ):
        if n < 1 or nb < 1:
            raise ValueError("n and nb must be positive")
        self.n = n
        self.nb = nb
        self.timing = timing or LUTiming()
        self.cores = cores if cores is not None else self.timing.machine.compute_cores
        self.n_panels = -(-n // nb)
        self.superstages = superstages or plan_superstages(
            self.n_panels, self.cores, n, nb, self.timing
        )
        self.master_only_lock = master_only_lock

    # -- geometry helpers -----------------------------------------------------
    def _panel_width(self, p: int) -> int:
        return min((p + 1) * self.nb, self.n) - p * self.nb

    def _stage_rows(self, i: int) -> int:
        return self.n - i * self.nb

    def _phases(self, task: Task, g_cores: int, n_groups: int) -> list:
        """(kind, duration) phases of a task for the trace."""
        rows = self._stage_rows(task.stage)
        if task.type is TaskType.PANEL:
            dur = self.timing.panel_time(rows, self._panel_width(task.stage), g_cores)
            return [("dgetrf", dur)]
        # Swaps occupy roughly a third of an update, so on average only a
        # third of the groups contend for swap bandwidth at any instant.
        sharers = max(1, n_groups // 3)
        swap, trsm, gemm = self.timing.update_components(
            rows,
            min(self.nb, rows),
            self._panel_width(task.panel),
            g_cores,
            bw_sharers=sharers,
        )
        return [("dlaswp", swap), ("dtrsm", trsm), ("dgemm", gemm)]

    def task_duration(self, task: Task, g_cores: int, n_groups: int) -> float:
        return sum(d for _, d in self._phases(task, g_cores, n_groups))

    # -- simulation ----------------------------------------------------------------
    def run(self) -> ScheduleResult:
        """Predict the factorization: drain the DAG on simulated time
        with the thread groups and super-stages of the plan."""
        sim = Simulator()
        dag = PanelDAG(self.n_panels)
        trace = TraceRecorder()
        metrics = MetricsRegistry()
        lock = Lock(sim, service_time=self.timing.dag_lock_time())
        change: List = [sim.event()]  # re-armed after every commit
        tasks_run = [0]
        barriers = [0]

        def notify():
            old = change[0]
            change[0] = sim.event()
            old.succeed()

        def worker(group_id: int, g_cores: int, n_groups: int, max_stage: int):
            name = f"group{group_id}"
            while True:
                yield from lock.acquire()
                task = dag.available_task(max_stage=max_stage)
                lock.release()
                if not self.master_only_lock:
                    # Original scheme: every hardware thread of the group
                    # serialises through the critical section per task.
                    for _ in range(g_cores * self.timing.machine.smt - 1):
                        yield from lock.acquire()
                        lock.release()
                if task is None:
                    if self._superstage_done(dag, max_stage):
                        return
                    ev = change[0]
                    yield ev
                    continue
                for kind, dur in self._phases(task, g_cores, n_groups):
                    t0 = sim.now
                    yield dur
                    trace.record(
                        name,
                        kind,
                        t0,
                        sim.now,
                        info=f"s{task.stage}p{task.panel}",
                        stage=task.stage,
                        panel=task.panel,
                    )
                dag.complete(task)
                tasks_run[0] += 1
                metrics.counter(f"sched.tasks.{name}").inc()
                notify()

        def driver():
            for ss_index, ss in enumerate(self.superstages):
                procs = [
                    sim.process(
                        worker(g, ss.group_cores[g], ss.n_groups, ss.end),
                        name=f"group{g}",
                    )
                    for g in range(ss.n_groups)
                ]
                for p in procs:
                    yield p
                if ss_index < len(self.superstages) - 1:
                    # Global barrier + thread regrouping between super-stages.
                    barriers[0] += 1
                    t0 = sim.now
                    yield self.timing.barrier_time()
                    trace.record("global", "barrier", t0, sim.now)

        sim.process(driver(), name="driver")
        makespan = sim.run()
        if not dag.done:
            raise RuntimeError("dynamic schedule finished with unfinished DAG")
        flops = LUTiming.lu_flops(self.n)
        gflops = flops / makespan / 1e9
        peak = self.timing.machine.peak_dp_gflops(self.cores)
        metrics.counter("sched.tasks").inc(tasks_run[0])
        metrics.counter("sched.barriers").inc(barriers[0])
        metrics.gauge("sched.superstages").set(len(self.superstages))
        metrics.gauge("sched.idle_fraction").set(1.0 - trace.utilisation())
        lock.publish_metrics(metrics, "sched.dag_lock")
        sim.publish_metrics(metrics)
        return ScheduleResult(
            n=self.n,
            nb=self.nb,
            makespan_s=makespan,
            gflops=gflops,
            efficiency=gflops / peak,
            trace=trace,
            tasks_executed=tasks_run[0],
            lock_mean_wait_s=lock.mean_wait,
            barriers=barriers[0],
            metrics=metrics,
        )

    @staticmethod
    def _superstage_done(dag: PanelDAG, max_stage: int) -> bool:
        """All tasks with stage < max_stage are complete."""
        limit = min(max_stage, dag.n_panels)
        if not all(dag.factored[:limit]):
            return False
        for p in range(dag.n_panels):
            if dag.stage[p] < min(p, limit):
                return False
        return True
