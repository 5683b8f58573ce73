"""LU factorization with the trailing updates fanned across processes.

The blocked LU's per-stage structure maps cleanly onto the process
executor: the panel factorization is inherently serial and tiny, so the
parent runs it; the trailing updates write disjoint column panels, so
the workers run them — each against its own
:class:`~repro.lu.tasks.LUWorkspace` built over the *same* shared
matrix. What crosses the pipe per update is a ``{stage, panel}``
descriptor, nothing else:

* the matrix is adopted into the executor's
  :class:`~repro.parallel.shm.SharedArena` once, up front;
* stage pivots travel through a shared int64 vector (the parent writes
  stage i's slots right after factoring panel i — always before any
  update of stage i is dispatched, so the pipe ack ordering guarantees
  visibility);
* each worker lazily snapshots its ``stage_ipiv[i]`` view from that
  vector on first use.

Every worker executes :meth:`LUWorkspace._run_update` — the exact
code path the thread and serial backends run, against the same bytes —
so the factorization is bitwise identical across backends and worker
counts. Worker-local pack caches are invalidated by a ``lu.stage_done``
broadcast when a stage's last update retires (a worker only sees its
shard of a stage's updates, so it cannot retire the stage itself).
"""

from __future__ import annotations

import numpy as np

from repro.lu.dag import PanelDAG, Task, TaskType
from repro.lu.tasks import LUWorkspace
from repro.parallel import shm_task


# ---------------------------------------------------------------------------
# Worker-side tasks
# ---------------------------------------------------------------------------

@shm_task("lu.attach")
def _task_attach(ctx, *, a_ref, ipiv_ref, nb, use_packed_gemm, pack_cache):
    """Build this worker's LUWorkspace over the shared matrix."""
    a = ctx.resolve(a_ref)
    ws = LUWorkspace(
        a,
        nb,
        use_packed_gemm=bool(use_packed_gemm),
        pack_cache=bool(pack_cache),
        executor=None,  # stripes stay serial inside a worker
    )
    ctx.state["lu"] = {"ws": ws, "ipiv": ctx.resolve(ipiv_ref), "nb": int(nb)}
    return None


@shm_task("lu.update")
def _task_update(ctx, *, stage, panel):
    """Run UPDATE(stage, panel) — Figure 5b's laswp + trsm + GEMM —
    against the shared matrix."""
    st = ctx.state["lu"]
    ws: LUWorkspace = st["ws"]
    if ws.stage_ipiv[stage] is None:
        w = ws.panel_width(stage)
        lo = stage * st["nb"]
        ws.stage_ipiv[stage] = st["ipiv"][lo : lo + w]
    ws._run_update(stage, panel)
    return None


@shm_task("lu.stage_done")
def _task_stage_done(ctx, *, stage):
    """Drop this worker's packed L21 panel for a retired stage."""
    ws: LUWorkspace = ctx.state["lu"]["ws"]
    if ws.pack_cache is not None:
        ws.pack_cache.invalidate(("lu.l21", stage))
    return None


# ---------------------------------------------------------------------------
# Parent-side drivers
# ---------------------------------------------------------------------------

def _setup(executor, a: np.ndarray, nb: int, use_packed_gemm, pack_cache, pool):
    """Adopt the matrix + pivot vector into the arena and build the
    worker-side workspaces. Returns (parent ws, shared a, shared ipiv)."""
    arena = executor.arena
    shm_a = arena.adopt(a, key="lu.a")
    n_panels = -(-a.shape[0] // nb)
    shm_ipiv = arena.checkout((n_panels * nb,), np.int64, key="lu.ipiv")
    shm_ipiv[:] = 0
    executor.setup(
        "lu.attach",
        a_ref=arena.ref_of(shm_a),
        ipiv_ref=arena.ref_of(shm_ipiv),
        nb=int(nb),
        use_packed_gemm=bool(use_packed_gemm),
        pack_cache=bool(pack_cache),
    )
    # The parent only factors panels and finalizes — no trailing GEMMs —
    # so it needs its buffer pool (getrf/laswp scratch) but no cache.
    ws = LUWorkspace(shm_a, nb, pool=pool)
    return ws, shm_a, shm_ipiv


def _publish_pivots(ws: LUWorkspace, shm_ipiv: np.ndarray, stage: int) -> None:
    w = ws.panel_width(stage)
    shm_ipiv[stage * ws.nb : stage * ws.nb + w] = ws.stage_ipiv[stage]


def _teardown(a, ws, shm_a, shm_ipiv, arena) -> tuple:
    """Finalize on the shared matrix, then restore the in-place
    contract: results land back in the caller's array."""
    ipiv = ws.finalize()
    np.copyto(a, shm_a)
    arena.release(shm_a)
    arena.release(shm_ipiv)
    return a, ipiv


def process_blocked_lu(
    a: np.ndarray,
    nb: int,
    executor,
    use_packed_gemm: bool = False,
    pack_cache=None,
    pool=None,
    inner_executor=None,
) -> tuple:
    """:func:`repro.lu.factorize.blocked_lu` with process-backed update
    fan-out; same (a, ipiv) contract, bitwise-identical results.

    ``inner_executor`` (the workspace's stripe executor on the thread
    path) is accepted for signature compatibility and ignored — inside
    a worker process the stripes of one update run serially; the
    parallelism lives at the update level.
    """
    ws, shm_a, shm_ipiv = _setup(executor, a, nb, use_packed_gemm, pack_cache, pool)
    for i in range(ws.n_panels):
        ws.execute(Task.panel_task(i))
        _publish_pivots(ws, shm_ipiv, i)
        updates = [{"stage": i, "panel": p} for p in range(i + 1, ws.n_panels)]
        if updates:
            executor.run_tasks("lu.update", updates)
            if pack_cache:
                executor.setup("lu.stage_done", stage=i)
    return _teardown(a, ws, shm_a, shm_ipiv, executor.arena)


def process_lu_dag(
    a: np.ndarray,
    nb: int,
    executor,
    use_packed_gemm: bool = False,
    pack_cache=None,
    pool=None,
    inner_executor=None,
) -> tuple:
    """:func:`repro.lu.factorize.lu_via_dag` wave execution with the
    updates of each wave fanned across processes.

    A wave's panels always belong to earlier waves than its updates'
    dependents, so panels run (and publish pivots) before the wave's
    update batch is dispatched; simultaneously runnable updates write
    disjoint panels, so the shard assignment cannot change any sum.
    """
    ws, shm_a, shm_ipiv = _setup(executor, a, nb, use_packed_gemm, pack_cache, pool)
    dag = PanelDAG(ws.n_panels)
    updates_left = [ws.n_panels - i - 1 for i in range(ws.n_panels)]
    while not dag.done:
        runnable = []
        while True:
            t = dag.available_task()
            if t is None:
                break
            runnable.append(t)
        if not runnable:
            raise RuntimeError("DAG stalled with no runnable task")
        panels = [t for t in runnable if t.type is TaskType.PANEL]
        updates = [t for t in runnable if t.type is TaskType.UPDATE]
        for t in panels:
            ws.execute(t)
            _publish_pivots(ws, shm_ipiv, t.stage)
        if updates:
            executor.run_tasks(
                "lu.update",
                [{"stage": t.stage, "panel": t.panel} for t in updates],
            )
            if pack_cache:
                for t in updates:
                    updates_left[t.stage] -= 1
                    if updates_left[t.stage] == 0:
                        executor.setup("lu.stage_done", stage=t.stage)
        for t in runnable:
            dag.complete(t)
    return _teardown(a, ws, shm_a, shm_ipiv, executor.arena)
