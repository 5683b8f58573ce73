"""Sequential blocked LU, DAG-ordered LU, and the triangular solve.

:func:`blocked_lu` is the plain right-looking reference (the task order a
single worker would produce); :func:`lu_via_dag` drains the
:class:`~repro.lu.dag.PanelDAG` with a pluggable task-selection policy —
used by tests to prove that *every* dependency-respecting order gives the
same factorization the schedulers then merely reorder in time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.blas.laswp import apply_pivots_to_vector
from repro.blas.trsm import trsm_lower_unit_left, trsm_upper_left
from repro.lu.dag import PanelDAG, Task
from repro.lu.tasks import LUWorkspace
from repro.parallel import TileExecutor, as_executor, is_process_executor


def _claim_executor(workers) -> tuple:
    """Coerce ``workers`` into (executor, owned): ``owned`` marks a pool
    we created here and must close before returning."""
    owned = (
        workers is not None
        and not isinstance(workers, TileExecutor)
        and not is_process_executor(workers)
    )
    return as_executor(workers), owned


def blocked_lu(
    a: np.ndarray, nb: int = 64, workers=None, **ws_kwargs
) -> tuple:
    """Factor ``a`` in place (stage loop order); returns (a, ipiv).

    ``workers`` (a count, a :class:`~repro.parallel.TileExecutor`, or a
    :class:`~repro.parallel.ProcessTileExecutor`) fans each stage's
    trailing updates — which write disjoint column panels — across
    threads or processes; the panel factorizations and the stage order
    stay serial, so results are bitwise identical at any width and on
    either backend.
    """
    ex, owned = _claim_executor(workers)
    if ex is not None and is_process_executor(ex):
        from repro.lu.proc import process_blocked_lu

        try:
            return process_blocked_lu(a, nb, ex, **ws_kwargs)
        finally:
            if owned:
                ex.close()
    ws = LUWorkspace(a, nb, **ws_kwargs)
    try:
        for i in range(ws.n_panels):
            ws.execute(Task.panel_task(i))
            updates = [Task.update_task(i, p) for p in range(i + 1, ws.n_panels)]
            if ex is None:
                for task in updates:
                    ws.execute(task)
            elif updates:
                ex.map(ws.execute, updates)
    finally:
        if owned and ex is not None:
            ex.close()
    return ws.a, ws.finalize()


def lu_via_dag(
    a: np.ndarray,
    nb: int = 64,
    pick: Optional[Callable[[List[Task]], Task]] = None,
    workers=None,
    **ws_kwargs,
) -> tuple:
    """Factor ``a`` by draining the DAG.

    ``pick`` selects among *all currently runnable* tasks (default: the
    DAG's own priority). Since execution is sequential here, this
    effectively replays an arbitrary topological order — the property the
    dynamic scheduler relies on for correctness.

    ``workers`` instead executes every runnable wave concurrently: tasks
    that are simultaneously runnable always write disjoint regions (each
    UPDATE owns its column panel, and a PANEL is never runnable while
    updates still target its columns), so wave execution is one more
    dependency-respecting order with bitwise-identical results. ``pick``
    and ``workers`` are mutually exclusive — one chooses a single task
    per step, the other runs them all.
    """
    if pick is not None and workers is not None:
        raise ValueError("pick and workers are mutually exclusive")
    ex, owned = _claim_executor(workers)
    if ex is not None and is_process_executor(ex):
        from repro.lu.proc import process_lu_dag

        try:
            return process_lu_dag(a, nb, ex, **ws_kwargs)
        finally:
            if owned:
                ex.close()
    ws = LUWorkspace(a, nb, **ws_kwargs)
    dag = PanelDAG(ws.n_panels)
    try:
        while not dag.done:
            if ex is not None:
                runnable = _drain_runnable(dag)
                if not runnable:
                    raise RuntimeError("DAG stalled with no runnable task")
                ex.map(ws.execute, runnable)
                for task in runnable:
                    dag.complete(task)
                continue
            if pick is None:
                task = dag.available_task()
                if task is None:
                    raise RuntimeError("DAG stalled with no runnable task")
            else:
                runnable = _drain_runnable(dag)
                if not runnable:
                    raise RuntimeError("DAG stalled with no runnable task")
                task = pick(runnable)
                for other in runnable:
                    if other != task:
                        dag.abandon(other)
            ws.execute(task)
            dag.complete(task)
    finally:
        if owned and ex is not None:
            ex.close()
    return ws.a, ws.finalize()


def _drain_runnable(dag: PanelDAG) -> List[Task]:
    """Claim every currently runnable task (caller abandons the unused)."""
    out = []
    while True:
        t = dag.available_task()
        if t is None:
            return out
        out.append(t)


def lu_solve(
    lu: np.ndarray, ipiv: np.ndarray, b: np.ndarray, pool=None
) -> np.ndarray:
    """Solve A x = b given the in-place factorization and global pivots.

    ``pool`` threads a :class:`~repro.blas.buffers.BufferPool` into the
    pivot gather and both triangular solves.
    """
    lu = np.asarray(lu)
    b = np.asarray(b, dtype=lu.dtype)
    if b.ndim != 1 or b.shape[0] != lu.shape[0]:
        raise ValueError("right-hand side has the wrong shape")
    x = b.copy()
    apply_pivots_to_vector(x, ipiv, forward=True, pool=pool)
    col = x.reshape(-1, 1)
    trsm_lower_unit_left(lu, col, pool=pool)
    trsm_upper_left(lu, col, pool=pool)
    return x
