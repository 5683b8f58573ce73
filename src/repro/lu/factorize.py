"""Blocked LU, DAG-ordered LU, and the triangular solve.

:func:`blocked_lu` factors through :meth:`LUWorkspace.factor
<repro.lu.tasks.LUWorkspace.factor>`, the one single-node stage loop;
:func:`lu_via_dag` drains the :class:`~repro.lu.dag.PanelDAG` one task
at a time with a pluggable task-selection policy — the test oracle
proving that *every* dependency-respecting order gives the same
factorization, which is why the schedulers may reorder tasks in time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.blas.laswp import apply_pivots_to_vector
from repro.blas.trsm import trsm_lower_unit_left, trsm_upper_left
from repro.lu.dag import PanelDAG, Task
from repro.lu.tasks import LUWorkspace
from repro.parallel import as_executor


def blocked_lu(
    a: np.ndarray, nb: int = 64, workers=None, **ws_kwargs
) -> tuple:
    """Factor ``a`` in place (stage loop order); returns (a, ipiv).

    ``workers`` (a count, a :class:`~repro.parallel.TileExecutor`, or a
    :class:`~repro.parallel.ProcessTileExecutor`) fans each trailing
    update's GEMM stripes — which write disjoint row bands — across
    threads or processes; the tasks and the stage order stay serial, so
    results are bitwise identical at any width and on either backend.
    A pool built here from a count is closed before returning.
    """
    owned = isinstance(workers, (int, np.integer))
    ex = as_executor(workers)
    try:
        ws = LUWorkspace(a, nb, executor=ex, **ws_kwargs)
        ipiv = ws.factor()
    finally:
        if owned:
            ex.close()
    return ws.a, ipiv


def lu_via_dag(
    a: np.ndarray,
    nb: int = 64,
    pick: Optional[Callable[[List[Task]], Task]] = None,
    **ws_kwargs,
) -> tuple:
    """Factor ``a`` by draining the DAG serially, one task at a time.

    ``pick`` selects among *all currently runnable* tasks (default: the
    DAG's own priority), so this replays an arbitrary topological
    order — the property the dynamic scheduler relies on for
    correctness.
    """
    ws = LUWorkspace(a, nb, **ws_kwargs)
    dag = PanelDAG(ws.n_panels)
    while not dag.done:
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
    ipiv = ws.finalize()  # restores the caller's array after an arena detour
    return ws.a, ipiv


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
