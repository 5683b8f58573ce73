"""Blocked LU factorization and the paper's two native schedulers.

The LU algorithm (Figure 5a) proceeds in block stages: factor the column
panel [DLi], swap rows by its pivots, forward-solve the U row panel, and
GEMM-update the trailing matrix. This package provides:

* :mod:`repro.lu.dag` — the compact one-array DAG of Figure 5b with the
  look-ahead rule of Section IV-A;
* :mod:`repro.lu.tasks` — Task1/Task2 definitions and their real-numerics
  execution against an :class:`~repro.lu.tasks.LUWorkspace`, whose
  :meth:`~repro.lu.tasks.LUWorkspace.factor` is the single-node stage loop;
* :mod:`repro.lu.factorize` — blocked LU through that loop, the serial
  DAG-order oracle (any dependency-respecting order), and triangular solve;
* :mod:`repro.lu.timing` — task duration models on a machine config;
* :mod:`repro.lu.dynamic` — the dynamic scheduler with master-thread
  critical section and super-stage regrouping (prediction only);
* :mod:`repro.lu.static_la` — the static look-ahead baseline with global
  barriers between stages (prediction only).
"""

from repro.lu.dag import PanelDAG, Task, TaskType
from repro.lu.tasks import LUWorkspace
from repro.lu.factorize import blocked_lu, lu_via_dag, lu_solve
from repro.lu.timing import LUTiming
from repro.lu.dynamic import DynamicScheduler, ScheduleResult
from repro.lu.static_la import StaticLookaheadScheduler

__all__ = [
    "PanelDAG",
    "Task",
    "TaskType",
    "LUWorkspace",
    "blocked_lu",
    "lu_via_dag",
    "lu_solve",
    "LUTiming",
    "DynamicScheduler",
    "StaticLookaheadScheduler",
    "ScheduleResult",
]
