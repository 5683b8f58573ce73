"""Multi-node substrate: simulated MPI, process grids, distributed HPL.

The paper's cluster runs use MPI over single-rail FDR InfiniBand
(Table III: up to a 10 x 10 process grid / 100 nodes). This package
provides the in-process stand-in:

* :mod:`repro.cluster.comm` — a thread-based message-passing world with
  mpi4py-style point-to-point and collective operations carrying real
  NumPy payloads (blocking and non-blocking: ``isend``/``irecv`` with
  Request handles and chunked transfers), plus per-rank traffic and
  overlap accounting;
* :mod:`repro.cluster.grid` — the P x Q process grid and 2-D
  block-cyclic distribution maps HPL uses;
* :mod:`repro.cluster.panel_bcast` — panel broadcast along process rows
  (star / binomial / ring trees, inline or non-blocking hops);
* :mod:`repro.cluster.bcast_algos` — analytic broadcast cost models;
* :mod:`repro.cluster.swap` — distributed pivot row exchange;
* :mod:`repro.cluster.hpl_mpi` — the distributed LU/HPL: numerically
  real, verified against the single-node factorization, with traffic
  statistics that feed the network timing model; one stage loop whose
  look-ahead depth (0 or 1) decides whether the panel broadcast overlaps
  the trailing update (bitwise-identical results at both depths).
"""

from repro.cluster.comm import (
    World,
    Comm,
    CommStats,
    CommError,
    CommTimeout,
    CommCorruption,
    RankDeadError,
    Request,
    SendRequest,
    RecvRequest,
    waitall,
)
from repro.cluster.grid import ProcessGrid, BlockCyclic
from repro.cluster.panel_bcast import (
    ibcast_panel_start,
    ibcast_panel_post,
    ibcast_panel_finish,
)
from repro.cluster.swap import (
    exchange_pivot_rows,
    exchange_pivot_rows_long,
    resolve_final_sources,
)
from repro.cluster.bcast_algos import bcast_time_model
from repro.cluster.hpl_mpi import DistributedHPL, DistributedResult
from repro.cluster.native_cluster import NativeClusterHPL, NativeClusterResult

__all__ = [
    "World",
    "Comm",
    "CommStats",
    "CommError",
    "CommTimeout",
    "CommCorruption",
    "RankDeadError",
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "ProcessGrid",
    "BlockCyclic",
    "ibcast_panel_start",
    "ibcast_panel_post",
    "ibcast_panel_finish",
    "exchange_pivot_rows",
    "exchange_pivot_rows_long",
    "resolve_final_sources",
    "bcast_time_model",
    "DistributedHPL",
    "DistributedResult",
    "NativeClusterHPL",
    "NativeClusterResult",
]
