"""Distributed HPL over the simulated MPI world — numerically real.

The full multi-node benchmark: every rank generates its own block-cyclic
piece of the global HPL matrix (using the jumpable generator, exactly as
real HPL does), then the grid factors it stage by stage:

1. the owner column gathers the stage panel to the diagonal rank, which
   factors it with partial pivoting and scatters the factored rows back
   (a gather-based panel factorization — simple, and bit-identical to
   the single-node panel, which is what lets the tests verify the
   distributed run against :func:`repro.lu.factorize.blocked_lu`);
2. the factored panel, with the stage pivots riding along, broadcasts
   along process rows (:mod:`repro.cluster.panel_bcast`) and every
   process column applies the distributed row exchange
   (:mod:`repro.cluster.swap`);
3. the diagonal row solves its U blocks (DTRSM) and sends them down the
   columns;
4. every rank GEMM-updates its local trailing block.

One stage loop runs every schedule; ``lookahead`` is HPL's DEPTH (0 or
1) and only reorders independent work. At depth 0 a stage factors its
own panel at the top and every send goes out inline. At depth 1 — the
paper's Section IV pipeline — the next panel's owner column updates
**its own next-panel columns first** during stage *k*'s trailing
update, factors panel *k+1* and starts broadcasting it with
non-blocking chunked ``isend``, then finishes the rest of its update
while the broadcast drains on the background sender threads. Every
other column posts its panel ``irecv`` before the rest of its update,
so by the time stage *k+1* begins the panel has usually landed. The U
blocks go out by ``isend`` the same way. Both depths issue the same
GEMM calls, so the factorization is bit-for-bit identical, and the
overlap is real wall-clock, since BLAS releases the GIL under the
communication threads.

After the last stage the matrix is gathered at rank 0, the system is
solved and the HPL residual checked. Per-rank traffic statistics and
overlap accounting (exposed wait time vs. hidden drain time) are
reported so the cluster timing model can be cross-checked against the
actual communication volume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

# matmul_into stays bound here for benchmarks/e2e/spans.py, which wraps it.
from repro.blas.buffers import BufferPool, matmul_into  # noqa: F401
from repro.blas.gemm import gemm
from repro.blas.getrf import getrf
from repro.blas.trsm import trsm_lower_unit_left
from repro.blas.workspace import PackCache
from repro.cluster.comm import Comm, DEFAULT_CHUNK_BYTES, RecvRequest, World
from repro.cluster.grid import BlockCyclic, ProcessGrid
from repro.cluster.panel_bcast import (
    ibcast_panel_finish,
    ibcast_panel_post,
    ibcast_panel_start,
    send_hop,
)
from repro.cluster.swap import (
    exchange_pivot_rows,
    exchange_pivot_rows_long,
    pivot_pairs_from_ipiv,
)
from repro.hpl.matgen import hpl_submatrix, hpl_system
from repro.hpl.residual import hpl_residual, residual_passes
from repro.lu.factorize import lu_solve
from repro.lu.timing import LUTiming
from repro.obs import AllocProfiler, MetricsRegistry, RunResult
from repro.parallel import EXECUTOR_BACKENDS, make_executor
from repro.spec import BCAST_ALGOS, SWAP_ALGOS
from repro.elastic.plan import plan_relayout
from repro.elastic.redistribute import redistribute
from repro.elastic.schedule import parse_schedule, segments, survivor_grid
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    LayoutHeader,
    RankCrashError,
    RetryPolicy,
)

#: Tag bases for the panel / U broadcast streams (one tag per stage
#: keeps concurrent stages from cross-matching).
_PANEL_TAG = 7_000_000
_U_TAG = 8_000_000


@dataclass
class DistributedResult(RunResult):
    """Rank-0 report of a distributed factorization and solve.

    Unlike the timing-model drivers this is a *real* computation, so
    ``time_s`` is measured wall-clock of the SPMD run and ``gflops``
    follows from the HPL operation count; ``efficiency`` is kept for API
    uniformity but reported as 0.0 — there is no meaningful hardware
    peak for a thread-simulated MPI world.

    ``exposed_comm_s`` is the wall time rank threads spent blocked in
    receives/waits (communication on the critical path) summed over
    ranks; ``hidden_comm_s`` is the background-drain time that never
    blocked compute — the look-ahead's win.

    ``resilience`` is the recovery report of a hardened run (attempts,
    recoveries, retry/resend counters, checkpoint traffic); it stays
    ``None`` on plain runs, whose results are bit-identical to a build
    without the resilience subsystem.
    """

    n: int
    nb: int
    p: int
    q: int
    residual: float
    passed: bool
    x: np.ndarray
    lu: np.ndarray
    ipiv: np.ndarray
    bytes_by_rank: List[int]
    total_bytes: int
    time_s: float = 0.0
    gflops: float = 0.0
    efficiency: float = 0.0
    lookahead: bool = False
    bcast_algo: str = "star"
    exposed_comm_s: float = 0.0
    hidden_comm_s: float = 0.0
    metrics: Optional[MetricsRegistry] = None
    alloc: Optional[dict] = None
    resilience: Optional[dict] = None
    dtype: str = "float64"
    #: Wall seconds outside the MxP refinement (None on non-MxP runs).
    factor_time_s: Optional[float] = None
    #: Measured wall seconds of the MxP refinement (None unless mxp).
    refine_time_s: Optional[float] = None
    #: :meth:`repro.hpl.mxp.RefineReport.to_dict` of the refinement loop.
    refine: Optional[dict] = None
    #: Completed mid-run grid reconfigurations (regrid schedule cuts
    #: plus shrink-to-survivors recoveries). ``p``/``q`` above always
    #: name the *final* grid the run finished on.
    regrids: int = 0
    #: Measured wall seconds inside the block-cyclic redistribution.
    regrid_wall_s: float = 0.0
    #: Bytes the redistribution engine moved across all regrids.
    regrid_moved_bytes: int = 0

    kind = "distributed"


class DistributedHPL:
    """HPL on a P x Q grid of simulated ranks.

    With ``use_offload=True`` every rank's local trailing update runs
    through the offload-DGEMM engine (tiles, queues, work stealing) —
    the complete multi-node hybrid system of Section V, executed
    numerically end to end. ``lookahead`` is the look-ahead depth
    (``False`` = 0, ``True`` = 1): at depth 1 the panel broadcast
    (pivots riding along) overlaps the trailing update.
    """

    def __init__(
        self,
        n: int,
        nb: int,
        p: int,
        q: int,
        seed: int = 42,
        use_offload: bool = False,
        bcast_algo: str = "star",
        swap_algo: str = "pairwise",
        workers: Optional[int] = None,
        executor: str = "thread",
        lookahead: bool = False,
        chunk_kb: Optional[float] = None,
        alloc_profile: bool = False,
        fault_plan: "FaultPlan | str | None" = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        retry: Optional[RetryPolicy] = None,
        max_recoveries: int = 3,
        regrid=None,
        on_rank_death: str = "restart",
        dtype: str = "float64",
        mxp: bool = False,
        refine_tol: float = 1.0,
        refine_max_iters: int = 8,
    ):
        if n < 1 or nb < 1:
            raise ValueError("n and nb must be positive")
        if dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
        if mxp and dtype != "float32":
            raise ValueError("mxp factors in single precision: set dtype='float32'")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if bcast_algo not in BCAST_ALGOS:
            raise ValueError(f"bcast_algo must be one of {BCAST_ALGOS}")
        if swap_algo not in SWAP_ALGOS:
            raise ValueError(f"swap_algo must be one of {SWAP_ALGOS}")
        if chunk_kb is not None and chunk_kb <= 0:
            raise ValueError("chunk_kb must be positive")
        if executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_BACKENDS}, got {executor!r}"
            )
        self.n, self.nb, self.seed = n, nb, seed
        self.dtype = dtype
        self.np_dtype = np.float32 if dtype == "float32" else np.float64
        self.mxp = mxp
        self.refine_tol = refine_tol
        self.refine_max_iters = refine_max_iters
        self.use_offload = use_offload
        self.bcast_algo = bcast_algo
        self.swap_algo = swap_algo
        self.lookahead = bool(lookahead)
        self.chunk_bytes = (
            DEFAULT_CHUNK_BYTES if chunk_kb is None else int(chunk_kb * 1024)
        )
        # Pack-once + tile-executor substrate for every rank's local
        # trailing update. The executor is shared by all rank threads
        # (its map degrades to inline inside worker threads); each rank
        # keeps its own PackCache, and their counters are published summed.
        self.workers = workers
        self.executor = executor
        # Every rank rents its kernel scratch and comm staging from its
        # own pools; alloc_profile wraps the run in a tracemalloc span.
        self.alloc_profile = bool(alloc_profile)
        self._executor = None
        self.grid = ProcessGrid(p, q)
        self.bc = BlockCyclic(n, nb, self.grid)
        # Resilience wiring: a fault plan (object, DSL/JSON string, or
        # path), panel-boundary checkpointing, and the reliable-channel
        # retry policy. A run is "resilient" when any of them is set —
        # plain runs keep the original wire format and result fields.
        self.fault_plan = (
            None if fault_plan is None else FaultPlan.load(fault_plan)
        )
        self._injector = (
            FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_store = checkpoint_store
        # Elastic wiring: a regrid schedule cuts the run into segments
        # (one simulated world per grid, a block-cyclic redistribution
        # between them), and on_rank_death="shrink" lets recovery
        # continue on the survivors instead of restarting the lost
        # geometry. Both ride on the checkpoint store.
        if on_rank_death not in ("restart", "shrink"):
            raise ValueError(
                f"on_rank_death must be 'restart' or 'shrink', "
                f"got {on_rank_death!r}"
            )
        self.on_rank_death = on_rank_death
        self.regrid = parse_schedule(regrid) if regrid else ()
        if self.regrid:
            # Validates panel ranges and grid transitions eagerly.
            segments(self.bc.n_blocks, self.grid, self.regrid)
        if self.checkpoint_store is None and (
            checkpoint_every is not None or self.regrid
        ):
            self.checkpoint_store = CheckpointStore()
        self.retry = retry
        self.max_recoveries = max_recoveries
        self.resilient = (
            self._injector is not None
            or retry is not None
            or checkpoint_every is not None
            or bool(self.regrid)
        )
        self._grid0 = self.grid
        self._k_stop = self.bc.n_blocks
        self._resume_cursor: Optional[int] = None
        self._epoch = 0

    def _set_grid(self, grid: ProcessGrid) -> None:
        """Point the driver at one segment's grid (rebuilds the
        block-cyclic algebra; ``n``/``nb`` never change)."""
        self.grid = grid
        self.bc = BlockCyclic(self.n, self.nb, grid)

    def _layout(self) -> LayoutHeader:
        """The checkpoint layout header of the *current* grid."""
        return LayoutHeader(
            p=self.grid.p, q=self.grid.q, nb=self.nb, n=self.n,
            dtype=self.dtype,
        )

    # -- shared stage pieces ------------------------------------------------------
    def _factor_panel(
        self,
        comm: Comm,
        a_loc: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        k: int,
        pool: BufferPool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the stage-k panel to the diagonal rank, factor it with
        partial pivoting and scatter the factored rows back.

        Must be called (SPMD) by every rank of the owner column; writes
        the factored block into ``a_loc`` and returns
        ``(global_rows, factored_block, ipiv)`` for this rank.
        """
        bc, grid = self.bc, self.grid
        k0 = k * self.nb
        kw = min(self.nb, self.n - k0)
        owner_row = k % grid.p
        owner_col = k % grid.q
        panel_root = grid.rank_of(owner_row, owner_col)
        panel_global_cols = np.arange(k0, k0 + kw)
        my_panel_cols = np.flatnonzero(np.isin(cols, panel_global_cols))
        below = rows >= k0

        part = (rows[below], a_loc[np.ix_(np.flatnonzero(below), my_panel_cols)])
        parts = comm.gather(part, root=panel_root, ranks=grid.col_ranks(owner_col))
        factored_mine = None
        if comm.rank == panel_root:
            panel = np.empty((self.n - k0, kw), dtype=a_loc.dtype)
            for g_rows, block in parts:
                panel[g_rows - k0] = block
            ipiv = getrf(panel, pool=pool)
            # Scatter factored rows back by owner.
            for r in range(grid.p):
                dest_rows = bc.local_rows(r)
                mask = dest_rows >= k0
                sel = dest_rows[mask] - k0
                payload = (dest_rows[mask], panel[sel], ipiv)
                if grid.rank_of(r, owner_col) == comm.rank:
                    factored_mine = payload
                else:
                    comm.send(payload, grid.rank_of(r, owner_col), tag=500 + k)
        if factored_mine is None:
            factored_mine = comm.recv(panel_root, tag=500 + k)
        g_rows, block, ipiv = factored_mine
        a_loc[np.ix_(np.flatnonzero(below), my_panel_cols)] = block
        return g_rows, block, ipiv

    def _local_update(
        self,
        a_loc: np.ndarray,
        sub_rows: np.ndarray,
        sub_cols: np.ndarray,
        l21: np.ndarray,
        u_block: np.ndarray,
        cache: PackCache,
        k: int,
        u_key: tuple,
        pool: BufferPool,
    ) -> None:
        """GEMM-update ``a_loc[sub_rows, sub_cols] -= l21 @ u_block``
        through the configured substrate (offload engine, or pack-once +
        tile executor). ``pool`` rents the staging workspaces from the
        rank's arena."""
        sub = np.ix_(sub_rows, sub_cols)
        if self.use_offload:
            from repro.hybrid.offload import OffloadDGEMM

            m_t, n_t = sub_rows.size, sub_cols.size
            c = np.ascontiguousarray(a_loc[sub])
            neg_l21 = pool.checkout(l21.shape, l21.dtype, key="dist.l21neg")
            np.negative(l21, out=neg_l21)
            try:
                OffloadDGEMM(
                    m_t,
                    n_t,
                    kt=l21.shape[1],
                    tile=(max(1, m_t // 2), max(1, n_t // 2)),
                    host_assist=True,
                    pool=pool,
                ).run(neg_l21, np.ascontiguousarray(u_block), c)
            finally:
                pool.release(neg_l21)
            a_loc[sub] = c
        else:
            # Pack-once + stripe substrate: the fancy-indexed region is
            # gathered, updated in place, scattered back.
            c = a_loc[sub]
            gemm(
                np.ascontiguousarray(l21),
                u_block,
                c,
                alpha=-1.0,
                beta=1.0,
                pack_cache=cache,
                a_key=("dist.l21", k),
                b_key=u_key,
                executor=self._executor,
                pool=pool,
            )
            a_loc[sub] = c

    def _split_trailing_cols(
        self, cols: np.ndarray, trail_cols_mask: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Split this rank's trailing columns of stage ``k`` into the
        next panel's columns (updated first, so look-ahead can factor
        panel k+1 before the rest) and the rest. ``early`` is non-empty
        only on the column owning panel k+1; at the last stage
        everything is ``rest``.
        """
        k0 = k * self.nb
        kw = min(self.nb, self.n - k0)
        k1 = k0 + kw
        kw1 = min(self.nb, self.n - k1)
        trail_cols = np.flatnonzero(trail_cols_mask)
        early = np.array([], dtype=np.intp)
        if k + 1 < self.bc.n_blocks:
            trail_globals = cols[trail_cols_mask]
            early = np.flatnonzero((trail_globals >= k1) & (trail_globals < k1 + kw1))
        if early.size:
            rest = np.setdiff1d(np.arange(trail_cols.size), early, assume_unique=True)
        else:
            rest = np.arange(trail_cols.size)
        return early, rest

    # -- checkpoint / restore hooks -------------------------------------------------
    def _panel_boundary(
        self,
        comm: Comm,
        k: int,
        k_start: int,
        a_loc: np.ndarray,
        stage_pivots: List[np.ndarray],
        panel_state=None,
    ) -> None:
        """The resilience hook at the top of stage ``k``: save a
        checkpoint when the cadence says so (skipping stage 0 and the
        stage just restored), then give the fault injector its chance
        to kill this rank.

        A checkpoint at cursor ``k`` holds everything stage ``k`` needs:
        the local tiles with every stage ``< k`` applied, the
        accumulated pivots, the progress cursor/epoch, and (look-ahead
        owner columns) the already-factored stage-``k`` panel whose
        broadcast was in flight.
        """
        every = self.checkpoint_every
        if every and k > 0 and k % every == 0 and k != k_start:
            self._save_cut(comm, k, a_loc, stage_pivots, panel_state)
        if self._injector is not None:
            self._injector.crash_point(comm.rank, k)

    def _save_cut(
        self,
        comm: Comm,
        k: int,
        a_loc: np.ndarray,
        stage_pivots: List[np.ndarray],
        panel_state=None,
    ) -> None:
        """Write this rank's blob at cursor ``k`` under the current
        grid's layout header — the cadence checkpoints and the forced
        regrid-cut checkpoints share this one serialisation."""
        state = {
            "epoch": self._epoch,
            "cursor": k,
            "a_loc": a_loc,
            "pivots": [np.asarray(p) for p in stage_pivots],
        }
        if panel_state is not None:
            g_rows, block, ipiv = panel_state
            state["panel_g_rows"] = np.asarray(g_rows)
            state["panel_block"] = np.asarray(block)
            state["panel_ipiv"] = np.asarray(ipiv)
        self.checkpoint_store.save(comm.rank, k, state, layout=self._layout())

    def _restore(self, comm: Comm, a_loc: np.ndarray):
        """Roll this rank back to the resume cursor (no-op on a fresh
        start). Returns ``(k_start, stage_pivots, panel_state)``.

        The blob's recorded layout must match this run's current grid —
        a mismatch (resuming a ``2x4`` cut on a ``2x2`` run without
        redistribution) raises
        :class:`~repro.resilience.CheckpointLayoutError` instead of a
        shape crash deep in the stage loop.
        """
        cursor = self._resume_cursor
        if cursor is None:
            return 0, [], None
        state = self.checkpoint_store.load(
            comm.rank, cursor, expect_layout=self._layout()
        )
        np.copyto(a_loc, state["a_loc"])
        pivots = [np.asarray(p) for p in state["pivots"]]
        panel_state = None
        if "panel_block" in state:
            panel_state = (
                np.asarray(state["panel_g_rows"]),
                np.asarray(state["panel_block"]),
                np.asarray(state["panel_ipiv"]),
            )
        return cursor, pivots, panel_state

    # -- the SPMD stage loop ---------------------------------------------------------
    def _rank_main(self, comm: Comm):
        bc, grid = self.bc, self.grid
        my_row, my_col = grid.coords(comm.rank)
        rows = bc.local_rows(my_row)
        cols = bc.local_cols(my_col)
        # Local piece of the global matrix, generated independently (at
        # the working precision — each rank rounds the same DP stream).
        a_loc = hpl_submatrix(self.n, rows, cols, seed=self.seed,
                              dtype=self.np_dtype)
        cache = PackCache()
        pool = BufferPool()  # per-rank arena
        k_start, stage_pivots, saved_panel = self._restore(comm, a_loc)
        nstages = bc.n_blocks
        # HPL's DEPTH. It decides only when a panel is factored and its
        # broadcast started, and whether sends go out inline (depth 0
        # leaves nothing in flight, so nothing can be hidden) or as
        # chunked isends that drain behind the trailing update.
        depth = 1 if self.lookahead else 0
        algo = self.bcast_algo
        hop = dict(chunk_bytes=self.chunk_bytes, nonblocking=bool(depth))
        send_reqs: List[Any] = []
        pending: Optional[RecvRequest] = None
        panel_state = None  # (g_rows, block, ipiv) on owner-column ranks
        track = comm.rank == 0  # rank 0 records per-stage overlap deltas
        stage_overlap: List[Tuple[float, float]] = []

        def launch(k: int) -> List[Any]:
            """Owner column: factor panel ``k`` (on a look-ahead restore,
            reuse the checkpointed panel whose broadcast was in flight at
            the cut) and start its row broadcast. Everyone else: post the
            panel receive."""
            nonlocal panel_state, pending
            owner_col = k % grid.q
            if my_col != owner_col:
                pending = ibcast_panel_post(comm, grid, owner_col, _PANEL_TAG + k, algo=algo)
                return []
            if depth and k == k_start and k_start:
                if saved_panel is None:
                    raise RuntimeError(
                        f"rank {comm.rank}: checkpoint at cursor {k_start} is "
                        "missing the in-flight panel state"
                    )
                panel_state = saved_panel
            else:
                panel_state = self._factor_panel(comm, a_loc, rows, cols, k, pool=pool)
            return ibcast_panel_start(
                comm, grid, panel_state, owner_col, _PANEL_TAG + k, algo=algo, **hop
            )

        for k in range(k_start, self._k_stop):
            k0 = k * self.nb
            kw = min(self.nb, self.n - k0)
            owner_row = k % grid.p
            owner_col = k % grid.q
            # A look-ahead checkpoint carries the stage-k panel, factored
            # during stage k-1; at depth 0 it is not factored yet.
            self._panel_boundary(
                comm, k, k_start, a_loc, stage_pivots,
                panel_state=panel_state if depth and my_col == owner_col else None,
            )
            snap0 = comm.stats.overlap_snapshot() if track else None
            if not depth or k == k_start:
                send_reqs += launch(k)

            # 1. Collect the stage panel (pivots ride along).
            if my_col == owner_col:
                g_rows, panel_rows, ipiv = panel_state
            else:
                (g_rows, panel_rows, ipiv), fwd = ibcast_panel_finish(
                    comm, grid, pending, owner_col, _PANEL_TAG + k, algo=algo, **hop
                )
                send_reqs += fwd
            stage_pivots.append(np.asarray(ipiv))
            pairs = pivot_pairs_from_ipiv(k0, ipiv)

            # 2. Distributed row exchange on everything but the panel cols.
            panel_global_cols = np.arange(k0, k0 + kw)
            col_mask = ~np.isin(cols, panel_global_cols)
            exchange = (
                exchange_pivot_rows_long
                if self.swap_algo == "long"
                else exchange_pivot_rows
            )
            exchange(comm, bc, a_loc, pairs, col_mask, tag_base=10_000 + 1000 * k)

            # 3. The diagonal row solves its trailing U blocks and sends
            # them down the columns.
            l11_rows = (g_rows >= k0) & (g_rows < k0 + kw)
            trail_cols_mask = cols >= k0 + kw
            if my_row == owner_row:
                l11 = panel_rows[l11_rows][np.argsort(g_rows[l11_rows])]
                u_rows_local = np.flatnonzero((rows >= k0) & (rows < k0 + kw))
                if trail_cols_mask.any():
                    u_block = a_loc[np.ix_(u_rows_local, np.flatnonzero(trail_cols_mask))]
                    trsm_lower_unit_left(l11, u_block, pool=pool)
                    a_loc[np.ix_(u_rows_local, np.flatnonzero(trail_cols_mask))] = u_block
                else:
                    u_block = np.empty((kw, 0), dtype=a_loc.dtype)
                peers = [r for r in grid.col_ranks(my_col) if r != comm.rank]
                send_reqs += send_hop(comm, u_block, peers, _U_TAG + k, **hop)
            else:
                u_block = comm.recv(grid.rank_of(owner_row, my_col), tag=_U_TAG + k)

            # 4. Local trailing update, issued as the next panel's columns
            # (``early``, non-empty only on the column owning panel k+1)
            # then the rest. Both depths make this same call sequence —
            # BLAS results depend on the operand shapes — which keeps them
            # bit-for-bit identical. At depth 1 panel k+1 is factored and
            # its broadcast started between the two, so the rest of the
            # update hides the drain.
            trail_rows = np.flatnonzero(rows >= k0 + kw)
            trail_cols = np.flatnonzero(trail_cols_mask)
            # panel_rows are ordered like this rank's local rows, so
            # l21 aligns with the local trailing rows.
            l21 = panel_rows[g_rows >= k0 + kw]
            early_sel, rest_sel = self._split_trailing_cols(cols, trail_cols_mask, k)
            if trail_rows.size and early_sel.size:
                self._local_update(
                    a_loc, trail_rows, trail_cols[early_sel], l21,
                    u_block[:, early_sel], cache, k, ("dist.u", k, "early"),
                    pool=pool,
                )
            if depth and k + 1 < nstages:
                send_reqs += launch(k + 1)
            if trail_rows.size and rest_sel.size:
                self._local_update(
                    a_loc, trail_rows, trail_cols[rest_sel], l21,
                    u_block[:, rest_sel], cache, k, ("dist.u", k, "rest"),
                    pool=pool,
                )
            cache.invalidate(("dist.l21", k))
            cache.invalidate(("dist.u", k, "early"))
            cache.invalidate(("dist.u", k, "rest"))

            # Settle completed sends so hidden time accrues per stage.
            send_reqs = [r for r in send_reqs if not r.test()]
            if track:
                snap1 = comm.stats.overlap_snapshot()
                stage_overlap.append(
                    (
                        snap1["hidden_s"] - snap0["hidden_s"],
                        snap1["wait_s"] - snap0["wait_s"],
                    )
                )

        comm.waitall(send_reqs)

        if self._k_stop < nstages:
            # Segment boundary: force a consistent cut at the regrid
            # panel; the redistribution engine rewrites it for the next
            # grid and run() resumes from there. At depth 1 panel
            # ``k_stop`` was already factored (during stage k_stop - 1)
            # and written back into ``a_loc``, so the cut carries that
            # in-flight panel state exactly like a cadence checkpoint.
            self._save_cut(
                comm, self._k_stop, a_loc, stage_pivots,
                panel_state=(
                    panel_state
                    if depth and my_col == self._k_stop % grid.q
                    else None
                ),
            )
            return None

        return self._epilogue(
            comm, a_loc, rows, cols, stage_pivots, cache, stage_overlap, pool=pool
        )

    # -- epilogue: gather, solve, report ------------------------------------------
    def _epilogue(
        self,
        comm: Comm,
        a_loc: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        stage_pivots: List[np.ndarray],
        cache: PackCache,
        stage_overlap: List[Tuple[float, float]],
        pool: BufferPool,
    ):
        # Gather the factored matrix at rank 0 and solve there.
        # Snapshot traffic before the result gather adds its own bytes.
        snapshot = comm.stats.bytes_sent
        overlap = comm.stats.overlap_snapshot()
        per_rank = comm.gather((snapshot, overlap, cache.counters()), root=0)
        pieces = comm.gather((rows, cols, a_loc), root=0)
        if comm.rank != 0:
            return None
        bytes_by_rank = [b for b, _o, _c in per_rank]
        total = sum(bytes_by_rank)
        lu = np.empty((self.n, self.n), dtype=self.np_dtype)
        for g_rows, g_cols, piece in pieces:
            lu[np.ix_(g_rows, g_cols)] = piece
        ipiv_global = np.concatenate(
            [piv + i * self.nb for i, piv in enumerate(stage_pivots)]
        )
        refine_report = None
        if self.mxp:
            # Rank 0 refines the SP factors against the DP ground truth,
            # so the distributed MxP run faces the standard DP check.
            from repro.hpl.mxp import refine_to_double

            a0, b = hpl_system(self.n, self.seed)
            x, refine_report = refine_to_double(
                a0, b, lu, ipiv_global,
                tol=self.refine_tol,
                max_iters=self.refine_max_iters,
                pool=pool,
                fallback_nb=self.nb,
                fallback_workers=self._executor,
            )
        else:
            a0, b = hpl_system(self.n, self.seed, dtype=self.np_dtype)
            x = lu_solve(lu, ipiv_global, b, pool=pool)
        eps_dtype = np.float64 if self.mxp else self.np_dtype
        metrics = MetricsRegistry()
        metrics.counter("comm.messages").inc(comm.stats.messages_sent)
        metrics.counter("comm.total_bytes").inc(total)
        for op in sorted(comm.stats.by_op):
            metrics.counter(f"comm.rank0.bytes.{op}").inc(comm.stats.by_op[op])
        # Send-side staging split: pooled (reused) vs freshly copied.
        metrics.counter("comm.rank0.staged_bytes").inc(comm.stats.staged_bytes)
        metrics.counter("comm.rank0.copied_bytes").inc(comm.stats.copied_bytes)
        comm.pool.publish(metrics)
        pool.publish(metrics)
        for r, nbytes in enumerate(bytes_by_rank):
            metrics.gauge(f"comm.bytes_by_rank.{r}").set(nbytes)
        # Overlap accounting, summed across ranks: exposed wait is the
        # communication on rank critical paths; hidden is drain time the
        # background senders absorbed while compute proceeded.
        wait_total = sum(o["wait_s"] for _b, o, _c in per_rank)
        drain_total = sum(o["drain_s"] for _b, o, _c in per_rank)
        hidden_total = sum(o["hidden_s"] for _b, o, _c in per_rank)
        metrics.gauge("comm.overlap.wait_s").set(wait_total)
        metrics.gauge("comm.overlap.drain_s").set(drain_total)
        metrics.gauge("comm.overlap.hidden_s").set(hidden_total)
        for hidden_d, wait_d in stage_overlap:
            metrics.timer("comm.overlap.stage_hidden_s").add(max(0.0, hidden_d))
            metrics.timer("comm.overlap.stage_wait_s").add(max(0.0, wait_d))
        metrics.counter("hpl.stages").inc(self.bc.n_blocks)
        # Each rank packs its own trailing updates: sum every cache.
        for _b, _o, counts in per_rank:
            for name, value in counts.items():
                metrics.counter(name).inc(value)
        if refine_report is not None:
            metrics.gauge("hpl.refine_time_s").set(refine_report.refine_wall_s)
            metrics.gauge("hpl.refine_iterations").set(refine_report.iterations)
        return DistributedResult(
            n=self.n,
            nb=self.nb,
            p=self.grid.p,
            q=self.grid.q,
            residual=hpl_residual(a0, x, b, eps_dtype=eps_dtype),
            passed=residual_passes(a0, x, b, eps_dtype=eps_dtype),
            x=x,
            lu=lu,
            ipiv=ipiv_global,
            bytes_by_rank=bytes_by_rank,
            total_bytes=total,
            lookahead=self.lookahead,
            bcast_algo=self.bcast_algo,
            exposed_comm_s=wait_total,
            hidden_comm_s=hidden_total,
            metrics=metrics,
            dtype=self.dtype,
            refine_time_s=(refine_report.refine_wall_s
                           if refine_report is not None else None),
            refine=(refine_report.to_dict()
                    if refine_report is not None else None),
        )

    def _harvest_resilience(self, world: World, totals: dict) -> None:
        """Accumulate every rank's reliable-channel counters from one
        (possibly failed) attempt into the run totals."""
        for comm in world.comms:
            snap = comm.rstats.snapshot()
            for key in (
                "retries",
                "resend_requests",
                "resends",
                "corruption_detected",
                "duplicates_dropped",
            ):
                totals[key] = totals.get(key, 0) + snap[key]
            hist = totals.setdefault("retry_histogram", {})
            for attempt, count in snap["retry_histogram"].items():
                hist[attempt] = hist.get(attempt, 0) + count

    def _resilience_report(
        self, attempts: int, recoveries: int, totals: dict
    ) -> dict:
        """The run's ``resilience`` block: recovery and retry counters
        plus fault-injection and checkpoint accounting."""
        report = {"attempts": attempts, "recoveries": recoveries}
        report.update(totals)
        report.setdefault("retry_histogram", {})
        if self._injector is not None:
            report["faults_injected"] = self._injector.fired_summary()
        if self.checkpoint_store is not None:
            report.update(self.checkpoint_store.stats.snapshot())
        return report

    def _publish_resilience(self, metrics: MetricsRegistry, report: dict) -> None:
        """Mirror the resilience report into the metrics registry."""
        for key in (
            "attempts",
            "recoveries",
            "shrinks",
            "retries",
            "resend_requests",
            "resends",
            "corruption_detected",
            "duplicates_dropped",
            "checkpoints",
            "checkpoint_bytes",
            "restores",
            "restored_bytes",
        ):
            if key in report:
                metrics.counter(f"resilience.{key}").inc(report[key])
        for attempt in sorted(report["retry_histogram"]):
            metrics.counter(f"resilience.retry_histogram.{attempt}").inc(
                report["retry_histogram"][attempt]
            )
        if report.get("checkpoints"):
            metrics.timer("resilience.checkpoint_time_s").add(
                report["checkpoint_time_s"], count=report["checkpoints"]
            )

    def run(self) -> DistributedResult:
        # A pool is built when a width was asked for, or whenever the
        # process backend was picked (its whole point is the pool).
        executor = (
            make_executor(self.executor, self.workers)
            if self.workers is not None or self.executor != "thread"
            else None
        )
        self._executor = executor
        profiler = AllocProfiler(enabled=self.alloc_profile)
        totals: dict = {}
        attempts = 0
        recoveries = 0
        regrids = 0
        regrid_wall_s = 0.0
        regrid_moved = 0
        self._resume_cursor = None
        spans = list(segments(self.bc.n_blocks, self._grid0, self.regrid))
        seg = 0
        t0 = time.perf_counter()
        try:
            with profiler.span("dist.run"):
                # Outer loop over regrid segments (one world per grid)
                # doubling as the rollback-recovery loop: a rank crash
                # rolls every rank back to the newest complete
                # checkpoint and re-runs on a fresh world — on the same
                # grid, or (``on_rank_death="shrink"``) on a smaller one
                # fitted to the survivors; the surviving faults (already
                # consumed by the one-shot injector) cannot re-fire.
                while True:
                    attempts += 1
                    self._epoch = attempts
                    grid, _seg_start, k_stop = spans[seg]
                    self._set_grid(grid)
                    self._k_stop = k_stop
                    world = World(
                        self.grid.size,
                        injector=self._injector,
                        retry=self.retry,
                    )
                    try:
                        results = world.run(self._rank_main)
                        self._harvest_resilience(world, totals)
                        if k_stop >= self.bc.n_blocks:
                            break
                        # Segment boundary: rewrite the forced cut for
                        # the next grid and resume from it there.
                        next_grid = spans[seg + 1][0]
                        plan = plan_relayout(
                            self.n, self.nb, self.grid, next_grid,
                            dtype=self.dtype,
                        )
                        stats = redistribute(
                            self.checkpoint_store, plan, k_stop,
                            chunk_bytes=self.chunk_bytes,
                        )
                        regrids += 1
                        regrid_wall_s += stats["wall_s"]
                        regrid_moved += int(stats["moved_bytes"])
                        self._resume_cursor = k_stop
                        seg += 1
                    except RankCrashError:
                        self._harvest_resilience(world, totals)
                        recoveries += 1
                        if recoveries > self.max_recoveries:
                            raise
                        store = self.checkpoint_store
                        survivors = self.grid.size - len(world.crashed_ranks())
                        if (
                            self.on_rank_death == "shrink"
                            and store is not None
                            and 1 <= survivors < self.grid.size
                        ):
                            # No spare ranks: refit the segment onto the
                            # survivors. With a complete cut, carry the
                            # work over; without one, restart the
                            # segment from scratch on the smaller grid.
                            new_grid = survivor_grid(survivors)
                            cut = store.latest_complete(self.grid.size)
                            if cut is not None:
                                plan = plan_relayout(
                                    self.n, self.nb, self.grid, new_grid,
                                    dtype=self.dtype,
                                )
                                stats = redistribute(
                                    store, plan, cut,
                                    chunk_bytes=self.chunk_bytes,
                                )
                                regrids += 1
                                regrid_wall_s += stats["wall_s"]
                                regrid_moved += int(stats["moved_bytes"])
                            self._resume_cursor = cut
                            totals["shrinks"] = totals.get("shrinks", 0) + 1
                            spans[seg] = (
                                new_grid,
                                0 if cut is None else cut,
                                k_stop,
                            )
                        else:
                            if store is None:
                                raise
                            # Newest cursor every rank checkpointed. A
                            # crash can land before the surviving ranks
                            # reach that boundary (no complete cut yet)
                            # — then the rollback target is the initial
                            # state (None).
                            self._resume_cursor = store.latest_complete(
                                self.grid.size
                            )
                    finally:
                        # The driver's error path: stop sender threads,
                        # cancel partial transfers, drain the mailboxes.
                        world.close()
        finally:
            self._executor = None
            profiler.close()
        wall_s = time.perf_counter() - t0
        out: DistributedResult = results[0]
        out.time_s = wall_s
        if out.refine_time_s is not None:
            out.factor_time_s = max(0.0, wall_s - out.refine_time_s)
        out.gflops = LUTiming.hpl_flops(self.n) / wall_s / 1e9
        out.alloc = profiler.to_dict()
        out.regrids = regrids
        out.regrid_wall_s = regrid_wall_s
        out.regrid_moved_bytes = regrid_moved
        if self.resilient:
            out.resilience = self._resilience_report(attempts, recoveries, totals)
        if out.metrics is not None:
            out.metrics.gauge("hpl.wall_time_s").set(wall_s)
            profiler.publish(out.metrics)
            if executor is not None:
                executor.publish(out.metrics)
            if out.resilience is not None:
                self._publish_resilience(out.metrics, out.resilience)
            if regrids:
                out.metrics.counter("elastic.regrids").inc(regrids)
                out.metrics.gauge("elastic.regrid_wall_s").set(regrid_wall_s)
                out.metrics.counter("elastic.regrid_moved_bytes").inc(
                    regrid_moved
                )
        if executor is not None:
            executor.close()
        return out
