"""The redistribution engine: execute a relayout plan over a fresh world.

:func:`redistribute` is the bridge between two process grids: it takes
a consistent checkpoint cut written on ``P x Q`` (one
:class:`~repro.resilience.CheckpointStore` blob per old rank at one
cursor), spins up a simulated MPI world big enough for both layouts,
and rewrites the cut so the same cursor restores on ``P' x Q'`` —
after which the ordinary rollback path of
:class:`~repro.cluster.hpl_mpi.DistributedHPL` resumes the
factorization on the new grid, bitwise identically.

The SPMD protocol, per rank of the joint world:

1. ranks that exist in the *old* layout load their own blob (its
   recorded :class:`~repro.resilience.LayoutHeader` must match the
   plan's source layout — a stale or foreign store raises
   :class:`~repro.resilience.CheckpointLayoutError` before any traffic),
   post one ``irecv`` per sending peer, then ``isend`` one packed
   message per receiving peer: the moving blocks of
   :func:`~repro.elastic.plan.plan_relayout`'s transfer matrix, in
   deterministic ``(bi, bj)`` order, staged through the communicator's
   :class:`~repro.blas.buffers.BufferPool` chunking;
2. ranks that exist in the *new* layout assemble their new ``a_loc``
   from rank-local stay blocks plus the received messages;
3. the scalar restart state replicates: rank 0 broadcasts the
   accumulated pivots and epoch; for a look-ahead cut, an old
   owner-column rank broadcasts the in-flight panel's ``ipiv`` and
   every *new* owner-column rank reconstructs its panel slice from the
   redistributed tiles (the factored panel already lives in ``a_loc``,
   so only the pivot vector crosses the wire);
4. every new rank saves its blob back at the same cursor under the new
   layout header.

Blob keys are per-rank, and each rank only ever reads its *own* old
blob and writes its *own* new one, so the in-place rewrite needs no
cross-rank ordering. Old-only ranks (a shrink) send their blocks and
exit; their stale blobs are simply never part of a
``latest_complete(new_world_size)`` cut again.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.comm import Comm, DEFAULT_CHUNK_BYTES, World
from repro.cluster.grid import BlockCyclic, ProcessGrid
from repro.elastic.plan import RelayoutPlan
from repro.resilience.checkpoint import CheckpointLayoutError, CheckpointStore

#: Tag base for redistribution traffic: one packed message per (src,
#: dst) peer pair, tagged by source so posts can never cross-match.
_REDIST_TAG = 9_000_000


def _block_slice(bc: BlockCyclic, bi: int, bj: int) -> Tuple[slice, slice]:
    """Local storage slices of block (bi, bj) on its owner under ``bc``."""
    nb = bc.nb
    r0 = (bi // bc.grid.p) * nb
    c0 = (bj // bc.grid.q) * nb
    rows = min(nb, bc.n - bi * nb)
    cols = min(nb, bc.n - bj * nb)
    return slice(r0, r0 + rows), slice(c0, c0 + cols)


def _rank_plan(plan: RelayoutPlan, rank: int):
    """This rank's slice of the plan: stays, sends-by-peer, recvs-by-peer.

    Block lists keep the plan's deterministic ``(bi, bj)`` order, which
    is the implicit wire format — sender and receiver enumerate the
    same transfer matrix, so messages carry bare arrays, no indices.
    """
    stays: List = []
    sends: Dict[int, List] = {}
    recvs: Dict[int, List] = {}
    for t in plan.transfers:
        if not t.moves:
            if t.src == rank:
                stays.append(t)
            continue
        if t.src == rank:
            sends.setdefault(t.dst, []).append(t)
        if t.dst == rank:
            recvs.setdefault(t.src, []).append(t)
    return stays, sends, recvs


def _reconstruct_panel_state(
    bc: BlockCyclic, a_loc: np.ndarray, rows: np.ndarray,
    cols: np.ndarray, cursor: int, panel_ipiv: np.ndarray,
):
    """Rebuild a look-ahead owner-column rank's in-flight panel state.

    At a look-ahead cut the stage-``cursor`` panel is already factored
    and written back into the tiles, so ``(g_rows, block)`` is a pure
    slice of the redistributed ``a_loc`` — bitwise what
    ``_factor_panel`` returned on the old grid — and only ``ipiv``
    travels.
    """
    k0 = cursor * bc.nb
    kw = min(bc.nb, bc.n - k0)
    below = rows >= k0
    my_panel_cols = np.flatnonzero((cols >= k0) & (cols < k0 + kw))
    g_rows = rows[below]
    block = a_loc[np.ix_(np.flatnonzero(below), my_panel_cols)].copy()
    return g_rows, block, np.asarray(panel_ipiv)


def _redistribute_rank(
    comm: Comm,
    store: CheckpointStore,
    plan: RelayoutPlan,
    cursor: int,
    chunk_bytes: int,
) -> int:
    """The SPMD body: one rank's share of the relayout. Returns the
    bytes this rank put on the wire."""
    rank = comm.rank
    old, new = plan.old, plan.new
    old_size = old.p * old.q
    new_size = new.p * new.q
    old_grid = ProcessGrid(old.p, old.q)
    new_grid = ProcessGrid(new.p, new.q)
    old_bc = BlockCyclic(old.n, old.nb, old_grid)
    new_bc = BlockCyclic(new.n, new.nb, new_grid)
    stays, sends, recvs = _rank_plan(plan, rank)

    old_state = None
    if rank < old_size:
        old_state = store.load(rank, cursor, expect_layout=old)
        old_a = np.asarray(old_state["a_loc"])

    # Receives first (lazy requests: nothing blocks until wait).
    recv_reqs = {
        src: comm.irecv(src, tag=_REDIST_TAG + src) for src in sorted(recvs)
    }
    # One packed message per destination peer, plan order.
    send_reqs = []
    sent_bytes = 0
    for dst in sorted(sends):
        blocks = [
            old_a[_block_slice(old_bc, t.bi, t.bj)] for t in sends[dst]
        ]
        sent_bytes += sum(b.nbytes for b in blocks)
        send_reqs.append(
            comm.isend(blocks, dst, tag=_REDIST_TAG + rank,
                       chunk_bytes=chunk_bytes, op="redistribute")
        )

    # The in-flight panel's pivots live on an old owner-column rank
    # (look-ahead cuts save them there; None otherwise).
    panel_src = old_grid.rank_of(0, cursor % old.q)
    panel_ipiv = None
    if rank == panel_src and "panel_ipiv" in old_state:
        panel_ipiv = np.asarray(old_state["panel_ipiv"])

    if rank >= new_size:
        # Old-only rank (shrink): its blocks are on the wire. A leaving
        # pivot source pushes the panel pivots to rank 0, which
        # broadcasts them among the survivors.
        if rank == panel_src:
            comm.send(panel_ipiv, 0, tag=_REDIST_TAG - 1)
        comm.waitall(send_reqs)
        return sent_bytes

    my_row, my_col = new_grid.coords(rank)
    rows = new_bc.local_rows(my_row)
    cols = new_bc.local_cols(my_col)
    new_a = np.empty((rows.size, cols.size), dtype=np.dtype(new.dtype))
    for t in stays:
        new_a[_block_slice(new_bc, t.bi, t.bj)] = (
            old_a[_block_slice(old_bc, t.bi, t.bj)]
        )
    for src in sorted(recvs):
        blocks = recv_reqs[src].wait()
        for t, block in zip(recvs[src], blocks):
            new_a[_block_slice(new_bc, t.bi, t.bj)] = block

    # Replicated restart state: pivots and epoch from rank 0 (present
    # in every layout), then the in-flight panel pivots.
    meta = None
    if rank == 0:
        meta = (
            [np.asarray(p) for p in old_state["pivots"]],
            int(old_state["epoch"]),
        )
    pivots, epoch = comm.bcast(meta, root=0, ranks=list(range(new_size)))
    if panel_src < new_size:
        panel_ipiv = comm.bcast(
            panel_ipiv, root=panel_src, ranks=list(range(new_size))
        )
    else:
        if rank == 0:
            panel_ipiv = comm.recv(panel_src, tag=_REDIST_TAG - 1)
        panel_ipiv = comm.bcast(
            panel_ipiv, root=0, ranks=list(range(new_size))
        )

    state = {
        "epoch": epoch,
        "cursor": cursor,
        "a_loc": new_a,
        "pivots": pivots,
    }
    if panel_ipiv is not None and my_col == cursor % new.q:
        g_rows, block, ipiv = _reconstruct_panel_state(
            new_bc, new_a, rows, cols, cursor, panel_ipiv
        )
        state["panel_g_rows"] = g_rows
        state["panel_block"] = block
        state["panel_ipiv"] = ipiv
    comm.waitall(send_reqs)
    store.save(rank, cursor, state, layout=new)
    return sent_bytes


def redistribute(
    store: CheckpointStore,
    plan: RelayoutPlan,
    cursor: int,
    chunk_bytes: Optional[int] = None,
) -> Dict[str, float]:
    """Execute ``plan`` over the cut at ``cursor``, rewriting the store.

    Requires every old rank's blob at ``cursor`` (a consistent cut).
    On return, every *new* rank has a blob at the same cursor under the
    new layout header, and a :class:`~repro.cluster.hpl_mpi.DistributedHPL`
    configured for the new grid resumes from it bitwise-identically.
    Returns accounting: moved bytes (must equal the plan's), the
    executing world size, and the measured wall time.
    """
    old_size = plan.old.p * plan.old.q
    missing = [r for r in range(old_size) if cursor not in store.cursors(r)]
    if missing:
        raise CheckpointLayoutError(
            f"cut at cursor {cursor} is incomplete: no blob for old "
            f"rank(s) {missing} (world of {old_size})"
        )
    chunk = DEFAULT_CHUNK_BYTES if chunk_bytes is None else int(chunk_bytes)
    t0 = time.perf_counter()
    world = World(plan.world_size)
    try:
        sent = world.run(_redistribute_rank, store, plan, cursor, chunk)
    finally:
        world.close()
    return {
        "moved_bytes": float(sum(sent)),
        "world_size": float(plan.world_size),
        "wall_s": time.perf_counter() - t0,
    }
