"""Panel broadcast along process rows.

After the stage-k panel is factored in process column ``k mod Q``, every
other column needs the L rows matching *its own* local rows — and the
stage pivots, which ride in the same payload — before it can run the
row exchange and the trailing update. Each rank of the owner column
therefore broadcasts its slice of the factored panel along its process
row: the "L broadcast" of the HPL stage (the ``t_lbcast`` term of the
hybrid timing model).

The shape is a parent/children table over ranks numbered relative to
the root (:func:`bcast_tree`): ``star`` fans out from the root,
``binomial`` is the log-depth binomial tree, and ``ring`` / ``ring-mod``
pass the payload one hop down the row at a time (store and forward, so
each link carries it once).

The broadcast is split in three calls so a look-ahead schedule can put
compute between them: the root *starts* it, every other rank *posts*
its receive, then *finishes* — waits for the payload and forwards it to
its children. Every hop goes out either inline (``Comm.send``, nothing
left in flight) or as a chunked non-blocking ``isend`` whose requests
the caller waits on before teardown (:func:`send_hop`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.cluster.comm import Comm, RecvRequest, SendRequest
from repro.cluster.grid import ProcessGrid


def bcast_tree(algo: str, size: int, rel: int) -> Tuple[Optional[int], List[int]]:
    """``(parent, children)`` of relative rank ``rel`` in an ``algo``
    broadcast over ``size`` ranks rooted at relative rank 0 (the root
    has no parent)."""
    if algo == "star":
        return (None, list(range(1, size))) if rel == 0 else (0, [])
    if algo == "binomial":
        # A non-root receives from rel - lowbit(rel) and sends on every
        # bit below it; the root sends on every bit, top bit first.
        if rel == 0:
            parent, mask = None, 1 << max(0, (size - 1).bit_length() - 1)
        else:
            low = rel & -rel
            parent, mask = rel - low, low >> 1
        children = []
        while mask:
            if rel + mask < size:
                children.append(rel + mask)
            mask >>= 1
        return parent, children
    if algo in ("ring", "ring-mod"):
        return (None if rel == 0 else rel - 1), (
            [rel + 1] if rel + 1 < size else []
        )
    raise ValueError(f"unknown broadcast algorithm {algo!r}")


def send_hop(
    comm: Comm,
    payload: Any,
    dests: Sequence[int],
    tag: int,
    chunk_bytes: Optional[int] = None,
    nonblocking: bool = True,
) -> List[SendRequest]:
    """Send one broadcast hop to every rank in ``dests``: inline
    ``Comm.send`` (returns no requests), or chunked ``isend`` whose
    requests are returned. ``payload`` must not be mutated until they
    complete."""
    if not nonblocking:
        for dest in dests:
            comm.send(payload, dest, tag=tag, op="bcast")
        return []
    return [
        comm.isend(payload, dest, tag=tag, chunk_bytes=chunk_bytes, op="bcast")
        for dest in dests
    ]


def _row_position(
    comm: Comm, grid: ProcessGrid, owner_col: int, algo: str
) -> Tuple[Optional[int], List[int]]:
    """This rank's parent and children (absolute ranks) in the
    ``algo`` tree of its process row, rooted at the owner column."""
    my_row, my_col = grid.coords(comm.rank)
    order = [grid.rank_of(my_row, (owner_col + j) % grid.q) for j in range(grid.q)]
    parent, children = bcast_tree(algo, grid.q, (my_col - owner_col) % grid.q)
    return None if parent is None else order[parent], [order[c] for c in children]


def ibcast_panel_start(
    comm: Comm,
    grid: ProcessGrid,
    payload: Any,
    owner_col: int,
    tag: int,
    algo: str = "star",
    chunk_bytes: Optional[int] = None,
    nonblocking: bool = True,
) -> List[SendRequest]:
    """Owner-column side: send ``payload`` to this rank's children in
    the row's ``algo`` tree. Returns the send requests to ``waitall``
    on before the run tears down (none when ``nonblocking=False``)."""
    _parent, children = _row_position(comm, grid, owner_col, algo)
    return send_hop(comm, payload, children, tag, chunk_bytes, nonblocking)


def ibcast_panel_post(
    comm: Comm,
    grid: ProcessGrid,
    owner_col: int,
    tag: int,
    algo: str = "star",
) -> RecvRequest:
    """Receiver side: post the panel ``irecv`` from this rank's parent
    in the row's ``algo`` tree."""
    parent, _children = _row_position(comm, grid, owner_col, algo)
    return comm.irecv(parent, tag=tag)


def ibcast_panel_finish(
    comm: Comm,
    grid: ProcessGrid,
    request: RecvRequest,
    owner_col: int,
    tag: int,
    algo: str = "star",
    chunk_bytes: Optional[int] = None,
    nonblocking: bool = True,
) -> Tuple[Any, List[SendRequest]]:
    """Receiver side: wait for the panel and forward it to this rank's
    children. Returns the payload and the forwarding requests (to
    ``waitall`` on at teardown)."""
    payload = request.wait()
    _parent, children = _row_position(comm, grid, owner_col, algo)
    return payload, send_hop(comm, payload, children, tag, chunk_bytes, nonblocking)
