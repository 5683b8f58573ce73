"""Property tests: a relayout plan is a permutation of blocks.

Whatever the geometries, every block of the matrix appears in the plan
exactly once, total bytes are conserved, and per-rank send totals equal
per-rank recv totals in aggregate. And executing a relayout forward and
back (``PxQ -> P'xQ' -> PxQ``) through the redistribution engine must
reproduce every original rank's ``a_loc`` bitwise.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.grid import BlockCyclic, ProcessGrid
from repro.elastic import plan_relayout, redistribute
from repro.resilience import CheckpointStore, LayoutHeader

grids = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
    lambda pq: ProcessGrid(*pq)
)


@given(n=st.integers(8, 80), nb=st.integers(4, 32), old=grids, new=grids)
@settings(max_examples=60, deadline=None)
def test_plan_is_a_permutation_of_blocks(n, nb, old, new):
    plan = plan_relayout(n, nb, old, new)
    n_blocks = -(-n // nb)

    # Every block (bi, bj) leaves exactly once and arrives exactly once.
    seen = {(t.bi, t.bj) for t in plan.transfers}
    assert len(plan.transfers) == n_blocks * n_blocks
    assert seen == {(i, j) for i in range(n_blocks) for j in range(n_blocks)}

    # Bytes are conserved: blocks tile the matrix, moved + stay = total.
    itemsize = 8
    assert plan.total_bytes == n * n * itemsize
    assert sum(t.nbytes for t in plan.transfers) == plan.total_bytes
    assert plan.moved_bytes + plan.stay_bytes == plan.total_bytes

    # What the senders ship is what the receivers take in.
    assert sum(plan.send_bytes.values()) == plan.moved_bytes
    assert sum(plan.recv_bytes.values()) == plan.moved_bytes
    assert sum(plan.transfer_matrix.values()) == plan.moved_bytes

    # Sources own their block under the old layout, destinations under
    # the new one.
    for t in plan.transfers:
        assert t.src == old.rank_of(t.bi % old.p, t.bj % old.q)
        assert t.dst == new.rank_of(t.bi % new.p, t.bj % new.q)


def _seed_cut(store, n, nb, grid, cursor, rng):
    """A synthetic consistent cut at ``cursor`` on ``grid``."""
    bc = BlockCyclic(n, nb, grid)
    layout = LayoutHeader(p=grid.p, q=grid.q, nb=nb, n=n)
    blobs = {}
    for rank in range(grid.size):
        row, col = grid.coords(rank)
        rows, cols = bc.local_rows(row), bc.local_cols(col)
        a_loc = rng.standard_normal((rows.size, cols.size))
        store.save(rank, cursor, {
            "epoch": 0,
            "cursor": cursor,
            "a_loc": a_loc,
            "pivots": [np.arange(nb, dtype=np.int64) for _ in range(cursor)],
        }, layout=layout)
        blobs[rank] = a_loc
    return blobs


@given(
    old=grids, new=grids,
    n=st.sampled_from([24, 40, 48]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
# The way back drops the cursor's owner column (rank 1 of 1x2): that
# leaving rank must still hand the panel pivots to rank 0.
@example(old=ProcessGrid(1, 1), new=ProcessGrid(1, 2), n=24, seed=0)
def test_round_trip_relayout_is_bitwise_identity(old, new, n, seed):
    nb, cursor = 8, 1
    rng = np.random.default_rng(seed)
    store = CheckpointStore()
    original = _seed_cut(store, n, nb, old, cursor, rng)

    forward = plan_relayout(n, nb, old, new)
    redistribute(store, forward, cursor)
    back = plan_relayout(n, nb, new, old)
    redistribute(store, back, cursor)

    for rank, a_loc in original.items():
        restored = store.load(rank, cursor)
        assert np.array_equal(restored["a_loc"], a_loc)
        assert store.layout(rank, cursor) == LayoutHeader(
            p=old.p, q=old.q, nb=nb, n=n
        )
