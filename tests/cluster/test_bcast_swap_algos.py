"""Broadcast shapes, their cost models and the long (spread) swap.

The row broadcast's shapes are also checked by the property in
``test_lookahead.py::TestBroadcastShapeEquivalence``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.bcast_algos import bcast_time_model
from repro.cluster.comm import World
from repro.cluster.grid import BlockCyclic, ProcessGrid
from repro.cluster.panel_bcast import (
    ibcast_panel_finish,
    ibcast_panel_post,
    ibcast_panel_start,
)
from repro.cluster.swap import (
    exchange_pivot_rows,
    exchange_pivot_rows_long,
    pivot_pairs_from_ipiv,
    resolve_final_sources,
)
from repro.hpl.matgen import hpl_matrix


def _row_broadcast_body(grid, algo, root, payload, tag=3, **hop):
    """SPMD body: broadcast ``payload`` from column ``root`` along every
    process row of ``grid`` with the ``algo`` shape."""

    def body(comm):
        _row, col = grid.coords(comm.rank)
        if col == root:
            got = payload
            reqs = ibcast_panel_start(comm, grid, got, root, tag, algo=algo, **hop)
        else:
            req = ibcast_panel_post(comm, grid, root, tag, algo=algo)
            got, reqs = ibcast_panel_finish(
                comm, grid, req, root, tag, algo=algo, **hop
            )
        comm.waitall(reqs)
        return got

    return body


def run_bcast(algo, size, root, payload, **hop):
    """Results of an ``algo`` broadcast along one row of ``size`` ranks,
    at depth 0 (inline sends) and at depth 1 (chunked ``isend``)."""
    grid = ProcessGrid(1, size)
    return [
        World(size).run(
            _row_broadcast_body(grid, algo, root, payload, nonblocking=nonblocking, **hop)
        )
        for nonblocking in (False, True)
    ]


#: Test ids keep the ``<shape>_bcast`` names of the shapes they check.
_SHAPE_IDS = lambda algo: f"{algo}_bcast"  # noqa: E731


class TestBroadcastAlgorithms:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("algo", ["ring", "binomial"], ids=_SHAPE_IDS)
    def test_everyone_gets_payload(self, algo, size):
        for results in run_bcast(algo, size, root=0, payload={"k": 7}):
            assert results == [{"k": 7}] * size

    @pytest.mark.parametrize("root", [0, 1, 3])
    @pytest.mark.parametrize("algo", ["ring", "binomial"], ids=_SHAPE_IDS)
    def test_nonzero_roots(self, algo, root):
        for results in run_bcast(algo, 4, root=root, payload="x"):
            assert results == ["x"] * 4

    @pytest.mark.parametrize("size", [2, 3, 6])
    def test_segmented_ring_arrays(self, size):
        # 192 bytes in 64-byte chunks: three segments per hop at depth 1.
        arr = np.arange(24.0).reshape(4, 6)
        for results in run_bcast("ring-mod", size, 0, arr, chunk_bytes=64):
            for r in results:
                np.testing.assert_array_equal(r, arr)

    def test_segmented_ring_single_rank(self):
        arr = np.arange(5.0)
        for results in run_bcast("ring-mod", 1, 0, arr, chunk_bytes=16):
            np.testing.assert_array_equal(results[0], arr)

    def test_group_subset(self):
        # Only process row 1 (ranks 2, 3) of a 2 x 2 world broadcasts.
        grid = ProcessGrid(2, 2)
        row_body = _row_broadcast_body(grid, "binomial", 1, "p")

        def body(comm):
            return row_body(comm) if grid.coords(comm.rank)[0] == 1 else None

        assert World(4).run(body) == [None, None, "p", "p"]


class TestBcastTimeModel:
    def test_binomial_beats_ring_for_small_messages(self):
        small = 1024
        ring = bcast_time_model(small, 16, 6.0, 2e-6, "ring")
        tree = bcast_time_model(small, 16, 6.0, 2e-6, "binomial")
        assert tree < ring

    def test_segmented_ring_wins_for_large_messages(self):
        big = 1e9
        tree = bcast_time_model(big, 16, 6.0, 2e-6, "binomial")
        seg = bcast_time_model(big, 16, 6.0, 2e-6, "segmented-ring", segments=16)
        assert seg < tree

    def test_single_rank_is_free(self):
        assert bcast_time_model(1e9, 1, 6.0, 2e-6, "ring") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bcast_time_model(10, 4, 6.0, 1e-6, "warp")
        with pytest.raises(ValueError):
            bcast_time_model(-1, 4, 6.0, 1e-6, "ring")
        with pytest.raises(ValueError):
            bcast_time_model(10, 0, 6.0, 1e-6, "ring")


class TestResolveFinalSources:
    def test_single_swap(self):
        assert resolve_final_sources([(2, 5)]) == {2: 5, 5: 2}

    def test_identity_swaps_dropped(self):
        assert resolve_final_sources([(3, 3)]) == {}

    def test_three_cycle(self):
        # (0 1)(1 2) applied in order: row0 <- row1, row1 <- row2, row2 <- row0.
        src = resolve_final_sources([(0, 1), (1, 2)])
        assert src == {0: 1, 1: 2, 2: 0}

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
    @settings(max_examples=40)
    def test_matches_sequential_application(self, pairs):
        content = {g: g * 100 for g in range(10)}
        for r0, r1 in pairs:
            content[r0], content[r1] = content[r1], content[r0]
        src = resolve_final_sources(pairs)
        for g in range(10):
            assert content[g] == src.get(g, g) * 100


class TestLongSwapEquivalence:
    def _run(self, fn, n, nb, p, q, pairs, seed=3):
        grid = ProcessGrid(p, q)
        bc = BlockCyclic(n, nb, grid)
        a_global = hpl_matrix(n, seed)

        def body(comm):
            gr, gc = grid.coords(comm.rank)
            rows, cols = bc.local_rows(gr), bc.local_cols(gc)
            a_loc = a_global[np.ix_(rows, cols)].copy()
            fn(comm, bc, a_loc, pairs, np.ones(cols.size, bool))
            return (rows, cols, a_loc)

        out = np.empty_like(a_global)
        for rows, cols, piece in World(grid.size).run(body):
            out[np.ix_(rows, cols)] = piece
        return out

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 1), (2, 3)])
    def test_long_swap_equals_per_pivot_swap(self, p, q):
        n, nb = 24, 4
        ipiv = np.array([7, 3, 12, 3])
        pairs = pivot_pairs_from_ipiv(4, ipiv)
        a = self._run(exchange_pivot_rows, n, nb, p, q, pairs)
        b = self._run(exchange_pivot_rows_long, n, nb, p, q, pairs)
        np.testing.assert_array_equal(a, b)

    @given(
        st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=1, max_size=8
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_long_swap_property(self, raw_pairs):
        n, nb = 24, 4
        a = self._run(exchange_pivot_rows, n, nb, 2, 2, raw_pairs)
        b = self._run(exchange_pivot_rows_long, n, nb, 2, 2, raw_pairs)
        np.testing.assert_array_equal(a, b)

    def test_long_swap_moves_less_traffic_for_repeated_rows(self):
        # A row swapped twice nets out; the long swap skips it entirely.
        n, nb = 16, 4
        grid = ProcessGrid(2, 1)
        bc = BlockCyclic(n, nb, grid)
        a_global = hpl_matrix(n, 5)
        pairs = [(0, 9), (0, 9)]  # net identity

        def body(comm):
            gr, gc = grid.coords(comm.rank)
            rows, cols = bc.local_rows(gr), bc.local_cols(gc)
            a_loc = a_global[np.ix_(rows, cols)].copy()
            exchange_pivot_rows_long(comm, bc, a_loc, pairs, np.ones(cols.size, bool))
            return comm.stats.bytes_sent

        assert sum(World(2).run(body)) == 0
