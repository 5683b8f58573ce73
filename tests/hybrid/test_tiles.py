"""Tile grids, partial-tile merging, and work stealing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid.tiles import StealState, Tile, TileGrid


class TestTileGeometry:
    def test_exact_tiling(self):
        g = TileGrid(100, 80, 50, 40)
        assert len(g) == 4
        assert g.coverage_is_exact()

    def test_partial_tiles_merged_into_last_full_tile(self):
        # 100 = 2*40 + 20: the 20-row remainder merges into the second
        # tile, giving rows of heights 40 and 60 (Section V-B).
        g = TileGrid(100, 40, 40, 40)
        heights = sorted({(t.r1 - t.r0) for t in g})
        assert heights == [40, 60]
        assert g.n_tile_rows == 2
        assert g.coverage_is_exact()

    def test_single_undersized_tile_kept(self):
        g = TileGrid(30, 30, 40, 40)
        assert len(g) == 1
        assert g.tiles[0].m == 30

    def test_column_major_order(self):
        g = TileGrid(80, 80, 40, 40)
        # Forward order walks down each column first.
        assert [(t.r0, t.c0) for t in g.forward_order()] == [
            (0, 0),
            (40, 0),
            (0, 40),
            (40, 40),
        ]

    def test_backward_is_reverse(self):
        g = TileGrid(80, 80, 40, 40)
        assert g.backward_order() == list(reversed(g.forward_order()))

    def test_flops_and_bytes(self):
        t = Tile(0, 0, 10, 0, 20)
        assert t.flops(5) == 2 * 10 * 20 * 5
        assert t.output_bytes() == 8 * 200
        assert t.input_bytes(5) == 8 * 5 * 30

    def test_total_flops(self):
        g = TileGrid(100, 80, 50, 40)
        assert g.total_flops(7) == 2 * 100 * 80 * 7

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TileGrid(0, 10, 5, 5)
        with pytest.raises(ValueError):
            TileGrid(10, 10, 0, 5)

    # mt = nt = 1 draws build tens of thousands of tiles, which can take
    # longer than Hypothesis' default deadline on a loaded host.
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 100), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_coverage_property(self, m, n, mt, nt):
        g = TileGrid(m, n, mt, nt)
        assert g.coverage_is_exact()
        # No tile smaller than the step unless it is the only one in its
        # dimension (the merge rule).
        if g.n_tile_rows > 1:
            assert all(t.m >= min(mt, m) for t in g)
        if g.n_tile_cols > 1:
            assert all(t.n >= min(nt, n) for t in g)


class TestStealing:
    def test_front_and_back_meet_exactly_once(self):
        g = TileGrid(120, 120, 40, 40)
        s = StealState(g)
        seen = []
        while True:
            a = s.steal_front()
            if a is None:
                break
            seen.append(a.index)
            b = s.steal_back()
            if b is None:
                break
            seen.append(b.index)
        assert sorted(seen) == list(range(len(g)))

    def test_front_steals_c00_first(self):
        g = TileGrid(120, 120, 40, 40)
        t = StealState(g).steal_front()
        assert (t.r0, t.c0) == (0, 0)

    def test_back_steals_last_tile_first(self):
        g = TileGrid(120, 120, 40, 40)
        t = StealState(g).steal_back()
        assert (t.r1, t.c1) == (120, 120)

    def test_remaining_counts_down(self):
        g = TileGrid(80, 80, 40, 40)
        s = StealState(g)
        assert s.remaining == 4
        s.steal_front()
        s.steal_back()
        assert s.remaining == 2

    def test_exhaustion_returns_none(self):
        g = TileGrid(40, 40, 40, 40)
        s = StealState(g)
        assert s.steal_front() is not None
        assert s.steal_front() is None
        assert s.steal_back() is None
