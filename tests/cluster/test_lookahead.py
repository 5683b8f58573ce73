"""Look-ahead depth and the panel broadcast shapes.

The acceptance bar for the overlap work: every broadcast shape delivers
bitwise-identical payloads, and the depth-1 (look-ahead) pipeline
reproduces the depth-0 ``DistributedHPL`` factorization bit for bit —
it is a pure reordering of independent work.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import hpl_mpi
from repro.cluster.comm import Comm, World
from repro.cluster.grid import ProcessGrid
from repro.cluster.hpl_mpi import DistributedHPL
from repro.cluster.panel_bcast import (
    ibcast_panel_finish,
    ibcast_panel_post,
    ibcast_panel_start,
)
from repro.spec import BCAST_ALGOS


class TestBroadcastShapeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(1, 2),
        size=st.integers(2, 6),
        root=st.integers(0, 5),
        algo=st.sampled_from(BCAST_ALGOS),
        depth=st.integers(0, 1),
        rows=st.integers(1, 40),
        cols=st.integers(1, 7),
        tuple_payload=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_all_shapes_bitwise_identical(
        self, p, size, root, algo, depth, rows, cols, tuple_payload, seed
    ):
        """Property: every shape, at both depths, delivers a payload
        bitwise equal to the root's — an ndarray, or the panel's
        ``(g_rows, block, ipiv)`` tuple — along process rows of any
        size from any root (each of ``p`` rows broadcasting its own
        payload at once), with a chunk size that does not divide the
        payload, and hands every staged segment back to its pool."""
        root = root % size
        grid = ProcessGrid(p, size)
        payloads = []
        for row in range(p):
            rng = np.random.default_rng(seed + row)
            block = rng.standard_normal((rows, cols))
            payloads.append(
                (np.arange(rows) * 3 + row, block, rng.integers(0, rows, size=cols))
                if tuple_payload
                else block
            )
        hop = dict(algo=algo, chunk_bytes=24 * 7 + 5, nonblocking=bool(depth))

        def body(comm):
            row, col = grid.coords(comm.rank)
            if col == root:
                got = payloads[row]
                reqs = ibcast_panel_start(comm, grid, got, root, 5, **hop)
            else:
                req = ibcast_panel_post(comm, grid, root, 5, algo=algo)
                got, reqs = ibcast_panel_finish(comm, grid, req, root, 5, **hop)
            comm.waitall(reqs)
            comm.barrier()  # every receiver has reassembled
            return row, got, comm.pool.active

        for row, got, active in World(grid.size).run(body):
            assert active == 0
            want = payloads[row]
            if not tuple_payload:
                got, want = (got,), (want,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    def test_ring_mod_tuple_payload_tandem_split(self):
        """The panel payload shape: (global_rows, L_block, ipiv) sent
        around a ring-mod row from a non-zero root in chunks that do not
        divide the block, reassembled bitwise at every hop."""
        g_rows = np.arange(10, 23)
        block = np.linspace(0.0, 1.0, 13 * 4).reshape(13, 4)
        ipiv = np.array([2, 0, 1])
        payload = (g_rows, block, ipiv)
        grid = ProcessGrid(1, 4)
        hop = dict(algo="ring-mod", chunk_bytes=5 * 8 + 3, nonblocking=True)

        def body(comm):
            if comm.rank == 1:
                got = payload
                reqs = ibcast_panel_start(comm, grid, got, 1, 5, **hop)
            else:
                req = ibcast_panel_post(comm, grid, 1, 5, algo="ring-mod")
                got, reqs = ibcast_panel_finish(comm, grid, req, 1, 5, **hop)
            comm.waitall(reqs)
            comm.barrier()  # every receiver has reassembled
            return got, comm.pool.active

        for got, active in World(4).run(body):
            assert active == 0
            assert np.array_equal(got[0], g_rows)
            assert np.array_equal(got[1], block)
            assert np.array_equal(got[2], ipiv)


class TestBroadcastShape:
    """The row broadcast runs the shape it names at both depths."""

    #: Stage-panel sends a row root issues per stage on a 1 x 4 grid.
    ROOT_SENDS = {"star": 3, "binomial": 2, "ring": 1, "ring-mod": 1}

    @pytest.fixture(scope="class")
    def runs(self):
        calls = []
        orig_send, orig_isend = Comm.send, Comm.isend

        def send(self, obj, dest, tag=0, op="send"):
            calls.append((self.rank, tag))
            return orig_send(self, obj, dest, tag=tag, op=op)

        def isend(self, obj, dest, tag=0, chunk_bytes=None, op="send"):
            calls.append((self.rank, tag))
            return orig_isend(self, obj, dest, tag=tag, chunk_bytes=chunk_bytes, op=op)

        out = {}
        mp = pytest.MonkeyPatch()
        mp.setattr(Comm, "send", send)
        mp.setattr(Comm, "isend", isend)
        try:
            for algo in BCAST_ALGOS:
                for lookahead in (False, True):
                    calls.clear()
                    r = _run(n=64, nb=8, p=1, q=4, bcast_algo=algo,
                             lookahead=lookahead)
                    out[algo, lookahead] = (r, list(calls))
        finally:
            mp.undo()
        return out

    @pytest.mark.parametrize("lookahead", [False, True], ids=["depth0", "depth1"])
    @pytest.mark.parametrize("algo", BCAST_ALGOS)
    def test_row_root_sends_per_stage(self, runs, algo, lookahead):
        r, calls = runs[algo, lookahead]
        assert r.passed
        stages = 64 // 8
        for k in range(stages):
            root_sends = calls.count((k % 4, hpl_mpi._PANEL_TAG + k))
            assert root_sends == self.ROOT_SENDS[algo], (algo, k)

    def test_every_shape_and_depth_bitwise_identical(self, runs):
        ref, _calls = runs["star", False]
        for r, _calls in runs.values():
            assert np.array_equal(r.lu, ref.lu)
            assert np.array_equal(r.ipiv, ref.ipiv)


def _run(**kw):
    return DistributedHPL(seed=11, **kw).run()


def _assert_bitwise(a, b):
    assert np.array_equal(a.lu, b.lu)
    assert np.array_equal(a.ipiv, b.ipiv)
    assert np.array_equal(a.x, b.x)


class TestLookaheadBitwise:
    @pytest.mark.parametrize(
        "p,q", [(2, 2), (1, 2), (2, 1), (1, 1), (3, 2)]
    )
    def test_matches_synchronous_any_grid(self, p, q):
        cfg = dict(n=96, nb=32, p=p, q=q)
        sync = _run(**cfg)
        assert sync.passed and not sync.lookahead
        la = _run(**cfg, lookahead=True)
        assert la.passed and la.lookahead
        _assert_bitwise(sync, la)

    @pytest.mark.parametrize("p,q", [(1, 3), (3, 1)])
    def test_thin_grid_panels_wider_than_a_rank_share(self, p, q):
        """nb = 24 exceeds every rank's 40/3-row (or -column) share, so
        some ranks own a partial block or none of a stage: the packed
        trailing update still matches across schedules and passes."""
        cfg = dict(n=40, nb=24, p=p, q=q)
        sync = _run(**cfg)
        la = _run(**cfg, lookahead=True)
        assert sync.passed and la.passed
        _assert_bitwise(sync, la)
        for r in (sync, la):
            assert dict(r.metrics.flatten())["blas.pack_cache.misses"] > 0

    @pytest.mark.parametrize("algo", ["star", "ring", "ring-mod"])
    def test_matches_synchronous_every_bcast_shape(self, algo):
        cfg = dict(n=100, nb=32, p=2, q=2)  # ragged last panel
        sync = _run(**cfg)
        _assert_bitwise(sync, _run(**cfg, bcast_algo=algo, lookahead=True))

    def test_ring_mod_synchronous_path_matches_star(self):
        cfg = dict(n=96, nb=32, p=2, q=2)
        _assert_bitwise(_run(**cfg), _run(**cfg, bcast_algo="ring-mod"))

    def test_substrate_variant_matches(self):
        cfg = dict(n=96, nb=32, p=2, q=2, workers=2)
        _assert_bitwise(_run(**cfg), _run(**cfg, lookahead=True))

    def test_chunk_size_does_not_change_numerics(self):
        cfg = dict(n=96, nb=32, p=2, q=2, lookahead=True)
        _assert_bitwise(_run(**cfg), _run(**cfg, chunk_kb=4))

    def test_seeded_n1024_acceptance(self):
        """The ISSUE 3 acceptance configuration: seeded n=1024 on a
        2x2 grid, look-ahead + non-blocking bitwise-identical."""
        cfg = dict(n=1024, nb=128, p=2, q=2)
        sync = _run(**cfg)
        la = _run(**cfg, lookahead=True, bcast_algo="ring-mod")
        assert la.passed
        _assert_bitwise(sync, la)


class TestOverlapMetrics:
    def test_lookahead_reports_hidden_time(self):
        r = _run(n=256, nb=64, p=2, q=2, lookahead=True)
        assert r.hidden_comm_s > 0.0
        assert r.exposed_comm_s > 0.0
        gauges = r.metrics.to_dict()["gauges"]
        assert gauges["comm.overlap.hidden_s"] == pytest.approx(r.hidden_comm_s)
        assert gauges["comm.overlap.wait_s"] == pytest.approx(r.exposed_comm_s)
        assert gauges["comm.overlap.drain_s"] >= gauges["comm.overlap.hidden_s"]
        timers = r.metrics.to_dict()["timers"]
        assert timers["comm.overlap.stage_hidden_s"]["count"] == 256 // 64
        assert timers["comm.overlap.stage_wait_s"]["count"] == 256 // 64

    def test_synchronous_run_hides_nothing(self):
        r = _run(n=128, nb=32, p=2, q=2)
        assert r.hidden_comm_s == 0.0
        assert r.exposed_comm_s > 0.0
        assert r.metrics.to_dict()["gauges"]["comm.overlap.hidden_s"] == 0.0
        timers = r.metrics.to_dict()["timers"]
        assert timers["comm.overlap.stage_hidden_s"]["count"] == 128 // 32
        assert timers["comm.overlap.stage_wait_s"]["count"] == 128 // 32
        assert timers["comm.overlap.stage_hidden_s"]["total_s"] == 0.0

    def test_result_fields_serialize(self):
        r = _run(n=96, nb=32, p=2, q=2, lookahead=True, bcast_algo="ring-mod")
        d = r.to_dict()
        assert d["lookahead"] is True
        assert d["bcast_algo"] == "ring-mod"
        assert d["hidden_comm_s"] > 0.0
        assert "lu" not in d  # ndarrays stay out of the JSON surface

    def test_invalid_chunk_kb_rejected(self):
        with pytest.raises(ValueError):
            DistributedHPL(64, 32, 1, 1, chunk_kb=0)
        with pytest.raises(ValueError):
            DistributedHPL(64, 32, 1, 1, bcast_algo="nope")
