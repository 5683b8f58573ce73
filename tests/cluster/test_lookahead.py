"""Look-ahead schedule and broadcast-shape equivalence.

The acceptance bar for the overlap work: every broadcast algorithm
delivers bitwise-identical payloads, and the look-ahead pipeline
reproduces the synchronous ``DistributedHPL`` factorization bit for
bit — it is a pure reordering of independent work.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.bcast_algos import (
    binomial_bcast,
    ring_bcast,
    segmented_ring_bcast,
    segmented_ring_bcast_nb,
)
from repro.cluster.comm import World
from repro.cluster.hpl_mpi import DistributedHPL


def _star_bcast(comm, payload, root, group):
    return comm.bcast(payload, root=root, ranks=group)


ALL_SHAPES = [
    _star_bcast,
    ring_bcast,
    binomial_bcast,
    segmented_ring_bcast,
    segmented_ring_bcast_nb,
]


class TestBroadcastShapeEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        size=st.integers(2, 6),
        root=st.integers(0, 5),
        rows=st.integers(1, 40),
        cols=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_all_shapes_bitwise_identical(self, size, root, rows, cols, seed):
        """Property: star / ring / binomial / segmented-ring / ring-mod
        deliver bitwise-identical arrays for any group, root and shape."""
        root = root % size
        rng = np.random.default_rng(seed)
        payload = rng.standard_normal((rows, cols))
        group = list(range(size))
        per_algo = []
        for algo in ALL_SHAPES:

            def body(comm, algo=algo):
                data = payload if comm.rank == root else None
                return algo(comm, data, root, group)

            per_algo.append(World(size).run(body))
        for results in per_algo[1:]:
            for got, want in zip(results, per_algo[0]):
                assert np.array_equal(got, want)
                assert got.dtype == want.dtype and got.shape == want.shape

    def test_ring_mod_tuple_payload_tandem_split(self):
        """The panel payload shape: (global_rows, L_block) split in
        tandem along the leading dimension, ipiv riding with segment 0."""
        g_rows = np.arange(10, 23)
        block = np.linspace(0.0, 1.0, 13 * 4).reshape(13, 4)
        ipiv = np.array([2, 0, 1])
        payload = (g_rows, block, ipiv)

        def body(comm):
            data = payload if comm.rank == 1 else None
            return segmented_ring_bcast_nb(comm, data, 1, [0, 1, 2, 3], segments=5)

        for got in World(4).run(body):
            assert np.array_equal(got[0], g_rows)
            assert np.array_equal(got[1], block)
            assert np.array_equal(got[2], ipiv)


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
