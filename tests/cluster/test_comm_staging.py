"""Send-side pooled staging: segments rent from the sender's arena and
``CommStats`` splits payload bytes into staged vs copied."""

import numpy as np

from repro.cluster.comm import World
from repro.obs.metrics import MetricsRegistry
from repro.resilience import RetryPolicy


def _exchange(comm, chunk_bytes=256):
    if comm.rank == 0:
        payload = {"a": np.arange(512.0), "tag": "hello"}
        req = comm.isend(payload, dest=1, chunk_bytes=chunk_bytes)
        req.wait()
        return None
    got = comm.recv(source=0)
    return got


class TestPooledStaging:
    def test_pooled_segments_counted_as_staged(self):
        world = World(2)
        results = world.run(_exchange)
        np.testing.assert_array_equal(results[1]["a"], np.arange(512.0))
        stats = world.comms[0].stats
        assert stats.staged_bytes == 512 * 8
        assert stats.copied_bytes > 0  # the header skeleton
        assert stats.staged_bytes + stats.copied_bytes == stats.bytes_sent

    def test_unpooled_segments_counted_as_copied(self):
        # Resilient mode stages segments as fresh copies, never pooled.
        world = World(2, retry=RetryPolicy())
        results = world.run(_exchange)
        np.testing.assert_array_equal(results[1]["a"], np.arange(512.0))
        stats = world.comms[0].stats
        assert stats.staged_bytes == 0
        assert stats.copied_bytes == stats.bytes_sent

    def test_segments_return_to_sender_arena(self):
        world = World(2)
        world.run(_exchange)
        pool = world.comms[0].pool
        assert pool.checkouts > 0
        assert pool.active == 0  # receiver released every staged segment
        assert pool.by_key.get("comm.segment", 0) == pool.checkouts

    def test_staged_transfer_reuses_arena_across_rounds(self):
        # Rank 1 acks each round once its recv has returned the segments
        # to rank 0's arena; rank 0 waits for the ack before the next
        # isend, so every round after the first rents released blocks.
        def body(comm):
            out = None
            for _ in range(4):
                out = _exchange(comm)
                if comm.rank == 1:
                    comm.send("ack", dest=0)
                else:
                    comm.recv(source=1)
            return out

        world = World(2)
        results = world.run(body)
        np.testing.assert_array_equal(results[1]["a"], np.arange(512.0))
        pool = world.comms[0].pool
        assert pool.reuses > 0
        assert pool.active == 0

    def test_receiver_never_aliases_the_arena(self):
        def body(comm):
            if comm.rank == 0:
                arr = np.full(512, 7.0)
                comm.isend(arr, dest=1, chunk_bytes=8192).wait()
                # next transfer reuses the same arena block
                comm.isend(np.zeros(512), dest=1, chunk_bytes=8192).wait()
                return None
            first = comm.recv(source=0)
            second = comm.recv(source=0)
            return first.copy(), second.copy()

        world = World(2)
        first, second = world.run(body)[1]
        np.testing.assert_array_equal(first, np.full(512, 7.0))
        np.testing.assert_array_equal(second, np.zeros(512))

    def test_plain_send_is_all_copied(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(16.0), dest=1)
                return None
            return comm.recv(source=0)

        world = World(2)
        world.run(body)
        stats = world.comms[0].stats
        assert stats.staged_bytes == 0
        assert stats.copied_bytes == stats.bytes_sent == 16 * 8

    def test_staging_split_published_to_metrics(self):
        world = World(2)
        world.run(_exchange)
        reg = MetricsRegistry()
        world.comms[0].stats.publish(reg, prefix="comm.rank0")
        snap = reg.to_dict()
        assert snap["counters"]["comm.rank0.staged_bytes"] == 512 * 8
        assert snap["counters"]["comm.rank0.copied_bytes"] > 0
