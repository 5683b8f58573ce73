"""Hardened-channel behaviour: heal, dedup, timeout taxonomy, clean close."""

import threading

import numpy as np
import pytest

from repro.cluster.comm import (
    CommCorruption,
    CommError,
    CommTimeout,
    RankDeadError,
    World,
)
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy

RETRY = RetryPolicy(comm_timeout_s=0.3, max_retries=2)


def _injector(dsl):
    return FaultInjector(FaultPlan.parse(dsl))


def _ping(comm):
    if comm.rank == 0:
        comm.send(np.arange(64.0), dest=1, tag=3)
        return None
    return comm.recv(source=0, tag=3).copy()


class TestHealing:
    def test_dropped_message_is_resent(self):
        world = World(2, injector=_injector("drop:op=send"), retry=RETRY)
        results = world.run(_ping)
        np.testing.assert_array_equal(results[1], np.arange(64.0))
        snap = world.comms[1].rstats.snapshot()
        assert snap["resend_requests"] >= 1
        assert world.comms[0].rstats.snapshot()["resends"] >= 1

    def test_corrupted_message_detected_and_resent(self):
        world = World(2, injector=_injector("seed=2;corrupt:op=send"),
                      retry=RETRY)
        results = world.run(_ping)
        np.testing.assert_array_equal(results[1], np.arange(64.0))
        assert world.comms[1].rstats.snapshot()["corruption_detected"] >= 1

    def test_duplicated_message_discarded(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(64.0), dest=1, tag=3)
                comm.send("done", dest=1, tag=4)
                return None
            first = comm.recv(source=0, tag=3).copy()
            # Waiting on the second message pumps the duplicate of the first.
            assert comm.recv(source=0, tag=4) == "done"
            return first

        world = World(2, injector=_injector("duplicate:op=send"), retry=RETRY)
        results = world.run(body)
        np.testing.assert_array_equal(results[1], np.arange(64.0))
        assert world.comms[1].rstats.snapshot()["duplicates_dropped"] >= 1

    def test_resilient_collectives_match_plain(self):
        def body(comm):
            v = comm.bcast(np.full(8, comm.rank + 1.0), root=0)
            s = comm.allreduce(float(comm.rank))
            return (v.copy(), s)

        plain = World(3).run(body)
        healed = World(3, injector=_injector("seed=4;drop:op=bcast"),
                       retry=RETRY).run(body)
        for (pv, ps), (hv, hs) in zip(plain, healed):
            np.testing.assert_array_equal(pv, hv)
            assert ps == hs

    def test_byte_counters_ignore_resent_traffic(self):
        plain = World(2)
        plain.run(_ping)
        faulty = World(2, injector=_injector("drop:op=send;duplicate:op=send"),
                       retry=RETRY)
        faulty.run(_ping)
        assert (faulty.comms[0].stats.bytes_sent
                == plain.comms[0].stats.bytes_sent)


class TestFailureTaxonomy:
    def test_timeout_after_exhausted_retries(self):
        def body(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=5)  # never sent

        world = World(2, timeout_s=30.0, retry=RetryPolicy(
            comm_timeout_s=0.05, max_retries=2))
        with pytest.raises(CommTimeout):
            world.run(body)
        hist = world.comms[1].rstats.snapshot()["retry_histogram"]
        assert set(hist) == {1, 2, 3}  # initial attempt + two retries
        assert sum(hist.values()) == 3

    def test_recv_from_dead_rank_raises(self):
        def body(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(source=0, tag=1)

        with pytest.raises(RuntimeError, match="boom"):
            World(2, retry=RETRY).run(body)

    def test_declare_dead_surfaces_rank_dead(self):
        world = World(2, retry=RETRY)
        world.declare_dead(0)

        def body(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=1)

        with pytest.raises(RankDeadError):
            world.run(body)

    def test_exception_taxonomy(self):
        assert issubclass(CommTimeout, CommError)
        assert issubclass(CommCorruption, CommError)
        assert issubclass(RankDeadError, CommError)


class TestClose:
    def test_close_is_idempotent_and_reentrant(self):
        world = World(2, retry=RETRY)
        world.run(_ping)
        world.close()
        world.close()
        for comm in world.comms:
            comm.close()

    def test_context_manager_closes(self):
        with World(2, retry=RETRY) as world:
            world.run(_ping)
        world.close()  # already closed: no-op

    def test_close_drains_undelivered_pooled_parts(self):
        world = World(2)

        def body(comm):
            if comm.rank == 0:
                # Chunked through the pool; the receiver never recvs it.
                comm.isend(np.ones(4096), dest=1, tag=9,
                           chunk_bytes=4096).wait()

        world.run(body)
        pool = world.comms[0].pool
        assert pool.active > 0  # segments parked in rank 1's mailbox
        world.close()
        assert pool.active == 0  # drain released them back to the arena

    def test_abort_mid_transfer_leaves_no_threads(self):
        before = threading.active_count()
        world = World(2, retry=RetryPolicy(comm_timeout_s=0.05, max_retries=0))

        def body(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=2)  # times out

        with pytest.raises(CommTimeout):
            world.run(body)
        world.close()
        assert threading.active_count() <= before
