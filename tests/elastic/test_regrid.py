"""End-to-end elastic runs: reshape mid-run, finish bitwise-identical.

The elastic subsystem's acceptance scenario: a distributed run that
grows or shrinks its grid at a panel cut must produce **bitwise
identical** ``lu`` / ``ipiv`` / ``x`` (and the same residual) as an
uninterrupted run on the final grid — for the synchronous and the
look-ahead schedules, for the thread and the process executors — and a
rank death with no spare must shrink to the survivors and still pass.
"""

import numpy as np
import pytest

from repro.cluster.hpl_mpi import DistributedHPL
from repro.resilience import CheckpointLayoutError, CheckpointStore, RetryPolicy

CFG = dict(n=96, nb=16, seed=42)
RETRY = RetryPolicy(comm_timeout_s=0.5, max_retries=2)


def _bitwise(r, ref):
    assert r.passed
    assert np.array_equal(r.lu, ref.lu)
    assert np.array_equal(r.ipiv, ref.ipiv)
    assert np.array_equal(r.x, ref.x)
    assert r.residual == ref.residual


class TestRegridBitwise:
    @pytest.mark.parametrize("lookahead", [False, True],
                             ids=["sync", "lookahead"])
    @pytest.mark.parametrize("start,target", [
        ((2, 2), (2, 4)),   # grow
        ((2, 4), (2, 2)),   # shrink
        ((2, 2), (1, 2)),   # shrink below both dims
    ], ids=["grow-2x2-2x4", "shrink-2x4-2x2", "shrink-2x2-1x2"])
    def test_regrid_matches_uninterrupted_final_grid(
        self, start, target, lookahead
    ):
        ref = DistributedHPL(**CFG, p=target[0], q=target[1],
                             lookahead=lookahead).run()
        r = DistributedHPL(**CFG, p=start[0], q=start[1],
                           lookahead=lookahead,
                           regrid=[f"panel=3:{target[0]}x{target[1]}"]).run()
        _bitwise(r, ref)
        assert (r.p, r.q) == target  # the result names the final grid
        assert r.regrids == 1
        assert r.regrid_moved_bytes > 0
        assert r.regrid_wall_s > 0.0

    def test_lookahead_shrink_drops_the_panel_owner_column(self):
        # At the cut (panel 3) on 1x2 the in-flight panel belongs to
        # rank 1, which leaves the 1x1 world: its look-ahead pivots must
        # reach the survivor through rank 0.
        ref = DistributedHPL(**CFG, p=1, q=1, lookahead=True).run()
        r = DistributedHPL(**CFG, p=1, q=2, lookahead=True,
                           regrid=["panel=3:1x1"]).run()
        _bitwise(r, ref)
        assert (r.p, r.q) == (1, 1)
        assert r.regrids == 1

    def test_regrid_with_process_executor(self):
        ref = DistributedHPL(**CFG, p=2, q=4, executor="process").run()
        r = DistributedHPL(**CFG, p=2, q=2, executor="process",
                           regrid=["panel=3:2x4"]).run()
        _bitwise(r, ref)
        assert r.regrids == 1

    def test_multi_point_schedule(self):
        ref = DistributedHPL(**CFG, p=1, q=2).run()
        r = DistributedHPL(**CFG, p=2, q=2,
                           regrid=["panel=2:2x4", "panel=4:1x2"]).run()
        _bitwise(r, ref)
        assert r.regrids == 2
        assert (r.p, r.q) == (1, 2)

    def test_static_run_reports_no_regrids(self):
        r = DistributedHPL(**CFG, p=2, q=2).run()
        assert r.regrids == 0
        assert r.regrid_wall_s == 0.0
        assert r.regrid_moved_bytes == 0

    def test_bad_schedule_rejected_up_front(self):
        with pytest.raises(ValueError):
            DistributedHPL(**CFG, p=2, q=2, regrid=["panel=99:2x4"]).run()


class TestShrinkOnDeath:
    def test_rank_death_shrinks_to_survivors(self):
        r = DistributedHPL(**CFG, p=2, q=2,
                           fault_plan="seed=5;crash:rank=3,stage=3",
                           checkpoint_every=2, retry=RETRY,
                           on_rank_death="shrink").run()
        assert r.passed
        assert (r.p, r.q) == (1, 3)  # 3 survivors, most-square grid
        res = r.resilience
        assert res["recoveries"] == 1
        assert res["shrinks"] == 1

    def test_shrink_without_checkpoint_restarts_fresh_on_survivors(self):
        # Crash before the first consistent cut: nothing to redistribute,
        # the survivors restart the factorization from scratch.
        r = DistributedHPL(**CFG, p=2, q=2,
                           fault_plan="seed=5;crash:rank=3,stage=1",
                           checkpoint_every=4, retry=RETRY,
                           on_rank_death="shrink").run()
        assert r.passed
        assert (r.p, r.q) == (1, 3)
        assert r.resilience["shrinks"] == 1

    def test_lookahead_shrink_on_death(self):
        r = DistributedHPL(**CFG, p=2, q=4, lookahead=True,
                           fault_plan="seed=5;crash:rank=7,stage=3",
                           checkpoint_every=2, retry=RETRY,
                           on_rank_death="shrink").run()
        assert r.passed
        assert (r.p, r.q) == (1, 7)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            DistributedHPL(**CFG, p=2, q=2, on_rank_death="panic")


class TestLayoutGuard:
    def test_same_geometry_resume_refuses_foreign_checkpoint(self):
        # A store written under 2x4 cannot restore a 2x2 run: the blob's
        # layout header trips CheckpointLayoutError instead of a shape
        # crash deep inside the factorization. The crash lands before
        # the 2x2 run writes any cut of its own, so recovery finds only
        # the foreign blobs.
        store = CheckpointStore()
        DistributedHPL(**CFG, p=2, q=4, checkpoint_every=2,
                       checkpoint_store=store).run()
        with pytest.raises(CheckpointLayoutError, match="2x4"):
            DistributedHPL(**CFG, p=2, q=2, checkpoint_every=2,
                           checkpoint_store=store,
                           fault_plan="crash:rank=1,stage=1",
                           retry=RETRY).run()
