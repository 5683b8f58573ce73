"""Process-backed LU and GEMM: bitwise identity with the serial and
thread paths at every worker count, with descriptors-only pipes."""

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.lu.dag import Task
from repro.lu.factorize import blocked_lu, lu_solve, lu_via_dag
from repro.lu.tasks import LUWorkspace
from repro.parallel import ProcessTileExecutor, TileExecutor, make_executor

#: Every pipe message must stay descriptor-sized: a matrix row would
#: already blow through this.
MAX_PIPE_MESSAGE_BYTES = 4096


@pytest.fixture
def rng():
    return np.random.default_rng(23)


class TestStripeGemm:
    @pytest.mark.parametrize("shape", [(500, 300, 260), (64, 50, 17)])
    def test_process_stripes_bitwise_match_serial_and_thread(self, rng, shape):
        m, k, n = shape
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c0 = rng.standard_normal((m, n))
        ref = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0)
        with TileExecutor(4) as tex:
            thread = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0, executor=tex)
        with ProcessTileExecutor(workers=2) as pex:
            proc = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0, executor=pex)
            assert pex.pipe_max_message_bytes < MAX_PIPE_MESSAGE_BYTES
            assert pex.arena.active == 0  # staged operands all released
        assert np.array_equal(ref, thread)
        assert np.array_equal(ref, proc)


class TestProcessLU:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_blocked_lu_bitwise_across_backends(self, rng, workers):
        a = rng.standard_normal((256, 256))
        lu_ref, ipiv_ref = blocked_lu(a.copy(), nb=48)
        with TileExecutor(4) as tex:
            lu_t, ipiv_t = blocked_lu(a.copy(), nb=48, workers=tex)
        with ProcessTileExecutor(workers=workers) as pex:
            lu_p, ipiv_p = blocked_lu(a.copy(), nb=48, workers=pex)
            assert pex.pipe_max_message_bytes < MAX_PIPE_MESSAGE_BYTES
            assert pex.arena.active == 0
        assert np.array_equal(lu_ref, lu_t) and np.array_equal(ipiv_ref, ipiv_t)
        assert np.array_equal(lu_ref, lu_p) and np.array_equal(ipiv_ref, ipiv_p)

    def test_blocked_lu_results_land_in_callers_array(self, rng):
        a = rng.standard_normal((128, 128))
        with ProcessTileExecutor(workers=2) as pex:
            out, _ = blocked_lu(a, nb=32, workers=pex)
        assert out is a  # the in-place contract survives the shm detour

    def test_lu_via_dag_waves_bitwise(self, rng):
        a = rng.standard_normal((192, 192))
        lu_ref, ipiv_ref = lu_via_dag(a.copy(), nb=48)
        with ProcessTileExecutor(workers=2) as pex:
            lu_p, ipiv_p = lu_via_dag(a.copy(), nb=48, workers=pex)
        assert np.array_equal(lu_ref, lu_p)
        assert np.array_equal(ipiv_ref, ipiv_p)

    def test_seeded_n1024_bitwise_and_solvable(self, rng):
        """The issue's acceptance shape: a seeded n=1024 factorization,
        process vs serial, down to the solved x."""
        n, nb = 1024, 128
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        lu_ref, ipiv_ref = blocked_lu(a.copy(), nb=nb)
        with ProcessTileExecutor(workers=2) as pex:
            lu_p, ipiv_p = blocked_lu(a.copy(), nb=nb, workers=pex)
        assert np.array_equal(lu_ref, lu_p)
        assert np.array_equal(ipiv_ref, ipiv_p)
        x_ref = lu_solve(lu_ref, ipiv_ref, b)
        x_p = lu_solve(lu_p, ipiv_p, b)
        assert np.array_equal(x_ref, x_p)


class TestSchedulerPathAdoption:
    """LUWorkspace driven task-by-task (the NativeHPL scheduler shape)
    with a process executor fanning each update's GEMM stripes."""

    @staticmethod
    def _drive(ws):
        for i in range(ws.n_panels):
            ws.execute(Task.panel_task(i))
            for p in range(i + 1, ws.n_panels):
                ws.execute(Task.update_task(i, p))
        return ws.finalize()

    def test_stripe_fanout_bitwise_and_identity_restored(self, rng):
        a0 = rng.standard_normal((300, 300))
        ref = a0.copy()
        ipiv_ref = self._drive(LUWorkspace(ref, 48))
        mine = a0.copy()
        ex = make_executor("process", workers=2)
        try:
            ws = LUWorkspace(mine, 48, executor=ex)
            ipiv = self._drive(ws)
            assert ws.a is mine  # caller's array identity restored
            assert ex.arena.active == 0
        finally:
            ex.close()
        assert np.array_equal(ref, mine)
        assert np.array_equal(ipiv_ref, ipiv)
