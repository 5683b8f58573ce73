"""Single-precision bitwise determinism across executors and workers.

The MxP scheme leans on the factorization substrate being precision-
agnostic: the blocked LU, the stripe GEMM and the pooled buffers all
operate on the array's own dtype, so a float32 run must keep exactly
the determinism contract the float64 paths pin elsewhere — identical
bits at any worker count, on the thread and the process executor, with
and without the pack cache. Rounding happens in the same order through
every fan-out, so this is equality, not tolerance.
"""

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.hpl.matgen import hpl_system
from repro.lu.factorize import blocked_lu, lu_solve
from repro.parallel import ProcessTileExecutor, TileExecutor


@pytest.fixture(scope="module")
def sp_matrix():
    a, _b = hpl_system(192, dtype=np.float32)
    return a


@pytest.fixture(scope="module")
def sp_reference(sp_matrix):
    return blocked_lu(sp_matrix.copy(), nb=48)


class TestSPBlockedLU:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_thread_workers_bitwise_match_serial(
        self, sp_matrix, sp_reference, workers
    ):
        lu_ref, ipiv_ref = sp_reference
        with TileExecutor(workers) as ex:
            lu, ipiv = blocked_lu(sp_matrix.copy(), nb=48, workers=ex)
        assert lu.dtype == np.float32
        assert np.array_equal(lu_ref, lu)
        assert np.array_equal(ipiv_ref, ipiv)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_process_workers_bitwise_match_serial(
        self, sp_matrix, sp_reference, workers
    ):
        lu_ref, ipiv_ref = sp_reference
        with ProcessTileExecutor(workers=workers) as ex:
            lu, ipiv = blocked_lu(sp_matrix.copy(), nb=48, workers=ex)
            assert ex.arena.active == 0
        assert lu.dtype == np.float32
        assert np.array_equal(lu_ref, lu)
        assert np.array_equal(ipiv_ref, ipiv)

    def test_sp_solve_is_deterministic(self, sp_reference):
        a, b = hpl_system(192, dtype=np.float32)
        lu, ipiv = sp_reference
        x1 = lu_solve(lu, ipiv, b)
        x2 = lu_solve(lu.copy(), ipiv.copy(), b.copy())
        assert x1.dtype == np.float32
        assert np.array_equal(x1, x2)


class TestSPGemm:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_stripe_gemm_bitwise_across_backends(self, workers):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((160, 96)).astype(np.float32)
        b = rng.standard_normal((96, 128)).astype(np.float32)
        c0 = rng.standard_normal((160, 128)).astype(np.float32)
        ref = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0)
        assert ref.dtype == np.float32
        with TileExecutor(workers) as tex:
            thread = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0, executor=tex)
        with ProcessTileExecutor(workers=workers) as pex:
            proc = gemm(a, b, c0.copy(), alpha=-1.0, beta=1.0, executor=pex)
        assert np.array_equal(ref, thread)
        assert np.array_equal(ref, proc)
