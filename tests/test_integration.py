"""Cross-layer integration tests.

These tie the layers together end to end: the packed-kernel BLAS inside
the LU workspace, numeric runs whose schedulers only predict time,
offload DGEMM feeding an actual trailing update of a blocked LU stage,
and distributed runs agreeing with local ones.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DistributedHPL,
    NativeHPL,
    OffloadDGEMM,
    blocked_lu,
    lu_solve,
)
from repro.hpl.matgen import hpl_matrix, hpl_system
from repro.hpl.residual import residual_passes
from repro.lu.tasks import LUWorkspace
from tests.lu.test_schedulers import native_factors


class TestEndToEndNative:
    @pytest.mark.parametrize("nb", [16, 50, 128])
    def test_numeric_native_hpl_across_block_sizes(self, nb):
        r = NativeHPL(200, nb=nb).run(numeric=True)
        assert r.passed

    @pytest.mark.parametrize("scheduler", ["dynamic", "static"])
    def test_numeric_native_hpl_both_schedulers(self, scheduler):
        r = NativeHPL(180, nb=45, scheduler=scheduler).run(numeric=True)
        assert r.passed

    def test_packed_gemm_lu_full_pipeline(self):
        # The LU trailing updates run through the packed-tile BLAS (the
        # same code path as the emulated basic kernels) and still solve.
        a0, b = hpl_system(150, seed=1)
        a = a0.copy()
        ws = LUWorkspace(a, nb=30)
        ipiv = ws.factor()
        x = lu_solve(ws.a, ipiv, np.asarray(b))
        assert residual_passes(a0, x, b)

    def test_simulated_time_independent_of_numerics(self):
        # The schedulers only predict: a numeric run and a model-only
        # run of the same spec report the same time, metrics and trace.
        for scheduler in ("dynamic", "static"):
            model = NativeHPL(160, nb=40, scheduler=scheduler).run()
            numeric = NativeHPL(160, nb=40, scheduler=scheduler).run(numeric=True)
            assert numeric.passed
            assert numeric.time_s == model.time_s
            assert numeric.factor_time_s == model.factor_time_s
            assert _sched_metrics(numeric) == _sched_metrics(model)
            assert numeric.trace.spans == model.trace.spans


def _sched_metrics(result) -> dict:
    """Every ``sched.*`` entry of a result's metrics, by kind."""
    return {
        kind: {k: v for k, v in entries.items() if k.startswith("sched.")}
        for kind, entries in result.metrics.to_dict().items()
    }


class TestOffloadIntoLU:
    def test_offload_performs_a_real_trailing_update(self):
        # Factor a panel, then do the stage's trailing update through the
        # offload engine and finish the factorization with the reference
        # path — the result must match scipy.
        n, nb = 120, 30
        a0 = hpl_matrix(n, seed=5)
        a = a0.copy()
        ws = LUWorkspace(a, nb)
        from repro.lu.dag import Task

        ws.execute(Task.panel_task(0))
        ws.execute(Task.update_task(0, 1))
        ws.execute(Task.update_task(0, 2))
        ws.execute(Task.update_task(0, 3))
        # Redo stage 0's full trailing GEMM contribution through offload
        # on a copy and compare blocks.
        a2 = a0.copy()
        ws2 = LUWorkspace(a2, nb)
        ws2.execute(Task.panel_task(0))
        # swap + trsm for all panels, then subtract L21 @ U via offload.
        from repro.blas.laswp import laswp
        from repro.blas.trsm import trsm_lower_unit_left

        ipiv = ws2.stage_ipiv[0]
        block = a2[:, nb:]
        laswp(block, ipiv, forward=True)
        trsm_lower_unit_left(a2[:nb, :nb], block[:nb])
        l21 = np.ascontiguousarray(a2[nb:, :nb])
        u = np.ascontiguousarray(block[:nb])
        c = np.ascontiguousarray(block[nb:])
        OffloadDGEMM(n - nb, n - nb, kt=nb, tile=(40, 40), host_assist=True).run(
            -l21, u, c
        )
        block[nb:] = c
        np.testing.assert_allclose(a2, a, rtol=1e-11, atol=1e-12)


class TestDistributedAgreesWithLocal:
    @given(st.integers(20, 70), st.integers(4, 20), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_distributed_vs_local_property(self, n, nb, p, q):
        r = DistributedHPL(n, nb, p, q).run()
        lu_ref, ipiv_ref = blocked_lu(hpl_matrix(n, 42).copy(), nb=nb)
        np.testing.assert_allclose(r.lu, lu_ref, rtol=1e-11, atol=1e-12)
        np.testing.assert_array_equal(r.ipiv, ipiv_ref)
        assert r.passed

    def test_distributed_solution_solves_original_system(self):
        r = DistributedHPL(64, 8, 2, 2).run()
        a0, b = hpl_system(64, 42)
        np.testing.assert_allclose(a0 @ r.x, b, rtol=1e-8, atol=1e-8)


class TestSchedulersAgreeNumerically:
    def test_both_schedulers_same_factorization(self, monkeypatch):
        lu_d, ipiv_d, a0 = native_factors(monkeypatch, 140, 35, "dynamic")
        lu_s, ipiv_s, _ = native_factors(monkeypatch, 140, 35, "static")
        np.testing.assert_array_equal(lu_d, lu_s)
        np.testing.assert_array_equal(ipiv_d, ipiv_s)
        lu_ref, ipiv_ref = blocked_lu(a0.copy(), nb=35)
        np.testing.assert_array_equal(lu_d, lu_ref)
        np.testing.assert_array_equal(ipiv_d, ipiv_ref)

    def test_scipy_cross_check(self):
        a0 = hpl_matrix(96, seed=11)
        ws = LUWorkspace(a0.copy(), 24)
        ipiv = ws.factor()
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(ws.a, lu_ref, rtol=1e-10, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_ref)
