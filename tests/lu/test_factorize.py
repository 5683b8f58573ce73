"""Blocked LU numerics: reference, DAG orders, and solve."""

import random

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lu.factorize import blocked_lu, lu_solve, lu_via_dag
from repro.lu.tasks import LUWorkspace
from repro.lu.dag import Task


def rand(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


class TestBlockedLU:
    def test_matches_scipy(self):
        a0 = rand(96, 0)
        lu, ipiv = blocked_lu(a0.copy(), nb=24)
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_ref)

    def test_block_size_larger_than_matrix(self):
        a0 = rand(20, 1)
        lu, ipiv = blocked_lu(a0.copy(), nb=64)
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-9, atol=1e-11)

    def test_ragged_last_panel(self):
        a0 = rand(70, 2)  # 70 = 2*32 + 6
        lu, ipiv = blocked_lu(a0.copy(), nb=32)
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_ref)

    @given(st.integers(2, 90), st.integers(4, 48))
    @settings(max_examples=25, deadline=None)
    def test_property_vs_scipy(self, n, nb):
        a0 = rand(n, n * 7 + nb)
        lu, ipiv = blocked_lu(a0.copy(), nb=nb)
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-8, atol=1e-9)
        np.testing.assert_array_equal(ipiv, piv_ref)


class TestDagOrders:
    def test_default_priority_order(self):
        a0 = rand(80, 4)
        lu, ipiv = lu_via_dag(a0.copy(), nb=16)
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_ref)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_random_topological_orders_agree(self, seed):
        # Any dependency-respecting order must give the identical result:
        # the correctness foundation of dynamic scheduling.
        rng = random.Random(seed)
        a0 = rand(72, 5)
        lu, ipiv = lu_via_dag(a0.copy(), nb=24, pick=lambda ts: rng.choice(ts))
        lu_ref, piv_ref = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_ref)


class TestSolve:
    def test_solves_system(self):
        a0 = rand(60, 6)
        b = np.random.default_rng(7).standard_normal(60)
        lu, ipiv = blocked_lu(a0.copy(), nb=16)
        x = lu_solve(lu, ipiv, b)
        np.testing.assert_allclose(a0 @ x, b, rtol=1e-9, atol=1e-9)

    def test_matches_numpy_solve(self):
        a0 = rand(45, 8)
        b = np.random.default_rng(9).standard_normal(45)
        lu, ipiv = blocked_lu(a0.copy(), nb=12)
        np.testing.assert_allclose(
            lu_solve(lu, ipiv, b), np.linalg.solve(a0, b), rtol=1e-8, atol=1e-9
        )

    def test_wrong_rhs_shape(self):
        a0 = rand(10, 10)
        lu, ipiv = blocked_lu(a0.copy(), nb=4)
        with pytest.raises(ValueError):
            lu_solve(lu, ipiv, np.zeros(9))


class TestWorkspace:
    def test_requires_square_float(self):
        with pytest.raises(ValueError):
            LUWorkspace(np.zeros((3, 4)), 2)
        with pytest.raises(ValueError):
            LUWorkspace(np.zeros((4, 4), dtype=int), 2)
        with pytest.raises(ValueError):
            LUWorkspace(np.zeros((4, 4)), 0)

    def test_double_panel_raises(self):
        ws = LUWorkspace(rand(20, 10), 10)
        ws.execute(Task.panel_task(0))
        with pytest.raises(RuntimeError):
            ws.execute(Task.panel_task(0))

    def test_update_before_panel_raises(self):
        ws = LUWorkspace(rand(20, 11), 10)
        with pytest.raises(RuntimeError):
            ws.execute(Task.update_task(0, 1))

    def test_finalize_before_done_raises(self):
        ws = LUWorkspace(rand(20, 12), 10)
        with pytest.raises(RuntimeError):
            ws.finalize()

    def test_double_finalize_raises(self):
        a = rand(20, 13)
        ws = LUWorkspace(a, 20)
        ws.execute(Task.panel_task(0))
        ws.finalize()
        with pytest.raises(RuntimeError):
            ws.finalize()

    def test_panel_geometry(self):
        ws = LUWorkspace(rand(25, 14), 10)
        assert ws.n_panels == 3
        assert ws.panel_width(2) == 5
        assert ws.panel_cols(1) == slice(10, 20)
