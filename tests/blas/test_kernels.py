"""Basic Kernel 1/2: numerics vs NumPy and instruction census vs the
paper's efficiency arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.kernels import (
    KERNEL1_ROWS,
    KERNEL2_ROWS,
    basic_kernel_1,
    basic_kernel_2,
)
from repro.blas.packing import pack_a, pack_b
from repro.machine.vector import VectorMachine


def tiles(rows, k, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, k))
    b = rng.standard_normal((k, 8))
    a_tile = pack_a(a, tile_rows=rows).tile(0)
    b_tile = pack_b(b).tile(0)
    return a, b, a_tile, b_tile


class TestKernelNumerics:
    def test_kernel1_matches_numpy(self):
        a, b, at, bt = tiles(KERNEL1_ROWS, 12)
        np.testing.assert_allclose(basic_kernel_1(at, bt), a @ b, rtol=1e-13)

    def test_kernel2_matches_numpy(self):
        a, b, at, bt = tiles(KERNEL2_ROWS, 12)
        np.testing.assert_allclose(basic_kernel_2(at, bt), a @ b, rtol=1e-13)

    def test_kernels_agree_on_shared_rows(self):
        # Kernel 1 on a 31-row tile and Kernel 2 on its first 30 rows
        # must produce identical values for those rows.
        a, b, at31, bt = tiles(KERNEL1_ROWS, 9, seed=3)
        at30 = pack_a(a[:30], tile_rows=30).tile(0)
        c1 = basic_kernel_1(at31, bt)
        c2 = basic_kernel_2(at30, bt)
        np.testing.assert_allclose(c1[:30], c2, rtol=1e-13)

    @given(st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_kernel2_property(self, k, seed):
        a, b, at, bt = tiles(KERNEL2_ROWS, k, seed)
        np.testing.assert_allclose(basic_kernel_2(at, bt), a @ b, rtol=1e-11, atol=1e-12)


class TestInstructionCensus:
    def test_kernel1_census_matches_paper(self):
        # Per iteration: 32 vector instructions, 31 vmadds, all touching
        # memory -> the 96.9% / stall analysis of Section III-A2.
        _, _, at, bt = tiles(KERNEL1_ROWS, 10)
        vm = VectorMachine()
        basic_kernel_1(at, bt, vm)
        k = 10
        c = vm.counts
        assert c.vmadd == 31 * k
        assert c.vmadd_mem == 31 * k
        assert c.load == k
        assert c.broadcast == 0
        assert c.vector_total - c.store == 32 * k  # stores are the c update
        assert c.memory_accessing - c.store == 32 * k  # no holes

    def test_kernel2_census_matches_paper(self):
        # Per iteration: 32 vector instructions, 30 vmadds, 28 touching
        # memory -> four port holes per iteration.
        _, _, at, bt = tiles(KERNEL2_ROWS, 10)
        vm = VectorMachine()
        basic_kernel_2(at, bt, vm)
        k = 10
        c = vm.counts
        assert c.vmadd == 30 * k
        assert c.vmadd_mem == 26 * k
        assert c.swizzle_use == 4 * k
        assert c.load == k
        assert c.broadcast == k
        assert c.vector_total - c.store == 32 * k
        assert (c.vector_total - c.store) - (c.memory_accessing - c.store) == 4 * k

    def test_kernel1_uses_all_32_registers(self):
        _, _, at, bt = tiles(KERNEL1_ROWS, 2)
        small = VectorMachine(n_registers=31)
        with pytest.raises(ValueError):
            basic_kernel_1(at, bt, small)

    def test_prefetches_co_issue(self):
        _, _, at, bt = tiles(KERNEL2_ROWS, 5)
        vm = VectorMachine()
        basic_kernel_2(at, bt, vm)
        assert vm.counts.prefetch == 2 * 5  # two fills per iteration
        # Prefetches never count against vector slots.
        assert vm.counts.vector_total == 32 * 5 + 30  # + final c stores


class TestValidation:
    def test_k_mismatch_raises(self):
        _, _, at, _ = tiles(KERNEL2_ROWS, 5)
        _, _, _, bt = tiles(KERNEL2_ROWS, 6)
        with pytest.raises(ValueError):
            basic_kernel_2(at, bt)

    def test_wrong_row_count_raises(self):
        _, _, at, bt = tiles(29, 5)
        with pytest.raises(ValueError):
            basic_kernel_2(at, bt)

    def test_wrong_b_width_raises(self):
        a = np.zeros((5, KERNEL2_ROWS))
        b = np.zeros((5, 7))
        with pytest.raises(ValueError):
            basic_kernel_2(a, b)
