"""BLAS substrate: the dense linear-algebra kernels of the paper,
implemented for real.

Everything here computes actual numbers (verified against NumPy/SciPy);
the corresponding *timing* lives in :mod:`repro.machine`. The package
implements:

* the Knights Corner-friendly packed tile formats of Figure 3
  (:mod:`repro.blas.packing`),
* the two basic matrix-multiply kernels of Figure 2, both through the
  vector-ISA emulator and through fast NumPy paths
  (:mod:`repro.blas.kernels`),
* row-major outer-product DGEMM/SGEMM built on the packed tiles
  (:mod:`repro.blas.gemm`),
* the LU building blocks: panel factorization with partial pivoting
  (:mod:`repro.blas.getrf`), row interchanges (:mod:`repro.blas.laswp`)
  and triangular solves (:mod:`repro.blas.trsm`),
* the L2 block-size chooser implementing the Section III-A1 inequality
  (:mod:`repro.blas.blocking`),
* the pack-once workspace — :class:`~repro.blas.workspace.PackCache` —
  that lets GEMM consumers pack each operand panel exactly once and
  reuse the tiles across all trailing updates
  (:mod:`repro.blas.workspace`),
* the buffer arena — :class:`~repro.blas.buffers.BufferPool` — that the
  kernels rent their scratch from so steady-state stages allocate
  nothing (:mod:`repro.blas.buffers`).
"""

from repro.blas.buffers import BufferPool, BufferPoolError
from repro.blas.packing import PackedA, PackedB, pack_a, pack_b, TILE_A_ROWS, TILE_B_COLS
from repro.blas.kernels import (
    basic_kernel_1,
    basic_kernel_2,
    basic_kernel_2_sp,
    core_multiply,
)
from repro.blas.gemm import gemm, dgemm, sgemm
from repro.blas.getrf import getf2, getrf
from repro.blas.laswp import laswp, apply_pivots_to_vector, pivots_to_permutation
from repro.blas.workspace import PackCache
from repro.blas.trsm import trsm_lower_unit_left, trsm_upper_left, trsm_lower_unit_right
from repro.blas.blocking import choose_blocking, BlockChoice

__all__ = [
    "BufferPool",
    "BufferPoolError",
    "PackedA",
    "PackedB",
    "pack_a",
    "pack_b",
    "TILE_A_ROWS",
    "TILE_B_COLS",
    "basic_kernel_1",
    "basic_kernel_2",
    "basic_kernel_2_sp",
    "core_multiply",
    "gemm",
    "dgemm",
    "sgemm",
    "getf2",
    "getrf",
    "laswp",
    "apply_pivots_to_vector",
    "pivots_to_permutation",
    "PackCache",
    "trsm_lower_unit_left",
    "trsm_upper_left",
    "trsm_lower_unit_right",
    "choose_blocking",
    "BlockChoice",
]
