"""Triangular solves (DTRSM) used by the blocked LU.

Three variants cover everything the factorization and the final
substitutions need:

* :func:`trsm_lower_unit_left` — B <- L^{-1} B for unit lower-triangular
  L: the forward solve that turns the swapped row panel into Ui
  (Figure 5a's "forward solver", the orange DTRSM of Figure 7);
* :func:`trsm_upper_left` — B <- U^{-1} B for non-unit upper-triangular
  U: the back substitution of the final solve;
* :func:`trsm_lower_unit_right` — B <- B L^{-T}-style right solve
  variant used when updating a column panel against a factored diagonal
  block.

All are blocked: the triangular factor is processed in ``block``-sized
diagonal chunks with GEMM updates in between, so the bulk of the FLOPs
run through matrix-matrix products (the standard high-performance TRSM
formulation). Each diagonal chunk is handed to LAPACK's native solver
(:func:`scipy.linalg.solve_triangular`) in one call.

The inter-chunk GEMM products run through a workspace rented from a
:class:`~repro.blas.buffers.BufferPool` with ``np.matmul(..., out=)``
instead of allocating a temporary per chunk; a caller that passes no
``pool`` gets a call-local one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from repro.blas.buffers import BufferPool, matmul_into, subtract_into


def _native(
    t: np.ndarray,
    b: np.ndarray,
    lower: bool,
    unit: bool,
    pool: BufferPool,
) -> np.ndarray:
    """One LAPACK solve of the diagonal chunk.

    Chunk operands contiguous in neither memory order are staged
    through rented buffers — SciPy otherwise ``np.asarray``-copies them
    per chunk. The solver sees the same values either way.
    """
    staged = []
    try:
        if not (t.flags.c_contiguous or t.flags.f_contiguous):
            tc = pool.checkout(t.shape, t.dtype, key="trsm.tri")
            np.copyto(tc, t)
            staged.append(tc)
            t = tc
        if not (b.flags.c_contiguous or b.flags.f_contiguous):
            bc = pool.checkout(b.shape, b.dtype, key="trsm.rhs")
            np.copyto(bc, b)
            staged.append(bc)
            b = bc
        return solve_triangular(
            t, b, lower=lower, unit_diagonal=unit, check_finite=False
        )
    finally:
        for buf in staged:
            pool.release(buf)


def _check(t: np.ndarray, b: np.ndarray, left: bool = True) -> tuple:
    t = np.asarray(t)
    b = np.asarray(b)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("triangular factor must be square")
    if b.ndim != 2:
        raise ValueError("right-hand side must be 2-D")
    need = b.shape[0] if left else b.shape[1]
    if t.shape[0] != need:
        raise ValueError(
            f"dimension mismatch: factor is {t.shape[0]}x{t.shape[0]}, "
            f"rhs needs {need}"
        )
    return t, b


def _sub_product(
    target: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    work: np.ndarray,
    pool: BufferPool,
) -> None:
    """``target -= x @ y`` through the rented flat workspace."""
    if target.size:
        w = work[: target.size].reshape(target.shape)
        matmul_into(pool, x, y, w, key="trsm.stage")
        subtract_into(target, w)


def trsm_lower_unit_left(
    l: np.ndarray,
    b: np.ndarray,
    block: int = 64,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """Solve L X = B in place (unit lower-triangular L); returns B."""
    l, b = _check(l, b)
    if pool is None:
        pool = BufferPool()
    n = l.shape[0]
    if b.size == 0:
        return b
    with pool.rent((b.size,), b.dtype, key="trsm.work") as work:
        for j0 in range(0, n, block):
            j1 = min(j0 + block, n)
            b[j0:j1, :] = _native(
                l[j0:j1, j0:j1], b[j0:j1, :], lower=True, unit=True, pool=pool
            )
            if j1 < n:
                _sub_product(b[j1:, :], l[j1:, j0:j1], b[j0:j1, :], work, pool)
    return b


def trsm_upper_left(
    u: np.ndarray,
    b: np.ndarray,
    block: int = 64,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """Solve U X = B in place (non-unit upper-triangular U); returns B."""
    u, b = _check(u, b)
    if pool is None:
        pool = BufferPool()
    n = u.shape[0]
    if n and np.any(np.diag(u) == 0):
        raise np.linalg.LinAlgError("singular upper factor in TRSM")
    if b.size == 0:
        return b
    with pool.rent((b.size,), b.dtype, key="trsm.work") as work:
        for j1 in range(n, 0, -block):
            j0 = max(j1 - block, 0)
            b[j0:j1, :] = _native(
                u[j0:j1, j0:j1], b[j0:j1, :], lower=False, unit=False, pool=pool
            )
            if j0 > 0:
                _sub_product(b[:j0, :], u[:j0, j0:j1], b[j0:j1, :], work, pool)
    return b


def trsm_lower_unit_right(
    l: np.ndarray,
    b: np.ndarray,
    block: int = 64,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """Solve X L^T = B in place for unit lower-triangular L; returns B.

    Equivalently X = B @ L^{-T}; used to update a column panel against a
    factored diagonal block when the panel sits to the *left* of it.
    """
    l, b = _check(l, b, left=False)
    if pool is None:
        pool = BufferPool()
    n = l.shape[0]
    if b.size == 0:
        return b
    with pool.rent((b.size,), b.dtype, key="trsm.work") as work:
        for j0 in range(0, n, block):
            j1 = min(j0 + block, n)
            # X L_blk^T = B_blk transposes to L_blk X^T = B_blk^T.
            b[:, j0:j1] = _native(
                l[j0:j1, j0:j1], b[:, j0:j1].T, lower=True, unit=True, pool=pool
            ).T
            if j1 < n:
                _sub_product(b[:, j1:], b[:, j0:j1], l[j1:, j0:j1].T, work, pool)
    return b
