"""Panel factorization: LU with partial pivoting (DGETRF).

The panel factorization [DLi] of stage i (Figure 5a) factors a tall
M x nb panel in place into unit-lower L (below the diagonal) and upper U
(on/above), producing the pivot vector the row swaps are based on.

Two variants:

* :func:`getf2` — unblocked right-looking factorization (the classic
  rank-1 update loop), used at the recursion base;
* :func:`getrf` — recursive blocked factorization splitting the column
  range in half, applying swaps and a triangular solve to the right
  half, then a GEMM update. Recursion converts most of the panel work
  into matrix-matrix products, which is what makes a highly optimised
  panel factorization possible on Knights Corner (Section IV).

Pivot convention is LAPACK's: ``ipiv[j] = r`` means row j was swapped
with row r (r >= j, indices local to the factored block) *at step j*.

Allocation discipline: the pivot search computes |column| into a
reusable scratch vector (one allocation per call, not one per column),
row swaps go through an explicit swap-row buffer instead of the
double-copying fancy-index idiom, and all scratch (including the rank-1
and trailing-GEMM workspaces, which run through ``np.matmul(...,
out=)`` instead of ``np.outer`` / ``@`` temporaries) is rented from a
:class:`~repro.blas.buffers.BufferPool`, so steady-state panel
factorizations allocate nothing. A caller that passes no ``pool`` gets
a call-local one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blas.buffers import BufferPool, matmul_into, subtract_into


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a zero pivot column makes the factorization break down."""


def _swap_rows(a: np.ndarray, j: int, p: int, row_buf: np.ndarray) -> None:
    """Exchange rows j and p of ``a`` through ``row_buf`` (one row copy
    instead of the two (2, n) gathers of ``a[[j, p]] = a[[p, j]]``)."""
    row_buf[...] = a[j]
    a[j] = a[p]
    a[p] = row_buf


def getf2(
    a: np.ndarray,
    ipiv: np.ndarray | None = None,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """Unblocked in-place LU with partial pivoting of an (m, n) block.

    Returns ``ipiv`` (length min(m, n)). The scratch (pivot-search
    vector, swap row, rank-1 workspace) is rented from ``pool`` (a
    call-local :class:`~repro.blas.buffers.BufferPool` when omitted).
    """
    a = _check_panel(a)
    m, n = a.shape
    kmax = min(m, n)
    if ipiv is None:
        ipiv = np.zeros(kmax, dtype=np.int64)
    if kmax == 0:
        return ipiv
    if pool is None:
        pool = BufferPool()
    abs_col = pool.checkout((m,), a.dtype, key="getf2.abs")
    row_buf = pool.checkout((n,), a.dtype, key="getf2.swap")
    rank1 = pool.checkout(((m - 1) * (n - 1),), a.dtype, key="getf2.rank1")
    try:
        for j in range(kmax):
            scratch = abs_col[: m - j]
            np.abs(a[j:, j], out=scratch)
            p = j + int(np.argmax(scratch))
            if a[p, j] == 0.0:
                raise SingularMatrixError(f"zero pivot column at step {j}")
            ipiv[j] = p
            if p != j:
                _swap_rows(a, j, p, row_buf)
            a[j + 1 :, j] /= a[j, j]
            if j + 1 < n:
                # Rank-1 trailing update.
                trailing = a[j + 1 :, j + 1 :]
                if trailing.size:
                    w = rank1[: trailing.size].reshape(trailing.shape)
                    # Outer product via k=1 GEMM: one multiply per
                    # element, bitwise equal to np.outer, and unlike the
                    # broadcast ufunc it never stages through numpy's
                    # internal iteration buffers.
                    np.matmul(a[j + 1 :, j, None], a[None, j, j + 1 :], out=w)
                    subtract_into(trailing, w)
    finally:
        pool.release(abs_col)
        pool.release(row_buf)
        pool.release(rank1)
    return ipiv


def getrf(
    a: np.ndarray, min_block: int = 16, pool: Optional[BufferPool] = None
) -> np.ndarray:
    """Recursive blocked in-place LU with partial pivoting.

    Splits columns in half; the left half recursion produces pivots that
    are applied to the right half, followed by a unit-lower triangular
    solve and a GEMM update of the bottom-right block. Returns the pivot
    vector in the same convention as :func:`getf2`. One
    :class:`~repro.blas.buffers.BufferPool` (``pool``, or a call-local
    one) is threaded through the recursion, so the swap rows,
    forward-solve workspaces and trailing-GEMM products are rented
    instead of allocated.
    """
    a = _check_panel(a)
    m, n = a.shape
    kmax = min(m, n)
    ipiv = np.zeros(kmax, dtype=np.int64)
    _getrf_rec(a, ipiv, min_block, BufferPool() if pool is None else pool)
    return ipiv


def _apply_swaps(
    a: np.ndarray,
    ipiv: np.ndarray,
    kmax: int,
    pool: BufferPool,
    key: str,
) -> None:
    """Apply ``ipiv[:kmax]``'s swaps to the rows of ``a`` through one
    swap-row buffer."""
    if a.shape[1] == 0:
        return
    with pool.rent((a.shape[1],), a.dtype, key=key) as row_buf:
        for j in range(kmax):
            p = ipiv[j]
            if p != j:
                _swap_rows(a, j, p, row_buf)


def _getrf_rec(
    a: np.ndarray,
    ipiv: np.ndarray,
    min_block: int,
    pool: BufferPool,
) -> None:
    m, n = a.shape
    kmax = min(m, n)
    if kmax <= min_block:
        getf2(a, ipiv[:kmax], pool=pool)
        return
    n1 = kmax // 2
    left = a[:, :n1]
    _getrf_rec(left, ipiv[:n1], min_block, pool)
    # Apply the left half's swaps to the right half.
    right = a[:, n1:]
    _apply_swaps(right, ipiv, n1, pool, "getrf.swap_right")
    # U12 = L11^{-1} @ A12 (unit lower triangular forward solve) ...
    l11 = left[:n1, :]
    u12 = right[:n1, :]
    _forward_solve_unit_inplace(l11, u12, pool)
    # ... then the trailing GEMM: A22 -= L21 @ U12.
    if m > n1:
        a22 = right[n1:, :]
        if a22.size:
            with pool.rent(a22.shape, a.dtype, key="getrf.gemm") as w:
                matmul_into(pool, left[n1:, :], u12, w, key="getrf.gemm")
                subtract_into(a22, w)
        sub_ipiv = np.zeros(kmax - n1, dtype=np.int64)
        _getrf_rec(a[n1:, n1:], sub_ipiv, min_block, pool)
        # Apply the sub-factorization's swaps to the left columns and
        # rebase its pivot indices.
        _apply_swaps(a[n1:, :n1], sub_ipiv, kmax - n1, pool, "getrf.swap_left")
        ipiv[n1:] = sub_ipiv + n1


def _forward_solve_unit_inplace(
    l: np.ndarray, b: np.ndarray, pool: BufferPool
) -> None:
    """b <- L^{-1} b for unit lower-triangular L, blocked loop.

    The per-column rank-1 products and the inter-block GEMM run through
    one rented workspace (``out=``) instead of temporaries.
    """
    n = l.shape[0]
    step = 32
    ncols = b.shape[1]
    if ncols == 0 or n == 0:
        return
    with pool.rent((n * ncols,), b.dtype, key="fsolve.work") as work:
        for j0 in range(0, n, step):
            j1 = min(j0 + step, n)
            for j in range(j0, j1):
                rows = b[j + 1 : j1, :]
                if rows.size:
                    w = work[: rows.size].reshape(rows.shape)
                    np.matmul(l[j + 1 : j1, j, None], b[None, j, :], out=w)
                    subtract_into(rows, w)
            if j1 < n:
                below = b[j1:, :]
                w = work[: below.size].reshape(below.shape)
                matmul_into(pool, l[j1:, j0:j1], b[j0:j1, :], w, key="fsolve.work")
                subtract_into(below, w)


def _check_panel(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("panel must be 2-D")
    if a.dtype.kind != "f":
        raise ValueError("panel must be a float array (factored in place)")
    if not a.flags.writeable:
        raise ValueError("panel must be writeable (factored in place)")
    return a


def reconstruct_lu(a: np.ndarray) -> tuple:
    """Split an in-place factored (m, n) block into (L, U) with unit
    diagonal L — a test helper mirroring LAPACK's storage convention."""
    m, n = a.shape
    kmax = min(m, n)
    lower = np.tril(a[:, :kmax], -1) + np.eye(m, kmax, dtype=a.dtype)
    upper = np.triu(a[:kmax, :])
    return lower, upper
