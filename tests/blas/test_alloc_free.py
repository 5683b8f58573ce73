"""Differential checks of the pooled kernels against LAPACK and NumPy.

Every kernel rents its scratch from a
:class:`~repro.blas.buffers.BufferPool`; these tests hold each one to an
independent oracle on awkward geometries (``n % nb != 0``, ``nb > n``,
``nb = 1``, one-column panels) in both precisions, and check that no
lease outlives the call:

* getf2 / getrf / blocked LU: pivots identical to
  :func:`scipy.linalg.lu_factor`, plus a componentwise P·L·U backward
  error bound;
* laswp / apply_pivots_to_vector: bitwise equal to applying the swaps
  one at a time with fancy indexing;
* trsm (all three variants): the solution reconstructs the right-hand
  side;
* gemm: ``c - a @ b`` within a tight tolerance.

The LU inputs are ``A = P0 @ L0 @ U0`` with ``|L0| <= 1/2`` below the
diagonal, so every partial-pivoting step has a 2x margin between its
pivot and the runner-up: rounding can never flip a pivot choice, and
pivot identity with LAPACK holds for every draw, in single precision
too.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.buffers import BufferPool
from repro.blas.gemm import gemm
from repro.blas.getrf import getf2, getrf, reconstruct_lu
from repro.blas.laswp import apply_pivots_to_vector, laswp
from repro.blas.trsm import (
    trsm_lower_unit_left,
    trsm_lower_unit_right,
    trsm_upper_left,
)
from repro.lu.factorize import blocked_lu, lu_solve, lu_via_dag

DTYPES = st.sampled_from([np.float64, np.float32])
SEEDS = st.integers(0, 2**31 - 1)


def _pivot_safe(m, n, seed, dtype):
    """An (m, n) matrix whose partial pivoting is decided by a 2x margin."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    lower = np.tril(rng.uniform(-0.5, 0.5, (m, k)), -1) + np.eye(m, k)
    upper = np.triu(rng.uniform(-1.0, 1.0, (k, n)))
    diag = rng.uniform(1.0, 2.0, k) * rng.choice([-1.0, 1.0], k)
    upper[np.arange(k), np.arange(k)] = diag
    return (lower @ upper)[rng.permutation(m)].astype(dtype)


def _swapped(a, ipiv, forward=True):
    """Apply LAPACK swaps one at a time with fancy indexing."""
    out = a.copy()
    steps = range(len(ipiv)) if forward else reversed(range(len(ipiv)))
    for j in steps:
        p = int(ipiv[j])
        out[[j, p]] = out[[p, j]]
    return out


def _backward_ok(t, x, b, k):
    """``|t @ x - b| <= 8 k eps |t| @ |x|``, evaluated in float64."""
    eps = np.finfo(x.dtype).eps
    t64, x64 = t.astype(np.float64), x.astype(np.float64)
    bound = 8 * max(1, k) * eps * (np.abs(t64) @ np.abs(x64))
    return bool(np.all(np.abs(t64 @ x64 - b) <= bound))


def _assert_matches_lapack(a0, factored, ipiv):
    """Pivots identical to LAPACK's; P·L·U within the backward error bound."""
    _lu, piv_ref = sla.lu_factor(a0, check_finite=False)
    assert np.array_equal(ipiv, piv_ref)
    lower, upper = reconstruct_lu(factored)
    assert _backward_ok(lower, upper, _swapped(a0, ipiv), min(a0.shape))


@st.composite
def panels(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 24))
    return _pivot_safe(m, n, draw(SEEDS), draw(DTYPES))


@settings(max_examples=60, deadline=None)
@given(panels())
def test_getf2_pooled_identity(a0):
    pool = BufferPool()
    got = a0.copy()
    ipiv = getf2(got, pool=pool)
    _assert_matches_lapack(a0, got, ipiv)
    assert pool.active == 0


@settings(max_examples=60, deadline=None)
@given(panels(), st.sampled_from([1, 2, 4, 16]))
def test_getrf_pooled_identity(a0, min_block):
    pool = BufferPool()
    got = a0.copy()
    ipiv = getrf(got, min_block=min_block, pool=pool)
    _assert_matches_lapack(a0, got, ipiv)
    assert pool.active == 0


@st.composite
def swap_cases(draw):
    n = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 12))
    m = draw(st.integers(0, n))
    ipiv = np.asarray(
        [draw(st.integers(j, n - 1)) for j in range(m)], dtype=np.int64
    )
    rng = np.random.default_rng(draw(SEEDS))
    a = rng.standard_normal((n, cols)).astype(draw(DTYPES))
    return a, ipiv, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(swap_cases())
def test_laswp_pooled_identity(case):
    a, ipiv, forward = case
    pool = BufferPool()
    want = _swapped(a, ipiv, forward)
    got = a.copy()
    laswp(got, ipiv, forward=forward, pool=pool)
    assert np.array_equal(got, want)
    # strided (column-slice) target, as the blocked LU hands it over
    wide = np.hstack([a, a])
    laswp(wide[:, : a.shape[1]], ipiv, forward=forward, pool=pool)
    assert np.array_equal(wide[:, : a.shape[1]], want)
    assert np.array_equal(wide[:, a.shape[1] :], a)
    x = a[:, 0].copy()
    apply_pivots_to_vector(x, ipiv, forward=forward, pool=pool)
    assert np.array_equal(x, want[:, 0])
    assert pool.active == 0


@st.composite
def trsm_cases(draw):
    n = draw(st.integers(1, 40))
    ncols = draw(st.integers(1, 12))
    dtype = draw(DTYPES)
    rng = np.random.default_rng(draw(SEEDS))
    # Small off-diagonals keep the triangular factors well conditioned,
    # so the reconstruction check measures the solver, not the matrix.
    scale = 1.0 / np.sqrt(n)
    lower = np.tril(rng.standard_normal((n, n)), -1) * scale + np.eye(n)
    upper = np.triu(rng.standard_normal((n, n)), 1) * scale + np.diag(
        rng.uniform(2.0, 4.0, n)
    )
    b = rng.standard_normal((n, ncols))
    block = draw(st.sampled_from([1, 4, 8, 64]))
    return lower.astype(dtype), upper.astype(dtype), b.astype(dtype), block


@settings(max_examples=60, deadline=None)
@given(trsm_cases())
def test_trsm_reconstructs_rhs(case):
    lower, upper, b, block = case
    n = lower.shape[0]
    pool = BufferPool()
    x = trsm_lower_unit_left(lower, b.copy(), block=block, pool=pool)
    assert _backward_ok(lower, x, b, n)
    x = trsm_upper_left(upper, b.copy(), block=block, pool=pool)
    assert _backward_ok(upper, x, b, n)
    x = trsm_lower_unit_right(lower, b.T.copy(), block=block, pool=pool)
    assert _backward_ok(lower, x.T, b, n)  # x @ L^T = b^T
    assert pool.active == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([1, 7, 300]),
    DTYPES,
    SEEDS,
)
def test_gemm_matches_numpy(m, n, k, k_block, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    pool = BufferPool()
    got = gemm(a, b, c.copy(), alpha=-1.0, beta=1.0, k_block=k_block, pool=pool)
    want = c.astype(np.float64) - a.astype(np.float64) @ b.astype(np.float64)
    scale = np.abs(c) + np.abs(a).astype(np.float64) @ np.abs(b)
    assert np.all(np.abs(got - want) <= 2 * (k + 1) * np.finfo(dtype).eps * scale)
    assert pool.active == 0


@st.composite
def lu_cases(draw):
    n = draw(st.integers(1, 40))
    nb = draw(st.integers(1, 48))  # nb > n, nb = 1 and n % nb != 0
    return _pivot_safe(n, n, draw(SEEDS), draw(DTYPES)), nb


@pytest.mark.parametrize("workers", [None, 2, 8])
@settings(max_examples=20, deadline=None)
@given(case=lu_cases())
def test_full_lu_and_solve_pooled_identity(workers, case):
    """The blocked LU at 1, 2 and 8 workers picks LAPACK's pivots, and
    its solve reconstructs the right-hand side."""
    a0, nb = case
    rng = np.random.default_rng(nb)
    b = rng.standard_normal(a0.shape[0]).astype(a0.dtype)
    pool = BufferPool()
    lu, ipiv = blocked_lu(a0.copy(), nb=nb, workers=workers, pool=pool)
    _assert_matches_lapack(a0, lu, ipiv)
    x = lu_solve(lu, ipiv, b, pool=pool).astype(np.float64)
    # Solve backward error: |P A x - P b| <= 8 n eps |L| |U| |x|.
    lower, upper = (np.abs(f.astype(np.float64)) for f in reconstruct_lu(lu))
    bound = 8 * len(b) * np.finfo(a0.dtype).eps * (lower @ (upper @ np.abs(x)))
    resid = _swapped(a0, ipiv).astype(np.float64) @ x - _swapped(b, ipiv)
    assert np.all(np.abs(resid) <= bound)
    assert pool.active == 0


@settings(max_examples=30, deadline=None)
@given(lu_cases())
def test_lu_via_dag_pooled_identity(case):
    a0, nb = case
    pool = BufferPool()
    lu, ipiv = lu_via_dag(a0.copy(), nb=nb, pool=pool)
    _assert_matches_lapack(a0, lu, ipiv)
    assert pool.active == 0


def test_getf2_pivot_search_uses_scratch_not_fresh_abs():
    """Micro-test for the pivot-search scratch: the |column| reduction
    lands in a reusable vector and still finds LAPACK's pivot."""
    a = np.array(
        [
            [1.0, 2.0],
            [-9.0, 1.0],
            [3.0, 4.0],
        ]
    )
    pool = BufferPool()
    got = a.copy()
    ipiv = getf2(got, pool=pool)
    assert ipiv[0] == 1  # |-9| wins the first column
    ref = a.copy()
    assert np.array_equal(getf2(ref), ipiv)
    assert np.array_equal(ref, got)
    # the abs scratch was rented exactly once per call
    assert pool.by_key.get("getf2.abs") == 1
    assert pool.active == 0
