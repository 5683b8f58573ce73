"""Property tests: the vectorized pivot-permutation path against its
step-by-step reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.laswp import (
    _pivots_to_permutation_loop,
    apply_pivots_to_vector,
    laswp,
    pivots_to_permutation,
)


def _reference_swaps(x: np.ndarray, ipiv: np.ndarray, offset: int) -> np.ndarray:
    """Definitionally apply the swaps one at a time (forward order)."""
    out = x.copy()
    for j, p in enumerate(ipiv):
        if p != j:
            r0, r1 = offset + j, offset + int(p)
            out[[r0, r1]] = out[[r1, r0]]
    return out


@st.composite
def partial_pivot_cases(draw):
    """LAPACK partial-pivoting convention: ipiv[j] >= j."""
    n = draw(st.integers(1, 24))
    offset = draw(st.integers(0, n - 1))
    space = n - offset
    m = draw(st.integers(0, space))
    ipiv = [draw(st.integers(j, space - 1)) for j in range(m)]
    return n, offset, np.asarray(ipiv, dtype=np.int64)


@st.composite
def arbitrary_pivot_cases(draw):
    """Arbitrary swap sequences (may revisit rows below the diagonal)."""
    n = draw(st.integers(1, 24))
    offset = draw(st.integers(0, n - 1))
    space = n - offset
    m = draw(st.integers(0, space))
    ipiv = draw(
        st.lists(st.integers(0, space - 1), min_size=m, max_size=m)
    )
    return n, offset, np.asarray(ipiv, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(partial_pivot_cases())
def test_vectorized_permutation_matches_loop(case):
    n, offset, ipiv = case
    assert np.array_equal(
        pivots_to_permutation(ipiv, n, offset),
        _pivots_to_permutation_loop(ipiv, n, offset),
    )


@settings(max_examples=200, deadline=None)
@given(arbitrary_pivot_cases())
def test_arbitrary_sequences_match_loop(case):
    """Non-partial-pivoting sequences take the fallback — and still
    agree with the reference by construction."""
    n, offset, ipiv = case
    assert np.array_equal(
        pivots_to_permutation(ipiv, n, offset),
        _pivots_to_permutation_loop(ipiv, n, offset),
    )


@settings(max_examples=100, deadline=None)
@given(partial_pivot_cases())
def test_permutation_is_the_swap_sequence(case):
    """a[perm] must equal applying the swaps one at a time."""
    n, offset, ipiv = case
    x = np.arange(n, dtype=np.float64).reshape(n, 1) * 3.0 + 1.0
    perm = pivots_to_permutation(ipiv, n, offset)
    assert np.array_equal(x[perm], _reference_swaps(x, ipiv, offset))


@settings(max_examples=100, deadline=None)
@given(partial_pivot_cases(), st.integers(1, 4))
def test_laswp_roundtrip(case, width):
    n, offset, ipiv = case
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, width))
    b = a.copy()
    laswp(b, ipiv, offset=offset, forward=True)
    assert np.array_equal(b, _reference_swaps(a, ipiv, offset))
    laswp(b, ipiv, offset=offset, forward=False)
    assert np.array_equal(b, a)


@settings(max_examples=100, deadline=None)
@given(partial_pivot_cases())
def test_vector_and_matrix_paths_agree(case):
    n, offset, ipiv = case
    rng = np.random.default_rng(6)
    x = rng.standard_normal(n)
    as_matrix = laswp(x.copy().reshape(n, 1), ipiv, offset=offset)
    as_vector = apply_pivots_to_vector(x.copy(), ipiv, offset=offset)
    assert np.array_equal(as_matrix[:, 0], as_vector)


def test_out_of_range_swap_raises():
    a = np.zeros((4, 2))
    with pytest.raises(IndexError):
        laswp(a, np.array([5]), offset=0)
    with pytest.raises(IndexError):
        laswp(a, np.array([2]), offset=2)  # offset pushes partner to row 4
    # A trivial self-swap never reads the out-of-range row.
    laswp(a, np.array([0]), offset=3)
