"""DLASWP: apply a pivot vector's row interchanges to a matrix block.

After panel factorization the pivot swaps must be applied to the rows of
the trailing sub-matrix (and, in the blocked LU, to the already-factored
columns on the left) — the light-blue DLASWP regions of Figure 7. The
paper's hybrid scheme pipelines this bandwidth-bound operation with the
trailing update (Section V-A).

The pivot convention matches :mod:`repro.blas.getrf`: ``ipiv[j] = r``
means rows j and r (offset by ``offset`` into the target) were swapped at
step j; forward order applies a factorization's swaps, backward order
undoes them.

Implementation note: the swap sequence is first collapsed into a single
permutation vector (:func:`pivots_to_permutation`, vectorized via
pointer doubling for the partial-pivoting case ``ipiv[j] >= j``), and
the swaps are then applied as **one gather per block** — ``a[changed] =
a[perm[changed]]`` — instead of one two-row exchange per pivot. Both
formulations move the same rows to the same places, so the result is
bitwise identical to the step-by-step loop.

The gather goes through a staging buffer rented from a
:class:`~repro.blas.buffers.BufferPool` (``np.take(..., out=)``
followed by the scatter) instead of materialising a fresh
``a[perm[changed]]`` array per call; a caller that passes no ``pool``
gets a call-local one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blas.buffers import BufferPool


def _check_swap_bounds(ipiv: np.ndarray, n_rows: int, offset: int) -> None:
    """Raise IndexError if any nontrivial swap leaves the block."""
    j = np.arange(len(ipiv), dtype=np.int64)
    nontrivial = ipiv != j
    if not nontrivial.any():
        return
    touched = np.concatenate(
        [offset + j[nontrivial], offset + ipiv[nontrivial]]
    )
    bad = (touched < 0) | (touched >= n_rows)
    if bad.any():
        r = int(touched[bad][0])
        raise IndexError(
            f"pivot swap touching row {r} outside block of {n_rows} rows"
        )


def _gather_rows(a: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> None:
    """Gather ``a[idx]`` into ``buf`` without a hidden temporary.

    ``np.take``'s fast path writes straight into ``out`` only for a
    C-contiguous source (and only with mode="clip"/"wrap" — "raise"
    stages through a scratch array); for the strided column-slice views
    the blocked LU hands us, it first materialises a contiguous copy of
    the *whole* source, which would defeat the pool. Row-wise copyto
    moves exactly the same values in that case.
    """
    if a.flags.c_contiguous:
        np.take(a, idx, axis=0, out=buf, mode="clip")
    else:
        for k, r in enumerate(idx):
            np.copyto(buf[k], a[r])


def _forward_permutation(
    ipiv: np.ndarray, n: int, offset: int, forward: bool
) -> np.ndarray:
    """Permutation ``perm`` with ``a[perm]`` == the swapped block."""
    perm = pivots_to_permutation(ipiv, n, offset)
    if forward:
        return perm
    # Undoing the swaps is gathering with the inverse permutation.
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n, dtype=perm.dtype)
    return inv


def laswp(
    a: np.ndarray,
    ipiv: np.ndarray,
    offset: int = 0,
    forward: bool = True,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """Apply row interchanges in place and return ``a``.

    Parameters
    ----------
    a:
        The matrix block whose rows are swapped.
    ipiv:
        Pivot vector; entry j names the partner row of row ``offset + j``
        (also offset, i.e. indices are local to the factored block).
    offset:
        Row of ``a`` corresponding to pivot entry 0.
    forward:
        Apply swaps in factorization order (True) or reverse (False).
    pool:
        The :class:`~repro.blas.buffers.BufferPool` the gather staging
        buffer is rented from (a call-local one when omitted).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("laswp expects a 2-D block")
    if pool is None:
        pool = BufferPool()
    ipiv = np.asarray(ipiv, dtype=np.int64)
    if len(ipiv) == 0:
        return a
    _check_swap_bounds(ipiv, a.shape[0], offset)
    perm = _forward_permutation(ipiv, a.shape[0], offset, forward)
    changed = np.flatnonzero(perm != np.arange(a.shape[0]))
    if changed.size:
        # The gather is materialised before the scatter, so the in-place
        # row cycle is safe.
        with pool.rent(
            (changed.size, a.shape[1]), a.dtype, key="laswp.gather"
        ) as buf:
            _gather_rows(a, perm[changed], buf)
            a[changed] = buf
    return a


def apply_pivots_to_vector(
    x: np.ndarray,
    ipiv: np.ndarray,
    offset: int = 0,
    forward: bool = True,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """The right-hand-side counterpart of :func:`laswp` (in place)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("expected a vector")
    if pool is None:
        pool = BufferPool()
    ipiv = np.asarray(ipiv, dtype=np.int64)
    if len(ipiv) == 0:
        return x
    _check_swap_bounds(ipiv, x.shape[0], offset)
    perm = _forward_permutation(ipiv, x.shape[0], offset, forward)
    changed = np.flatnonzero(perm != np.arange(x.shape[0]))
    if changed.size:
        with pool.rent((changed.size,), x.dtype, key="laswp.gather") as buf:
            if x.flags.c_contiguous:
                np.take(x, perm[changed], out=buf, mode="clip")
            else:
                buf[...] = x[perm[changed]]
            x[changed] = buf
    return x


def _pivots_to_permutation_loop(
    ipiv: np.ndarray, n: int, offset: int = 0
) -> np.ndarray:
    """Reference step-by-step construction — the definition the
    vectorized path is property-tested against, and the fallback for
    arbitrary (non-partial-pivoting) swap sequences."""
    perm = np.arange(n, dtype=np.int64)
    for j in range(len(ipiv)):
        p = int(ipiv[j])
        if p != j:
            r0, r1 = offset + j, offset + p
            perm[r0], perm[r1] = perm[r1], perm[r0]
    return perm


def pivots_to_permutation(ipiv: np.ndarray, n: int, offset: int = 0) -> np.ndarray:
    """The permutation vector perm with P @ A == A[perm] equivalent to
    applying the swaps forward.

    Vectorized for the partial-pivoting convention ``ipiv[j] >= j``
    (which :mod:`repro.blas.getrf` guarantees): because step j is the
    last step ever to touch row ``offset + j``, every row's final
    occupant is found by chasing "which earlier step last deposited a
    value here" links — a forest resolved with pointer doubling in
    O(log #pivots) passes instead of a Python loop. Arbitrary swap
    sequences fall back to the step-by-step loop.
    """
    ipiv = np.asarray(ipiv, dtype=np.int64)
    m = len(ipiv)
    perm = np.arange(n, dtype=np.int64)
    if m == 0:
        return perm
    steps = np.arange(m, dtype=np.int64)
    if np.any(ipiv < steps):
        # Not a partial-pivoting sequence; rows below the diagonal may be
        # revisited, so the finalized-at-own-step argument breaks.
        return _pivots_to_permutation_loop(ipiv, n, offset)
    nt = np.flatnonzero(ipiv != steps)  # nontrivial steps, in order
    if nt.size == 0:
        return perm
    src = offset + nt  # row finalized at this step
    tgt = offset + ipiv[nt]  # partner row (>= src, may repeat)

    # last_t[q]: index (into nt) of the last nontrivial step whose
    # partner row is q, or -1. Any step targeting row src[i] precedes
    # step i, so these links always point strictly backwards.
    last_t = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last_t, tgt, np.arange(nt.size, dtype=np.int64))

    # f[i] = the original row sitting at src[i] just before step i:
    # follow "deposited by" links to the chain root via pointer doubling.
    link = last_t[src]
    root = np.where(link < 0, np.arange(nt.size, dtype=np.int64), link)
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    f = src[root]

    # Rows touched only as partner targets keep whatever the last
    # targeting step deposited.
    targeted = np.flatnonzero(last_t >= 0)
    perm[targeted] = f[last_t[targeted]]

    # Source rows are finalized at their own step: they receive the value
    # sitting at their partner row just beforehand — deposited by the
    # previous step with the same partner, or the partner row itself.
    order = np.argsort(tgt, kind="stable")
    prev = np.full(nt.size, -1, dtype=np.int64)
    same = tgt[order][1:] == tgt[order][:-1]
    prev[order[1:][same]] = order[:-1][same]
    perm[src] = np.where(prev >= 0, f[np.maximum(prev, 0)], tgt)
    return perm
