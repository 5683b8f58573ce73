"""Parallel LU on the pack-once substrate: exact pack accounting,
bitwise determinism across worker counts, and every LU driver checked
against LAPACK on both executor backends."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blas.buffers import BufferPool
from repro.blas.workspace import PackCache
from repro.hpl.matgen import hpl_system
from repro.hpl.residual import hpl_residual
from repro.hybrid.functional import hybrid_blocked_lu
from repro.lu.factorize import blocked_lu, lu_solve, lu_via_dag
from repro.parallel import ProcessTileExecutor, TileExecutor
from tests.blas.test_alloc_free import (
    DTYPES,
    SEEDS,
    _assert_matches_lapack,
    _pivot_safe,
)


def expected_pack_counts(n: int, nb: int) -> tuple:
    """(misses, hits): per stage with t >= 1 trailing panels the L21
    panel packs once (reused t-1 times) and each U block packs once."""
    n_panels = (n + nb - 1) // nb
    trailing = [n_panels - i - 1 for i in range(n_panels)]
    misses = sum(1 + t for t in trailing if t >= 1)
    hits = sum(t - 1 for t in trailing if t >= 1)
    return misses, hits


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def test_exactly_one_pack_per_panel(rng):
    a = rng.standard_normal((160, 160))
    cache = PackCache()
    blocked_lu(a, nb=32, pack_cache=cache)
    want_misses, want_hits = expected_pack_counts(160, 32)
    assert cache.misses == want_misses
    assert cache.hits == want_hits
    assert cache.stale_evictions == 0
    assert len(cache) == 0  # every dead panel was invalidated


def test_pack_counts_deterministic_under_threads(rng):
    """Workers race to the same panel; exactly one packs, the rest hit."""
    a = rng.standard_normal((160, 160))
    counts = {}
    for workers in (1, 4):
        cache = PackCache()
        with TileExecutor(workers) as ex:
            blocked_lu(a.copy(), nb=32, pack_cache=cache, workers=ex)
        counts[workers] = (cache.misses, cache.hits, len(cache))
    assert counts[1] == counts[4] == expected_pack_counts(160, 32) + (0,)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_blocked_lu_bitwise_identical_across_widths(rng, workers):
    a = rng.standard_normal((160, 160))
    lu_ref, ipiv_ref = blocked_lu(a.copy(), nb=32)
    with TileExecutor(workers) as ex:
        lu_w, ipiv_w = blocked_lu(a.copy(), nb=32, workers=ex)
    assert np.array_equal(lu_ref, lu_w)
    assert np.array_equal(ipiv_ref, ipiv_w)


def _random_order(seed: int):
    """A ``pick`` policy replaying a seeded random topological order."""
    rng = random.Random(seed)
    return lambda runnable: rng.choice(runnable)


@pytest.mark.parametrize("workers", [2, 8])
def test_lu_via_dag_random_order_bitwise_identical(rng, workers):
    """A random task order with `workers`-wide GEMM stripes reproduces
    the serial stage loop bit for bit."""
    a = rng.standard_normal((128, 128))
    lu_ref, ipiv_ref = blocked_lu(a.copy(), nb=32)
    with TileExecutor(workers) as ex:
        lu_w, ipiv_w = lu_via_dag(
            a.copy(), nb=32, pick=_random_order(workers), executor=ex
        )
    assert np.array_equal(lu_ref, lu_w)
    assert np.array_equal(ipiv_ref, ipiv_w)


def _dag_random_order(a, nb, workers, **kwargs):
    """lu_via_dag in a seeded random order, its stripes on ``workers``."""
    return lu_via_dag(a, nb, pick=_random_order(nb), executor=workers, **kwargs)


FACTORIZATIONS = {
    "blocked_lu": blocked_lu,
    "lu_via_dag": _dag_random_order,
    "hybrid_blocked_lu": hybrid_blocked_lu,
}


@pytest.fixture(scope="module")
def executors():
    with TileExecutor(2) as tex, ProcessTileExecutor(workers=2) as pex:
        yield {"thread": tex, "process": pex}


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("factor", sorted(FACTORIZATIONS))
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 40),
    nb=st.integers(1, 48),
    seed=SEEDS,
    dtype=DTYPES,
)
@example(n=7, nb=1, seed=0, dtype=np.float32)  # nb = 1
@example(n=20, nb=48, seed=1, dtype=np.float64)  # nb > n
@example(n=40, nb=16, seed=2, dtype=np.float32)  # n % nb != 0
def test_factorizations_match_lapack(executors, factor, backend, n, nb, seed, dtype):
    """Every LU driver, on either executor backend, picks LAPACK's pivots
    with a P·L·U backward-error bound and leaves no cache entry or pool
    lease behind; a caller's cache on the LU workspace counts exactly
    one pack per panel."""
    a0 = _pivot_safe(n, n, seed, dtype)
    ex = executors[backend]
    pool = BufferPool()
    cache = PackCache()
    kwargs = {"workers": ex, "pool": pool}
    # Under the process backend the LU workspace packs into the
    # executor's shared arena; only the thread backend and the hybrid
    # driver (whose cache stays in the parent) take the caller's.
    if backend == "thread" or factor == "hybrid_blocked_lu":
        kwargs["pack_cache"] = cache
    lu, ipiv = FACTORIZATIONS[factor](a0.copy(), nb=nb, **kwargs)
    _assert_matches_lapack(a0, lu, ipiv)
    if backend == "thread" and factor != "hybrid_blocked_lu":
        assert (cache.misses, cache.hits) == expected_pack_counts(n, nb)
    assert len(cache) == 0
    assert pool.active == 0
    if backend == "process":
        assert ex.arena.active == 0


def test_seeded_hpl_n1024_parallel_equals_serial():
    """The acceptance case: a seeded N=1024 system factors to bitwise-
    identical LU factors — and therefore an identical solution and HPL
    residual — serial vs 8-wide."""
    a0, b = hpl_system(1024, seed=42)
    lu_s, ipiv_s = blocked_lu(a0.copy(), nb=128)
    with TileExecutor(8) as ex:
        lu_p, ipiv_p = blocked_lu(a0.copy(), nb=128, workers=ex)
    assert np.array_equal(lu_s, lu_p)
    assert np.array_equal(ipiv_s, ipiv_p)
    x_s = lu_solve(lu_s, ipiv_s, b)
    x_p = lu_solve(lu_p, ipiv_p, b)
    assert np.array_equal(x_s, x_p)
    r_s = hpl_residual(a0, x_s, b)
    r_p = hpl_residual(a0, x_p, b)
    assert r_s == r_p
    assert r_s < 16.0  # and the run actually passes HPL's check
