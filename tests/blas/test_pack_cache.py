"""PackCache: pack-once semantics, invalidation, staleness detection."""

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.blas.packing import pack_a, pack_b
from repro.blas.workspace import PackCache
from repro.obs import MetricsRegistry


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_pack_once_per_key(rng):
    cache = PackCache()
    a = rng.standard_normal((32, 16))
    p1 = cache.pack_a(a, key="panel")
    p2 = cache.pack_a(a, key="panel")
    assert p1 is p2
    assert (cache.misses, cache.hits) == (1, 1)
    assert len(cache) == 1


def test_cached_pack_matches_direct_pack(rng):
    cache = PackCache()
    a = rng.standard_normal((40, 24))
    b = rng.standard_normal((24, 40))
    assert np.array_equal(cache.pack_a(a, key="a").data, pack_a(a).data)
    assert np.array_equal(cache.pack_b(b, key="b").data, pack_b(b).data)


def test_no_key_means_no_caching(rng):
    cache = PackCache()
    a = rng.standard_normal((16, 8))
    cache.pack_a(a)
    cache.pack_a(a)
    assert len(cache) == 0
    assert cache.uncached_packs == 2
    assert (cache.hits, cache.misses) == (0, 0)


def test_sides_do_not_collide(rng):
    """The same key names different things on the A and B sides."""
    cache = PackCache()
    m = rng.standard_normal((30, 30))
    cache.pack_a(m, key="x")
    cache.pack_b(m, key="x")
    assert cache.misses == 2
    assert len(cache) == 2


def test_geometry_pins_the_key(rng):
    """A reused name with a different slice shape can never false-hit."""
    cache = PackCache()
    cache.pack_a(rng.standard_normal((16, 8)), key="panel")
    cache.pack_a(rng.standard_normal((24, 8)), key="panel")
    assert cache.misses == 2
    assert cache.hits == 0


def test_invalidate_exact_key(rng):
    cache = PackCache()
    cache.pack_a(rng.standard_normal((16, 8)), key=("lu.l21", 0))
    cache.pack_a(rng.standard_normal((16, 8)), key=("lu.l21", 1))
    assert cache.invalidate(("lu.l21", 0)) == 1
    assert len(cache) == 1
    assert cache.invalidate(("lu.l21", 0)) == 0


def test_invalidate_composed_k_slice_keys(rng):
    """The GEMM driver caches each k-slice under (user_key, k0);
    invalidating the user key must drop every slice."""
    cache = PackCache()
    a = rng.standard_normal((64, 700))  # 3 k-slices at k_block=300
    b = rng.standard_normal((700, 64))
    c = gemm(a, b, k_block=300, pack_cache=cache, a_key="mm.a", b_key="mm.b")
    assert np.allclose(c, a @ b, rtol=1e-10, atol=1e-8)
    assert cache.misses == 6  # 3 slices on each side
    assert cache.invalidate("mm.a") == 3
    assert cache.invalidate("mm.b") == 3
    assert len(cache) == 0


def test_invalidate_all(rng):
    cache = PackCache()
    cache.pack_a(rng.standard_normal((16, 8)), key="a")
    cache.pack_b(rng.standard_normal((8, 16)), key="b")
    assert cache.invalidate() == 2
    assert len(cache) == 0


def test_gemm_reuses_cached_slices(rng):
    """Two GEMMs naming the same operands pack exactly once."""
    cache = PackCache()
    a = rng.standard_normal((48, 320))
    b1 = rng.standard_normal((320, 48))
    b2 = rng.standard_normal((320, 48))
    gemm(a, b1, k_block=300, pack_cache=cache, a_key="a")
    misses_after_first = cache.misses
    c = gemm(a, b2, k_block=300, pack_cache=cache, a_key="a")
    assert np.allclose(c, a @ b2, rtol=1e-10, atol=1e-8)
    assert cache.misses == misses_after_first  # A side fully reused
    assert cache.hits == misses_after_first


# Points of the 16x8 sample grid (rows 0/5/10/15 x columns 0/2/4/7).
@pytest.mark.parametrize("mutated_index", [(0, 0), (15, 7), (10, 4)])
def test_sample_validation_detects_mutation(rng, mutated_index):
    cache = PackCache()
    a = rng.standard_normal((16, 8))
    cache.pack_a(a, key="panel")
    a[mutated_index] += 1.0
    fresh = cache.pack_a(a, key="panel")
    assert cache.stale_evictions == 1
    assert np.array_equal(fresh.data, pack_a(a).data)


def test_sample_mode_catches_corner_mutation(rng):
    """The default sample probe always includes element (0, 0)."""
    cache = PackCache()
    a = rng.standard_normal((50, 30))
    cache.pack_a(a, key="panel")
    a[0, 0] = 1e9
    cache.pack_a(a, key="panel")
    assert cache.stale_evictions == 1
    assert cache.hits == 0


def test_publish_counters(rng):
    cache = PackCache()
    a = rng.standard_normal((16, 8))
    cache.pack_a(a, key="k")
    cache.pack_a(a, key="k")
    cache.pack_a(a)
    metrics = MetricsRegistry()
    cache.publish(metrics)
    flat = dict(metrics.flatten())
    assert flat["blas.pack_cache.hits"] == 1
    assert flat["blas.pack_cache.misses"] == 1
    assert flat["blas.pack_cache.uncached_packs"] == 1
    assert flat["blas.pack_cache.entries"] == 1
    assert flat["blas.pack_cache.bytes_packed"] > 0
    cache.publish(None)  # tolerated no-op
