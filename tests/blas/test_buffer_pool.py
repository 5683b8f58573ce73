"""BufferPool arena semantics: checkout/release, reuse, leak detection."""

import threading

import numpy as np
import pytest

from repro.blas.buffers import (
    BufferPool,
    BufferPoolError,
    matmul_into,
    subtract_into,
)
from repro.obs.metrics import MetricsRegistry


class TestCheckoutRelease:
    def test_checkout_geometry(self):
        pool = BufferPool()
        buf = pool.checkout((3, 5), np.float64, key="t")
        assert buf.shape == (3, 5)
        assert buf.dtype == np.float64
        assert buf.flags.c_contiguous
        pool.release(buf)

    def test_release_returns_block_for_reuse(self):
        pool = BufferPool()
        a = pool.checkout((4, 4), np.float64)
        pool.release(a)
        b = pool.checkout((4, 4), np.float64)
        assert pool.allocations == 1
        assert pool.reuses == 1
        pool.release(b)

    def test_shrinking_requests_reuse_one_block(self):
        """An LU's trailing updates shrink; one arena block serves all."""
        pool = BufferPool()
        for n in (64, 48, 32, 16):
            buf = pool.checkout((n, n), np.float64, key="lu.trailing")
            pool.release(buf)
        assert pool.allocations == 1
        assert pool.reuses == 3

    def test_best_fit_prefers_smallest_sufficient_block(self):
        pool = BufferPool()
        small = pool.checkout((8,), np.float64)
        large = pool.checkout((64,), np.float64)
        pool.release(small)
        pool.release(large)
        mid = pool.checkout((8,), np.float64)
        # The 8-elem block fits and is chosen over the 64-elem one.
        assert mid.base.nbytes == 8 * 8
        pool.release(mid)

    def test_rent_context_manager_releases(self):
        pool = BufferPool()
        with pool.rent((4,), np.float64, key="r") as buf:
            assert pool.active == 1
            buf[:] = 1.0
        assert pool.active == 0

    def test_rent_releases_on_exception(self):
        pool = BufferPool()
        with pytest.raises(ValueError):
            with pool.rent((4,), np.float64):
                raise ValueError("boom")
        assert pool.active == 0

    def test_distinct_dtypes_and_zero_size(self):
        pool = BufferPool()
        f = pool.checkout((2, 2), np.float32)
        i = pool.checkout((3,), np.int64)
        z = pool.checkout((0, 5), np.float64)
        assert f.dtype == np.float32 and i.dtype == np.int64
        assert z.size == 0
        for b in (f, i, z):
            pool.release(b)

    def test_concurrent_checkout_release(self):
        pool = BufferPool()
        errs = []

        def worker():
            try:
                for _ in range(200):
                    buf = pool.checkout((16, 16), np.float64, key="w")
                    buf[:] = 1.0
                    pool.release(buf)
            except Exception as e:  # pragma: no cover - failure path
                errs.append(e)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs
        assert pool.active == 0
        assert pool.checkouts == pool.releases == 8 * 200


class TestLeakDetection:
    def test_double_release_raises(self):
        pool = BufferPool()
        buf = pool.checkout((4,), np.float64)
        pool.release(buf)
        with pytest.raises(BufferPoolError):
            pool.release(buf)

    def test_foreign_buffer_raises(self):
        pool = BufferPool()
        with pytest.raises(BufferPoolError):
            pool.release(np.zeros(4))

    def test_active_counts_outstanding(self):
        pool = BufferPool()
        a = pool.checkout((4,), np.float64, key="leak.a")
        b = pool.checkout((4,), np.float64, key="leak.b")
        assert pool.active == 2
        assert pool.active_keys() == ["leak.a", "leak.b"]
        pool.release(a)
        pool.release(b)
        assert pool.active == 0


class TestAccounting:
    def test_counters_and_keys(self):
        pool = BufferPool()
        with pool.rent((8,), np.float64, key="k1"):
            pass
        with pool.rent((8,), np.float64, key="k1"):
            pass
        with pool.rent((2,), np.float64, key="k2"):
            pass
        assert pool.by_key == {"k1": 2, "k2": 1}
        assert pool.bytes_served == 8 * 8 * 2 + 2 * 8
        assert pool.peak_bytes == pool.arena_bytes == 8 * 8

    def test_clear_drops_free_blocks_only(self):
        pool = BufferPool()
        held = pool.checkout((8,), np.float64)
        free = pool.checkout((16,), np.float64)
        pool.release(free)
        freed = pool.clear()
        assert freed == 16 * 8
        assert pool.arena_bytes == 8 * 8
        pool.release(held)

    def test_publish_to_metrics(self):
        pool = BufferPool(name="test.pool")
        with pool.rent((4,), np.float64):
            pass
        reg = MetricsRegistry()
        pool.publish(reg)
        snap = reg.to_dict()
        assert snap["counters"]["test.pool.checkouts"] == 1
        assert snap["counters"]["test.pool.releases"] == 1
        assert snap["gauges"]["test.pool.peak_bytes"] == 4 * 8
        pool.publish(None)  # no-op


class TestHelpers:
    def test_matmul_into_strided_operands(self):
        rng = np.random.default_rng(3)
        base_x = rng.standard_normal((12, 20))
        base_y = rng.standard_normal((20, 12))
        x = base_x[1:, 1:]  # contiguous in neither order
        y = base_y[1:, 1:]
        pool = BufferPool()
        out = pool.checkout((11, 11), np.float64, key="out")
        matmul_into(pool, x, y, out)
        assert np.array_equal(out, np.matmul(x, y))
        assert pool.active == 1  # staging buffers were released
        pool.release(out)

    def test_matmul_into_contiguous_passthrough(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 7))
        y = np.asfortranarray(rng.standard_normal((7, 5)))
        pool = BufferPool()
        out = np.empty((6, 5))
        matmul_into(pool, x, y, out)
        assert np.array_equal(out, x @ y)
        assert pool.checkouts == 0  # nothing needed staging

    def test_subtract_into_strided_target(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((10, 10))
        target = base[1:, 1:]
        value = rng.standard_normal(target.shape)
        expect = target - value
        subtract_into(target, value)
        assert np.array_equal(target, expect)

    def test_subtract_into_contiguous_target(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal((5, 5))
        value = rng.standard_normal((5, 5))
        expect = target - value
        assert subtract_into(target, value) is target
        assert np.array_equal(target, expect)
