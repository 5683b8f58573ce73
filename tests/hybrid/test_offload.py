"""Offload DGEMM: Figure 11 shapes, Kt bound, and functional execution."""

import numpy as np
import pytest

from repro.blas.buffers import BufferPool, matmul_into
from repro.hybrid.offload import OffloadDGEMM, _host_tile
from repro.hybrid.tile_select import (
    HYBRID_KT,
    best_tile_size,
    min_kt,
    offload_efficiency_model,
)
from repro.obs import measure_temp_bytes


class TestTileSelection:
    def test_kt_bound_is_950(self):
        # Section V-B: "the panel width Kt should at least be 950".
        assert min_kt(950.0) == pytest.approx(950, abs=1)

    def test_paper_kt_exceeds_bound(self):
        assert HYBRID_KT > min_kt(950.0)

    def test_best_tile_cached_and_valid(self):
        mt, nt, eff = best_tile_size(82000, 82000)
        assert 0 < mt <= 82000 and 0 < nt <= 82000
        assert 0 < eff < 1

    def test_model_efficiency_decreases_for_tiny_matrices(self):
        big = best_tile_size(82000, 82000)[2]
        small = best_tile_size(6000, 6000)[2]
        assert small < big

    def test_two_cards_lower_model_efficiency(self):
        one = best_tile_size(30000, 30000, HYBRID_KT, 1)[2]
        two = best_tile_size(30000, 30000, HYBRID_KT, 2)[2]
        assert two < one

    def test_model_validation(self):
        with pytest.raises(ValueError):
            offload_efficiency_model(100, 100, 10, 10, cards=0)
        with pytest.raises(ValueError):
            best_tile_size(0, 10)


class TestFigure11Timing:
    def test_single_card_peak_efficiency(self):
        # Figure 11a: ~917 GFLOPS / 85.4% at 82K.
        r = OffloadDGEMM(82000, 82000).run()
        assert r.efficiency == pytest.approx(0.854, abs=0.02)
        assert r.gflops == pytest.approx(917, abs=25)

    def test_dual_card_peak_efficiency(self):
        # Figure 11b: ~1785 GFLOPS / 83% at 82K.
        r = OffloadDGEMM(82000, 82000, cards=2).run()
        assert r.efficiency == pytest.approx(0.83, abs=0.03)
        assert r.gflops == pytest.approx(1785, abs=90)

    def test_dual_card_efficiency_below_single(self):
        one = OffloadDGEMM(40000, 40000).run()
        two = OffloadDGEMM(40000, 40000, cards=2).run()
        assert two.efficiency < one.efficiency

    def test_efficiency_degrades_slowly_with_size_single(self):
        effs = [OffloadDGEMM(m, m).run().efficiency for m in (20000, 40000, 82000)]
        assert effs == sorted(effs)
        assert effs[0] > 0.75  # "degrades slowly" (Figure 11a)

    def test_dual_card_degrades_faster(self):
        # Figure 11b: relative drop from 82K to 15K is worse for 2 cards.
        drop1 = (
            OffloadDGEMM(82000, 82000).run().efficiency
            - OffloadDGEMM(15000, 15000).run().efficiency
        )
        drop2 = (
            OffloadDGEMM(82000, 82000, cards=2).run().efficiency
            - OffloadDGEMM(15000, 15000, cards=2).run().efficiency
        )
        assert drop2 > drop1

    def test_small_kt_exposes_transfers(self):
        # Below the Kt bound the link cannot hide the output traffic.
        good = OffloadDGEMM(40000, 40000, kt=1200, tile=(7200, 7200)).run()
        bad = OffloadDGEMM(40000, 40000, kt=300, tile=(7200, 7200)).run()
        assert bad.efficiency < good.efficiency

    def test_all_tiles_processed(self):
        r = OffloadDGEMM(30000, 30000).run()
        assert r.tiles_host == 0  # no host assist by default
        assert r.card_flops == pytest.approx(2.0 * 30000 * 30000 * HYBRID_KT)

    def test_host_assist_splits_work(self):
        r = OffloadDGEMM(30000, 30000, host_assist=True).run()
        assert r.tiles_host > 0
        assert r.card_flops + r.host_flops == pytest.approx(
            2.0 * 30000 * 30000 * HYBRID_KT
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OffloadDGEMM(0, 10)
        with pytest.raises(ValueError):
            OffloadDGEMM(10, 10, cards=0)
        with pytest.raises(ValueError):
            OffloadDGEMM(10, 3, cards=4)  # more cards than columns


class TestFunctionalExecution:
    def _operands(self, m, n, kt, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((m, kt)),
            rng.standard_normal((kt, n)),
            rng.standard_normal((m, n)),
        )

    def test_single_card_computes_correct_update(self):
        a, b, c0 = self._operands(90, 70, 12)
        c = c0.copy()
        OffloadDGEMM(90, 70, kt=12, tile=(40, 30)).run(a, b, c)
        np.testing.assert_allclose(c, c0 + a @ b, rtol=1e-11, atol=1e-11)

    def test_dual_card_computes_correct_update(self):
        a, b, c0 = self._operands(80, 100, 8, seed=1)
        c = c0.copy()
        r = OffloadDGEMM(80, 100, kt=8, cards=2, tile=(40, 30)).run(a, b, c)
        np.testing.assert_allclose(c, c0 + a @ b, rtol=1e-11, atol=1e-11)
        # Each 50-column half merges its 30+20 column strips into one
        # 50-wide strip: 2 row tiles x 1 column strip x 2 cards.
        assert r.tiles_card == 4

    def test_host_assist_still_correct(self):
        a, b, c0 = self._operands(100, 100, 10, seed=2)
        c = c0.copy()
        r = OffloadDGEMM(100, 100, kt=10, tile=(30, 30), host_assist=True).run(a, b, c)
        np.testing.assert_allclose(c, c0 + a @ b, rtol=1e-11, atol=1e-11)
        # 100/30 merges to 3 strips per side (30, 30, 40): 9 tiles.
        assert r.tiles_card + r.tiles_host == 9

    def test_host_tile_fold_bitwise_and_allocation_free(self):
        """A host-stolen tile folds into a strided tile of a wide c with
        one addition per element, and allocates no buffer once the pool
        is warm."""
        a, b, _ = self._operands(240, 61, 40, seed=4)
        wide = np.random.default_rng(5).standard_normal((240, 2048))
        tile = wide[:, 100:161]
        c0 = tile.copy()
        prod = np.empty((240, 61))
        matmul_into(BufferPool(), a, b, prod)
        pool = BufferPool()
        _host_tile(pool, a, b, tile)  # warms the pool
        np.testing.assert_array_equal(tile, c0 + prod)
        _, temp = measure_temp_bytes(_host_tile, pool, a, b, tile)
        # Lease bookkeeping only; a fold into the strided view allocates
        # ~130 kB of NumPy iterator buffers.
        assert temp < 8_192
        assert pool.active == 0

    def test_c_defaults_to_zero(self):
        a, b, _ = self._operands(30, 30, 5, seed=3)
        r = OffloadDGEMM(30, 30, kt=5, tile=(30, 30))
        c = np.zeros((30, 30))
        r.run(a, b, c)
        np.testing.assert_allclose(c, a @ b, rtol=1e-12)

    def test_shape_validation(self):
        a, b, c = self._operands(30, 30, 5)
        with pytest.raises(ValueError):
            OffloadDGEMM(30, 30, kt=6, tile=(30, 30)).run(a, b, c)
