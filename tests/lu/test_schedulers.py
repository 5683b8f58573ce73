"""Dynamic vs static look-ahead schedulers: timing shape, and the
numeric runs they predict."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.hpl import driver
from repro.hpl.driver import NativeHPL
from repro.hpl.matgen import hpl_matrix
from repro.lu.dynamic import (
    DynamicScheduler,
    SuperStage,
    _split_cores,
    plan_superstages,
)
from repro.lu.factorize import blocked_lu
from repro.lu.static_la import StaticLookaheadScheduler
from repro.lu.timing import LUTiming


class TestTimingModel:
    def test_panel_time_decreases_with_cores(self):
        t = LUTiming()
        assert t.panel_time(5000, 300, 8) < t.panel_time(5000, 300, 2)

    def test_panel_scaling_sublinear(self):
        t = LUTiming()
        speedup = t.panel_time(5000, 300, 1) / t.panel_time(5000, 300, 16)
        assert 1 < speedup < 16

    def test_update_components_positive(self):
        t = LUTiming()
        swap, trsm, gemm = t.update_components(4000, 300, 300, 4)
        assert swap > 0 and trsm > 0 and gemm > 0
        assert gemm > trsm  # the GEMM dominates an update task

    def test_update_time_is_component_sum(self):
        t = LUTiming()
        comps = t.update_components(4000, 300, 300, 4, bw_sharers=2)
        assert t.update_time(4000, 300, 300, 4, bw_sharers=2) == pytest.approx(
            sum(comps)
        )

    def test_swap_sharers_slow_it_down(self):
        t = LUTiming()
        assert t.swap_time(300, 1000, 4) == pytest.approx(4 * t.swap_time(300, 1000, 1))

    def test_flop_counts(self):
        assert LUTiming.lu_flops(3000) == pytest.approx(2 / 3 * 27e9)
        assert LUTiming.hpl_flops(3000) == pytest.approx(2 / 3 * 27e9 + 2 * 9e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            LUTiming().panel_time(0, 300, 4)


class TestPlanner:
    def test_split_cores_uses_all(self):
        assert sum(_split_cores(60, 7)) == 60
        assert max(_split_cores(60, 7)) - min(_split_cores(60, 7)) <= 1

    def test_plan_covers_all_stages(self):
        plan = plan_superstages(100, 60, 30000, 300, LUTiming())
        assert plan[0].start == 0
        assert plan[-1].end == 100
        for a, b in zip(plan, plan[1:]):
            assert a.end == b.start

    def test_late_superstages_have_wider_groups(self):
        plan = plan_superstages(100, 60, 30000, 300, LUTiming())
        first_width = max(plan[0].group_cores)
        last_width = max(plan[-1].group_cores)
        assert last_width >= first_width
        assert plan[-1].n_groups <= plan[0].n_groups

    def test_small_problem_gets_few_wide_groups(self):
        plan = plan_superstages(4, 60, 1200, 300, LUTiming())
        assert plan[0].n_groups <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_superstages(0, 60, 300, 300, LUTiming())
        with pytest.raises(ValueError):
            plan_superstages(10, 60, 3000, 300, LUTiming(), shrink=1.5)


class TestFigure6Shape:
    """The claims of Section IV-B / Figure 6."""

    def test_dynamic_beats_static_at_small_sizes(self):
        for n in (2000, 5000, 8000):
            dyn = DynamicScheduler(n, nb=300).run()
            sta = StaticLookaheadScheduler(n, nb=300).run()
            assert dyn.gflops > sta.gflops

    def test_schemes_converge_at_30k(self):
        dyn = DynamicScheduler(30000, nb=300).run()
        sta = StaticLookaheadScheduler(30000, nb=300).run()
        # "For the 30K problem, both schemes achieve 832 GFLOPS."
        assert dyn.gflops / sta.gflops < 1.10

    def test_relative_gap_shrinks_with_size(self):
        gaps = []
        for n in (3000, 8000, 30000):
            dyn = DynamicScheduler(n, nb=300).run()
            sta = StaticLookaheadScheduler(n, nb=300).run()
            gaps.append(dyn.gflops / sta.gflops)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_30k_efficiency_near_79(self):
        dyn = DynamicScheduler(30000, nb=300).run()
        assert dyn.efficiency == pytest.approx(0.788, abs=0.02)
        assert dyn.gflops == pytest.approx(832, abs=25)

    def test_efficiency_monotone_in_size(self):
        effs = [
            DynamicScheduler(n, nb=300).run().efficiency
            for n in (2000, 5000, 15000, 30000)
        ]
        assert effs == sorted(effs)

    def test_within_12pct_of_dgemm_efficiency(self):
        # Paper: native HPL at 30K is within 12% of native DGEMM (89.4%).
        dyn = DynamicScheduler(30000, nb=300).run()
        assert dyn.efficiency > 0.894 - 0.12


class TestSchedulerMechanics:
    def test_all_tasks_executed(self):
        r = DynamicScheduler(6000, nb=300).run()
        panels = 20
        assert r.tasks_executed == panels + panels * (panels - 1) // 2

    def test_trace_has_all_kinds(self):
        r = DynamicScheduler(6000, nb=300).run()
        kinds = set(r.trace.kinds())
        assert {"dgetrf", "dlaswp", "dtrsm", "dgemm"} <= kinds

    def test_static_trace_has_barrier_and_panel_group(self):
        r = StaticLookaheadScheduler(6000, nb=300).run()
        assert "barrier" in r.trace.kinds()
        assert "panel_group" in r.trace.workers()
        assert r.barriers == 19  # one per stage transition

    def test_master_only_lock_reduces_contention(self):
        slow = DynamicScheduler(5000, nb=250, master_only_lock=False).run()
        fast = DynamicScheduler(5000, nb=250, master_only_lock=True).run()
        assert fast.makespan_s <= slow.makespan_s
        assert slow.lock_mean_wait_s >= fast.lock_mean_wait_s

    def test_custom_superstages_respected(self):
        ss = [SuperStage(0, 10, (30, 30)), SuperStage(10, 20, (60,))]
        r = DynamicScheduler(6000, nb=300, superstages=ss).run()
        assert r.barriers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicScheduler(0)
        with pytest.raises(ValueError):
            StaticLookaheadScheduler(100, nb=0)


def native_factors(monkeypatch, n, nb, scheduler, seed=42):
    """(lu, ipiv) a numeric NativeHPL run hands its solve, plus the
    original matrix — captured at the driver's ``lu_solve`` binding."""
    seen = {}
    real = driver.lu_solve

    def spy(lu, ipiv, b, pool=None):
        seen["lu"], seen["ipiv"] = lu.copy(), ipiv.copy()
        return real(lu, ipiv, b, pool=pool)

    monkeypatch.setattr(driver, "lu_solve", spy)
    r = NativeHPL(n, nb=nb, scheduler=scheduler).run(numeric=True, seed=seed)
    assert r.passed
    return seen["lu"], seen["ipiv"], hpl_matrix(n, seed)


class TestNumericExecution:
    """A numeric run under either scheduler factors through the stage
    loop: bitwise ``blocked_lu``, and LAPACK's pivots."""

    @staticmethod
    def _check(monkeypatch, scheduler):
        lu, ipiv, a0 = native_factors(monkeypatch, 120, 30, scheduler)
        lu_ref, ipiv_ref = blocked_lu(a0.copy(), nb=30)
        np.testing.assert_array_equal(lu, lu_ref)
        np.testing.assert_array_equal(ipiv, ipiv_ref)
        lu_la, piv_la = sla.lu_factor(a0)
        np.testing.assert_allclose(lu, lu_la, rtol=1e-9, atol=1e-11)
        np.testing.assert_array_equal(ipiv, piv_la)

    def test_dynamic_schedule_computes_correct_lu(self, monkeypatch):
        self._check(monkeypatch, "dynamic")

    def test_static_schedule_computes_correct_lu(self, monkeypatch):
        self._check(monkeypatch, "static")
