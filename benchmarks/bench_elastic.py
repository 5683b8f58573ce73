"""Elastic world — what a mid-run grid reshape moves and what it costs.

Two sections in the emitted artifact:

``model``
    Deterministic figures at a fixed reference geometry (n=4096,
    nb=128 — the gate compares these): for
    each grid transition, the relayout planner's moved volume, the
    information-theoretic lower bound, their ratio
    (``redistribution_efficiency`` — the engine ships every
    owner-changed block exactly once, so it gates at 1.0), and the
    predicted redistribution time under the machine model's network
    (``model_regrid_s``, gated lower-is-better by the ``regrid``/
    ``_s`` rule in ``tools/bench_compare.py``). Analytic only, never
    wall clock.

``measured``
    Real elastic `DistributedHPL` runs on the simulated MPI world at
    n=384: a grow (2x2 -> 2x4 at the regrid panel) and a shrink
    (2x4 -> 2x2), each asserted **bitwise-identical** (lu/ipiv/x and
    residual) to an uninterrupted run on the final grid, and each
    asserting the measured redistribution wall time stays under 15%
    of end-to-end time. Wall-clock keys (``time_s``,
    ``regrid_wall_fraction``) are informational; the bitwise asserts
    are the machine-independent signal.

The measured section runs at the same size with or without
``BENCH_SMOKE=1``. The regrid's cost is mostly fixed (a fresh simulated
world, checkpoint load and save), so at a smoke size like n=96 it took
~10 ms of a ~60 ms run — a few ms of scheduler jitter crossed the 15%
line. At n=384 it is ~4% of the run, well clear of that jitter, and a
regrid slowed by 0.1 s still fails the gate.
"""

import numpy as np

from repro.cluster.grid import ProcessGrid
from repro.cluster.hpl_mpi import DistributedHPL
from repro.elastic import plan_relayout, predict_time_s
from repro.report import Table

from conftest import once

N, NB = 384, 32
REPEATS = 3
REGRID_PANEL = 3

# Fixed reference geometry for the analytic section (the gate compares
# these).
MODEL_N, MODEL_NB = 4096, 128
MODEL_TRANSITIONS = (((2, 2), (2, 4)), ((2, 4), (2, 2)), ((2, 2), (1, 2)))


def _model_rows():
    """Planner volume, efficiency and predicted time per transition."""
    rows = []
    for (p0, q0), (p1, q1) in MODEL_TRANSITIONS:
        plan = plan_relayout(
            MODEL_N, MODEL_NB, ProcessGrid(p0, q0), ProcessGrid(p1, q1)
        )
        rows.append(
            {
                "transition": f"{p0}x{q0}->{p1}x{q1}",
                "n": MODEL_N,
                "nb": MODEL_NB,
                "moved_mb": plan.moved_bytes / 1e6,
                "lower_bound_mb": plan.lower_bound_bytes / 1e6,
                "redistribution_efficiency": plan.efficiency,
                "rank_pairs": len(plan.transfer_matrix),
                "model_regrid_s": predict_time_s(plan),
            }
        )
    return rows


def _repeat_runs(p, q, **kwargs):
    """REPEATS runs; every repeat must pass the residual."""
    runs = []
    for _ in range(REPEATS):
        r = DistributedHPL(N, NB, p, q, **kwargs).run()
        assert r.passed
        runs.append(r)
    return runs


def _best_run(p, q, **kwargs):
    """Min-of-REPEATS wall time."""
    return min(_repeat_runs(p, q, **kwargs), key=lambda r: r.time_s)


def _measured_rows():
    base_24 = _best_run(2, 4)
    base_22 = _best_run(2, 2)
    grows = _repeat_runs(2, 2, regrid=[f"panel={REGRID_PANEL}:2x4"])
    shrinks = _repeat_runs(2, 4, regrid=[f"panel={REGRID_PANEL}:2x2"])

    rows = []
    for mode, runs, base in (("grow 2x2->2x4", grows, base_24),
                             ("shrink 2x4->2x2", shrinks, base_22)):
        # The elastic invariant: a reshaped run is bitwise the
        # uninterrupted run on the final grid — on every repeat.
        for r in runs:
            assert r.regrids == 1
            assert np.array_equal(r.lu, base.lu)
            assert np.array_equal(r.ipiv, base.ipiv)
            assert np.array_equal(r.x, base.x)
            assert r.residual == base.residual
        best = min(runs, key=lambda r: r.time_s)
        # The reshape itself must stay a small slice of the run. Both
        # sides use min-of-repeats (the bench's de-noising policy):
        # thread-scheduling jitter on one sample is not a regression.
        regrid_wall = min(r.regrid_wall_s for r in runs)
        assert regrid_wall < 0.15 * best.time_s, (regrid_wall, best.time_s)
        rows.append(
            {
                "mode": mode,
                "n": N,
                "nb": NB,
                "time_s": best.time_s,
                "final_grid": f"{best.p}x{best.q}",
                "regrids": best.regrids,
                "regrid_moved_kb": best.regrid_moved_bytes / 1e3,
                "regrid_wall_fraction": regrid_wall / best.time_s,
                "vs_uninterrupted_pct": 100.0 * (best.time_s / base.time_s - 1.0),
            }
        )
    return rows


def build_elastic():
    model = _model_rows()
    measured = _measured_rows()
    table = Table(
        "Elastic regrid: redistribution volume and cost",
        ["config", "moved", "efficiency", "regrid s", "vs final grid"],
    )
    for row in measured:
        table.add(
            f"{row['mode']} n={row['n']}",
            f"{row['regrid_moved_kb']:.0f} kB",
            "-",
            f"{row['regrid_wall_fraction'] * 100:.1f}% of run",
            f"{row['vs_uninterrupted_pct']:+.1f}%",
        )
    for row in model:
        table.add(
            f"model {row['transition']} n={row['n']}",
            f"{row['moved_mb']:.1f} MB",
            f"{row['redistribution_efficiency']:.2f}",
            f"{row['model_regrid_s'] * 1e3:.2f} ms",
            "-",
        )
    return table, {"model": model, "measured": measured}


def test_elastic(benchmark, emit, emit_json):
    table, data = once(benchmark, build_elastic)
    emit("elastic", table.render())
    emit_json("elastic", data)
