"""Steady-state allocation of the pooled LU hot paths.

The buffer arena claims the LU hot paths stop allocating once the
:class:`~repro.blas.buffers.BufferPool` is warm: every kernel scratch
(pivot search, row swaps, rank-1 updates, gather buffers, trsm
workspaces, trailing-update products) is rented from the arena instead
of hitting the NumPy allocator per call. This benchmark measures the
claim directly with tracemalloc: a seeded blocked LU (and the
triangular solve) runs once to warm the pool, then again under
measurement, and we record the temporary bytes the steady-state run
allocated — total and per stage.

Emits ``alloc.json``. The ``alloc_*_bytes`` keys are gated
*lower-is-better* by ``tools/bench_compare.py`` (growth beyond the
threshold is the regression). Set ``BENCH_SMOKE=1`` for the reduced CI
sizes.
"""

import os

import numpy as np

from repro.blas.buffers import BufferPool
from repro.lu.factorize import blocked_lu, lu_solve
from repro.obs import measure_temp_bytes
from repro.report import Table

from conftest import once

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0") or "0"))

N = 192 if SMOKE else 384
NB = 48
SEED = 7


def _steady_state_factor(pool):
    """Temp bytes of one full blocked LU at steady state.

    The matrix copy lives outside the measured span; the first
    (unmeasured) factorization warms the arena so the measured run only
    exercises checkout/release.
    """
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((N, N))
    work = np.empty_like(a)
    np.copyto(work, a)
    blocked_lu(work, nb=NB, pool=pool)
    np.copyto(work, a)
    (lu, ipiv), temp = measure_temp_bytes(blocked_lu, work, nb=NB, pool=pool)
    return lu.copy(), ipiv, temp


def _steady_state_solve(lu, ipiv, b, pool):
    """Temp bytes of one lu_solve at steady state (pool pre-warmed)."""
    lu_solve(lu, ipiv, b, pool=pool)
    x, temp = measure_temp_bytes(lu_solve, lu, ipiv, b, pool=pool)
    return x, temp


def build_alloc():
    stages = (N + NB - 1) // NB
    rng = np.random.default_rng(SEED + 1)
    b = rng.standard_normal(N)

    pool = BufferPool()
    lu, ipiv, factor_bytes = _steady_state_factor(pool)
    _x, solve_bytes = _steady_state_solve(lu, ipiv, b, pool)
    assert pool.active == 0
    rows = [
        {
            "bench": "lu.factor",
            "mode": "pooled",
            "n": N,
            "nb": NB,
            "stages": stages,
            "alloc_temp_bytes": factor_bytes,
            "alloc_bytes_per_stage": factor_bytes / stages,
        },
        {
            "bench": "lu.solve",
            "mode": "pooled",
            "n": N,
            "alloc_temp_bytes": solve_bytes,
        },
    ]

    t = Table(
        "Steady-state temporaries of the pooled LU"
        + (" (smoke sizes)" if SMOKE else ""),
        ["bench", "mode", "temp bytes", "per stage"],
    )
    for row in rows:
        t.add(
            row["bench"],
            row["mode"],
            row["alloc_temp_bytes"],
            round(row.get("alloc_bytes_per_stage", 0)),
        )
    return t, rows


def test_alloc(benchmark, emit, emit_json):
    table, rows = once(benchmark, build_alloc)
    emit("alloc", table.render())
    emit_json("alloc", rows)
