"""Functional-substrate benchmark — serial vs parallel stripe GEMM,
and the pack-once cache under blocked LU.

The paper's native DGEMM wins by (a) packing each operand panel once
per outer product and (b) fanning independent row-stripes across cores
(Section III-A). The functional layer mirrors both: the stripe GEMM
batches a stripe's tile kernels into one NumPy call per k-slice, a
:class:`~repro.parallel.TileExecutor` spreads the stripe grid over a
pool, and :class:`~repro.blas.workspace.PackCache` makes the blocked
LU pack each L21/U panel exactly once per stage.

Emits ``substrate.json`` with the measured rates plus the (exactly
deterministic) cache hit/miss counts. Set ``BENCH_SMOKE=1`` for the
reduced CI-smoke sizes.
"""

import os
import time

import numpy as np

from repro.blas.gemm import gemm
from repro.blas.workspace import PackCache
from repro.lu.factorize import blocked_lu
from repro.parallel import TileExecutor
from repro.report import Table

from conftest import once

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0") or "0"))

N_GEMM = 384 if SMOKE else 1536
K_BLOCK = 300
N_LU = 192 if SMOKE else 480
NB_LU = 48 if SMOKE else 120


def _timed_gemm(a, b, **kwargs):
    t0 = time.perf_counter()
    c = gemm(a, b, **kwargs)
    dt = time.perf_counter() - t0
    return c, dt


def build_substrate():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((N_GEMM, N_GEMM))
    b = rng.standard_normal((N_GEMM, N_GEMM))
    ref = a @ b
    flops = 2.0 * N_GEMM**3

    modes = {}
    c_stripe, modes["stripe"] = _timed_gemm(a, b, k_block=K_BLOCK)
    with TileExecutor(2) as ex:
        c_par, modes["parallel(2)"] = _timed_gemm(
            a, b, k_block=K_BLOCK, executor=ex
        )

    # Both partition the same stripe grid: bitwise identical.
    assert np.array_equal(c_stripe, c_par)
    # The packed path agrees with NumPy to rounding.
    assert np.allclose(c_stripe, ref, rtol=1e-10, atol=1e-8)

    rows = [
        {
            "bench": "gemm",
            "mode": mode,
            "n": N_GEMM,
            "k_block": K_BLOCK,
            "time_s": dt,
            "gflops": flops / dt / 1e9,
        }
        for mode, dt in modes.items()
    ]

    # Pack-once accounting under blocked LU: per stage with t trailing
    # panels, L21 packs once and is reused t-1 times; each U block packs
    # once and dies. The counts are exact at any worker count.
    a_lu = rng.standard_normal((N_LU, N_LU))
    cache = PackCache()
    lu_serial, ipiv_serial = blocked_lu(a_lu.copy(), nb=NB_LU, pack_cache=cache)
    n_panels = (N_LU + NB_LU - 1) // NB_LU
    trailing = [n_panels - i - 1 for i in range(n_panels)]
    want_misses = sum(1 + t for t in trailing if t >= 1)
    want_hits = sum(t - 1 for t in trailing if t >= 1)
    assert cache.misses == want_misses, (cache.misses, want_misses)
    assert cache.hits == want_hits, (cache.hits, want_hits)
    assert len(cache) == 0  # every panel invalidated once dead

    with TileExecutor(2) as ex:
        lu_par, ipiv_par = blocked_lu(
            a_lu.copy(), nb=NB_LU, executor=ex, workers=ex
        )
    assert np.array_equal(lu_serial, lu_par)
    assert np.array_equal(ipiv_serial, ipiv_par)

    rows.append(
        {
            "bench": "blocked_lu.pack_cache",
            "n": N_LU,
            "nb": NB_LU,
            "hits": cache.hits,
            "misses": cache.misses,
            "stale_evictions": cache.stale_evictions,
            "hit_rate": cache.hits / max(1, cache.hits + cache.misses),
        }
    )

    t = Table(
        "Functional substrate: serial vs parallel stripe GEMM"
        + (" (smoke sizes)" if SMOKE else ""),
        ["bench", "config", "time s", "GFLOPS"],
    )
    for row in rows[:2]:
        t.add(row["bench"], row["mode"], round(row["time_s"], 4), round(row["gflops"], 2))
    t.add(
        "lu pack cache",
        f"n={N_LU} nb={NB_LU}",
        f"{cache.hits} hits",
        f"{cache.misses} misses",
    )
    return t, rows


def test_substrate(benchmark, emit, emit_json):
    table, rows = once(benchmark, build_substrate)
    emit("substrate", table.render())
    emit_json("substrate", rows)
