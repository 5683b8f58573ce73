"""Row-major outer-product GEMM built on the packed tile formats.

The paper decomposes C = alpha*A@B + beta*C into a sequence of rank-k
updates C += alpha * Ai @ Bi over K/k outer products (Section III-A).
This module implements exactly that decomposition:

* the K dimension is chopped into ``k_block`` deep slices,
* each slice's Ai / Bi is packed into the Knights Corner-friendly format
  through a :class:`~repro.blas.workspace.PackCache`, so a panel reused
  across many calls (the blocked LU's L21, the offload engine's
  resident strips) is packed exactly once,
* the fast kernel multiplies the packed tiles stripe by stripe: each
  group of 30-row a tiles is multiplied against the whole packed-B
  panel in a single BLAS call into a preallocated per-thread
  accumulator — the functional-layer analogue of handing one a tile to
  one core (Figure 2a). Stripes write disjoint row bands of C, so a
  :class:`~repro.parallel.TileExecutor` fans them across cores with
  bitwise-identical results at any worker count. The instruction-level
  emulated kernels run the tile-by-tile loop over the full
  (a tile, b tile) grid instead.

All matrices are row-major, matching the paper's convention (footnote 3
notes the column-major case reduces to this one by transposition).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blas.buffers import BufferPool
from repro.blas.kernels import (
    KERNEL1_ROWS,
    KERNEL2_ROWS,
    basic_kernel_1,
    basic_kernel_2,
)
from repro.machine.vector_batch import schedule_for
from repro.blas.packing import TILE_B_COLS
from repro.blas.workspace import PackCache
from repro.parallel import as_executor, is_process_executor, scratch_buffer, shm_task

_EMULATED_KERNELS = {KERNEL1_ROWS: basic_kernel_1, KERNEL2_ROWS: basic_kernel_2}

#: a tiles fused into one stripe task. Eight 30-row tiles give the BLAS
#: call a 240-row operand (good kernel shape) while leaving enough
#: stripes per outer product to keep a pool busy. Fixed — never derived
#: from the worker count — so the stripe geometry, and therefore every
#: floating-point sum, is identical at any pool width.
STRIPE_TILES = 8


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    k_block: int = 300,
    tile_rows: int = KERNEL2_ROWS,
    kernel: str = "fast",
    executor=None,
    pack_cache=None,
    a_key=None,
    b_key=None,
    pool: Optional[BufferPool] = None,
) -> np.ndarray:
    """C = alpha * A @ B + beta * C via packed outer products.

    Parameters
    ----------
    a, b:
        Row-major (M, K) and (K, N) operands of a common float dtype.
    c:
        Optional (M, N) accumulator, updated in place. Created zeroed if
        omitted (beta is then irrelevant).
    k_block:
        Depth of each outer product (the paper's k; 300 is the best
        DGEMM depth per Table II).
    tile_rows:
        30 selects Basic Kernel 2 tiling (default), 31 Basic Kernel 1.
    kernel:
        "fast" (one BLAS call per row stripe), "emulated" (vector-ISA
        semantics via the batched instruction schedule — one NumPy sweep
        per k iteration), or "emulated-step" (the per-instruction
        :class:`~repro.machine.vector.VectorMachine` reference; only
        sensible for small matrices). The two emulated modes are
        bitwise identical; "emulated" is merely orders of magnitude
        less Python dispatch.
    executor:
        ``None`` (serial), a worker count, or a
        :class:`~repro.parallel.TileExecutor` to fan the stripe grid
        across threads. Results are bitwise independent of the choice.
    pack_cache / a_key / b_key:
        With a :class:`~repro.blas.workspace.PackCache` and keys, the
        packed k-slices of A/B are cached under ``(key, k0)`` and reused
        by later calls on the same operand slice. Without a cache a
        call-local one packs every slice once, uncached.
    pool:
        The :class:`~repro.blas.buffers.BufferPool` the stripe path
        rents its fused-stripe operand, accumulator and row-band copy
        from (a call-local one when omitted).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gemm operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError("operands must share a dtype")
    if k_block < 1:
        raise ValueError("k_block must be positive")
    if kernel not in ("fast", "emulated", "emulated-step"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel != "fast" and tile_rows not in _EMULATED_KERNELS:
        raise ValueError(
            f"emulated kernels exist for tile_rows in "
            f"{tuple(sorted(_EMULATED_KERNELS))}, got tile_rows={tile_rows}"
        )

    m, k_total = a.shape
    n = b.shape[1]
    if c is None:
        c = np.zeros((m, n), dtype=a.dtype)
        beta = 0.0
    else:
        if c.shape != (m, n):
            raise ValueError(f"c must be {(m, n)}, got {c.shape}")
        if c.dtype != a.dtype:
            raise ValueError("c dtype must match operands")
        if beta != 1.0:
            c *= a.dtype.type(beta)

    if pool is None:
        pool = BufferPool()
    if pack_cache is None:
        pack_cache = PackCache()
    executor = as_executor(executor)
    alpha = a.dtype.type(alpha)
    for k0 in range(0, k_total, k_block):
        k1 = min(k0 + k_block, k_total)
        pa = pack_cache.pack_a(
            a[:, k0:k1],
            key=None if a_key is None else (a_key, k0),
            tile_rows=tile_rows,
        )
        pb = pack_cache.pack_b(
            b[k0:k1, :],
            key=None if b_key is None else (b_key, k0),
            tile_cols=TILE_B_COLS,
        )
        if kernel == "fast":
            _outer_product_stripes(c, pa, pb, alpha, executor, pool)
        else:
            _outer_product_tiles(c, pa, pb, alpha, kernel)
    return c


@shm_task("gemm.stripe")
def _stripe_task(
    ctx,
    *,
    a_ref,
    b_ref,
    c_ref,
    t0,
    stripe_tiles,
    n_tiles,
    tile_rows,
    m,
    k,
    ncols,
    alpha,
):
    """Worker-side stripe: byte-for-byte the same operand layout and
    BLAS call as :func:`_outer_product_stripes`'s ``run_stripe`` — a
    C-contiguous (nrows, k) fused stripe times the packed-B panel into
    a C-contiguous accumulator, folded into the stripe's disjoint row
    band of shared c. Identical inputs to the identical kernel give
    bitwise-identical output at any worker count and on any backend."""
    data = ctx.resolve(a_ref)  # (n_tiles, k, tile_rows)
    b_panel = ctx.resolve(b_ref)  # (k, panel width)
    c = ctx.resolve(c_ref)
    dtype = c.dtype
    t1 = min(t0 + stripe_tiles, n_tiles)
    rlo = t0 * tile_rows
    rhi = min(t1 * tile_rows, m)
    nrows = (t1 - t0) * tile_rows
    rows_per_task = stripe_tiles * tile_rows
    sbuf = scratch_buffer((rows_per_task, k), dtype)
    stripe = sbuf[:nrows]
    stripe.reshape(t1 - t0, tile_rows, k)[...] = data[t0:t1].transpose(0, 2, 1)
    obuf = scratch_buffer((rows_per_task, b_panel.shape[1]), dtype)
    out = obuf[:nrows]
    np.matmul(stripe, b_panel, out=out)
    a = dtype.type(alpha)
    if a != 1.0:
        np.multiply(out, a, out=out)
    c[rlo:rhi, :ncols] += out[: rhi - rlo, :ncols]
    return None


def _outer_product_stripes_process(c, pa, pb, alpha, executor) -> None:
    """The stripe fan-out over worker processes: ship ArrayRef
    descriptors, never operands.

    Operands already resident in the executor's shared arena (packed
    panels from an arena-backed pack cache, c a view of an adopted
    matrix) are referenced in place; anything process-private is staged
    into the arena with one memcpy — a parent-side copy, so the
    zero-payload pipe invariant holds either way — and c is copied back
    when it had to be staged.
    """
    arena = executor.arena
    b_panel = pb.row_major()
    staged = []
    a_ref = arena.ref_of(pa.data)
    if a_ref is None:
        sa = arena.adopt(pa.data, key="gemm.stage.a")
        staged.append(sa)
        a_ref = arena.ref_of(sa)
    b_ref = arena.ref_of(b_panel)
    if b_ref is None:
        sb = arena.adopt(b_panel, key="gemm.stage.b")
        staged.append(sb)
        b_ref = arena.ref_of(sb)
    c_ref = arena.ref_of(c)
    staged_c = None
    if c_ref is None:
        staged_c = arena.adopt(c, key="gemm.stage.c")
        c_ref = arena.ref_of(staged_c)
    try:
        common = {
            "a_ref": a_ref,
            "b_ref": b_ref,
            "c_ref": c_ref,
            "stripe_tiles": STRIPE_TILES,
            "n_tiles": pa.n_tiles,
            "tile_rows": pa.tile_rows,
            "m": pa.m,
            "k": pa.k,
            "ncols": pb.n,
            "alpha": float(alpha),
        }
        items = [{"t0": int(t0)} for t0 in range(0, pa.n_tiles, STRIPE_TILES)]
        executor.run_tasks("gemm.stripe", items, common=common)
        if staged_c is not None:
            np.copyto(c, staged_c)
    finally:
        if staged_c is not None:
            arena.release(staged_c)
        for buf in staged:
            arena.release(buf)


def _outer_product_stripes(c, pa, pb, alpha, executor, pool) -> None:
    """Accumulate alpha * unpack(pa) @ unpack(pb) into c, one row stripe
    per a tile.

    Each stripe multiplies its (tile_rows, k) a tile against the whole
    packed-B panel in a single BLAS call into an accumulator rented from
    ``pool``, then folds the valid region into its disjoint row band
    of c. Because stripes never share output rows and the k-slice loop
    above stays serial, the executor's scheduling cannot alter any
    floating-point sum — serial and parallel runs are bitwise identical.
    A process-backed executor takes the descriptor path instead
    (:func:`_outer_product_stripes_process`); the worker-side kernel is
    the same computation, so the backends are bitwise identical too.
    """
    if executor is not None and is_process_executor(executor):
        _outer_product_stripes_process(c, pa, pb, alpha, executor)
        return
    b_panel = pb.row_major()  # (k, n_tiles * tile_cols), padding included
    ncols = pb.n
    dtype = c.dtype
    k = pa.k

    def run_stripe(t0: int) -> None:
        t1 = min(t0 + STRIPE_TILES, pa.n_tiles)
        rlo = t0 * pa.tile_rows
        rhi = min(t1 * pa.tile_rows, pa.m)
        nrows = (t1 - t0) * pa.tile_rows
        # Tiles are stored (k, tile_rows); lay the fused stripe out as
        # one (rows, k) operand for a single BLAS call, copied into a
        # rented buffer via the strided assignment.
        stripe = pool.checkout((nrows, k), dtype, key="gemm.stripe")
        out = pool.checkout((nrows, b_panel.shape[1]), dtype, key="gemm.out")
        band = pool.checkout((rhi - rlo, b_panel.shape[1]), dtype, key="gemm.band")
        try:
            stripe.reshape(t1 - t0, pa.tile_rows, k)[...] = pa.data[
                t0:t1
            ].transpose(0, 2, 1)
            np.matmul(stripe, b_panel, out=out)
            if alpha != 1.0:
                np.multiply(out, alpha, out=out)
            # Fold through a contiguous copy of c's row band: adding into
            # the strided band allocates ~128 KiB of NumPy iterator
            # buffers per call. Same one addition per element.
            band[:, ncols:] = 0
            np.copyto(band[:, :ncols], c[rlo:rhi, :ncols])
            np.add(band, out[: rhi - rlo], out=band)
            np.copyto(c[rlo:rhi, :ncols], band[:, :ncols])
        finally:
            pool.release(stripe)
            pool.release(out)
            pool.release(band)

    starts = range(0, pa.n_tiles, STRIPE_TILES)
    if executor is None:
        for t0 in starts:
            run_stripe(t0)
    else:
        executor.map(run_stripe, starts)


def _outer_product_tiles(c, pa, pb, alpha, kernel) -> None:
    """Accumulate alpha * unpack(pa) @ unpack(pb) into c, tile by tile
    through an emulated kernel — the loop over the full
    (a tile, b tile) grid."""
    # PackedB tiles are strided views of the row-major panel; the
    # tile-by-tile loop touches each one many times, so take one
    # contiguous copy of the grid up front (the legacy layout).
    b_tiles = np.ascontiguousarray(pb.data)
    if kernel == "emulated":
        _emulated_batched_tiles(c, pa, pb, b_tiles, alpha)
        return
    emulated = _EMULATED_KERNELS[pa.tile_rows]
    for ta in range(pa.n_tiles):
        rlo, rhi = pa.tile_row_range(ta)
        a_tile = pa.tile(ta)
        for tb in range(pb.n_tiles):
            clo, chi = pb.tile_col_range(tb)
            block = emulated(a_tile, b_tiles[tb])
            c[rlo:rhi, clo:chi] += alpha * block[: rhi - rlo, : chi - clo]


def _emulated_batched_tiles(c, pa, pb, b_tiles, alpha) -> None:
    """The emulated-kernel grid as batched schedule replays: each a
    tile's row of the grid — all its b-tile multiplies — runs as one
    :meth:`~repro.machine.vector_batch.KernelSchedule.execute` call.

    The a tile is broadcast (no copy) across the b-tile batch, the
    resulting (n_b_tiles, rows, lanes) blocks are laid side by side into
    the tile's row band, and the band folds into c with the same one
    multiply + one add per element as the per-tile loop — so "emulated"
    and "emulated-step" are bitwise identical.
    """
    schedule = schedule_for(pa.tile_rows, lanes=b_tiles.shape[2])
    ncols = pb.n
    for ta in range(pa.n_tiles):
        rlo, rhi = pa.tile_row_range(ta)
        a_rep = np.broadcast_to(
            pa.tile(ta), (pb.n_tiles,) + pa.tile(ta).shape
        )
        blocks = schedule.execute(a_rep, b_tiles)
        band = blocks.transpose(1, 0, 2).reshape(pa.tile_rows, -1)
        c[rlo:rhi, :ncols] += alpha * band[: rhi - rlo, :ncols]


def dgemm(a, b, c=None, alpha=1.0, beta=0.0, k_block=300, **kw) -> np.ndarray:
    """Double-precision GEMM; inputs are cast to float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return gemm(a, b, c, alpha, beta, k_block, **kw)


def sgemm(a, b, c=None, alpha=1.0, beta=0.0, k_block=400, **kw) -> np.ndarray:
    """Single-precision GEMM; k_block defaults to SGEMM's best depth
    (Table II: 400)."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return gemm(a, b, c, alpha, beta, k_block, **kw)
