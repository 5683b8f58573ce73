"""The two basic matrix-multiply kernels of Section III-A2 (Figure 2).

Both kernels multiply a packed a tile (rows x k, column-major) by a
packed b tile (k x 8, row-major) into a (rows x 8) c block held entirely
in vector registers. They are emulated instruction by instruction on
the :class:`~repro.machine.vector.VectorMachine`, following Figure 2b/2c
exactly (register allocation, broadcast flavours, swizzles). This path
exists to *verify the kernel algorithm*: the tests check both that the
numbers match NumPy and that the instruction census matches the paper's
efficiency arithmetic (31 or 30 vmadds out of 32 vector instructions per
iteration). The GEMM driver's fast kernel multiplies the same packed
tiles as whole row stripes through BLAS (:mod:`repro.blas.gemm`).

Kernel 1 keeps 31 c rows in v0..v30 and loads the b row into v31; every
iteration's 31 vmadds take their a element as a 1to8 memory broadcast.
Kernel 2 keeps 30 c rows in v0..v29, 4to8-broadcasts the first four a
elements into v30 and swizzles them out of the register for the first
four vmadds, creating the four port-free cycles that let L1 prefetch
fills complete without stalling the pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.machine.vector import VLEN, VectorMachine
from repro.machine.vector_batch import schedule_for

#: c rows held in registers by each kernel.
KERNEL1_ROWS = 31
KERNEL2_ROWS = 30

#: Cache lines touched per iteration: one for the b row, four for the
#: 31-element a column (shared among the core's four threads), so on
#: average two fills per thread per iteration (Section III-A2).
LINES_PER_ITER_B = 1
LINES_PER_ITER_A = 4


def _check_tiles(a_tile: np.ndarray, b_tile: np.ndarray, rows: int) -> tuple:
    a_tile = np.asarray(a_tile)
    b_tile = np.asarray(b_tile)
    if a_tile.ndim != 2 or b_tile.ndim != 2:
        raise ValueError("tiles must be 2-D")
    if a_tile.shape[0] != b_tile.shape[0]:
        raise ValueError(
            f"k mismatch: a tile has k={a_tile.shape[0]}, b tile k={b_tile.shape[0]}"
        )
    if a_tile.shape[1] != rows:
        raise ValueError(f"a tile must have {rows} rows (got {a_tile.shape[1]})")
    if b_tile.shape[1] != VLEN:
        raise ValueError(f"b tile must be {VLEN} wide (got {b_tile.shape[1]})")
    return a_tile, b_tile


def basic_kernel_1(
    a_tile: np.ndarray, b_tile: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """Figure 2b: c(31 x 8) = a_tile.T @ b_tile via 31 memory-broadcast
    vmadds per iteration.

    ``a_tile`` is the packed (k, 31) column-major tile; ``b_tile`` the
    packed (k, 8) row-major tile.
    """
    a_tile, b_tile = _check_tiles(a_tile, b_tile, KERNEL1_ROWS)
    k = a_tile.shape[0]
    vm = vm or VectorMachine()
    if vm.n_registers < 32:
        raise ValueError("Basic Kernel 1 needs 32 vector registers")
    for r in range(KERNEL1_ROWS):
        vm.vzero(r)
    b_row_reg = 31
    for i in range(k):
        vm.vload(b_row_reg, b_tile[i])  # one vector load of the b row
        vm.prefetch()  # L1 prefetch, b line
        vm.prefetch()  # L1 prefetch, shared a line (avg per thread)
        for r in range(KERNEL1_ROWS):
            # c_r += b_row * 1to8_broadcast(a[i, r])
            vm.vmadd_mem_1to8(r, b_row_reg, a_tile[i, r])
    out = np.empty((KERNEL1_ROWS, VLEN), dtype=vm.dtype)
    for r in range(KERNEL1_ROWS):
        vm.vstore(r, out[r])
    return out


def basic_kernel_2(
    a_tile: np.ndarray, b_tile: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """Figure 2c: c(30 x 8) = a_tile.T @ b_tile, trading one accumulator
    row for a 4to8 broadcast + 4 swizzle vmadds that free the L1 ports.
    """
    a_tile, b_tile = _check_tiles(a_tile, b_tile, KERNEL2_ROWS)
    k = a_tile.shape[0]
    vm = vm or VectorMachine()
    if vm.n_registers < 32:
        raise ValueError("Basic Kernel 2 needs 32 vector registers")
    for r in range(KERNEL2_ROWS):
        vm.vzero(r)
    bcast_reg, b_row_reg = 30, 31
    for i in range(k):
        vm.vload(b_row_reg, b_tile[i])
        # Load-broadcast the first four a elements: [a0 a1 a2 a3 a0 a1 a2 a3].
        vm.broadcast_4to8(bcast_reg, a_tile[i, :4])
        vm.prefetch()
        vm.prefetch()
        for r in range(4):
            # Swizzle a_r out of the register: no memory access — a "hole"
            # in the L1 port schedule for the prefetch fill.
            vm.vmadd_swizzle(r, b_row_reg, bcast_reg, r)
        for r in range(4, KERNEL2_ROWS):
            vm.vmadd_mem_1to8(r, b_row_reg, a_tile[i, r])
    out = np.empty((KERNEL2_ROWS, VLEN), dtype=vm.dtype)
    for r in range(KERNEL2_ROWS):
        vm.vstore(r, out[r])
    return out


#: Lanes of a 512-bit register in single precision.
SP_LANES = 16


def basic_kernel_2_sp(
    a_tile: np.ndarray, b_tile: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """The SGEMM flavour of Basic Kernel 2 (the paper applies "the same
    optimizations to SGEMM as well"): identical structure, 16 float32
    lanes per register, so the b tile is 16 wide and each vmadd does
    twice the FLOPs.
    """
    a_tile = np.asarray(a_tile, dtype=np.float32)
    b_tile = np.asarray(b_tile, dtype=np.float32)
    if a_tile.shape[0] != b_tile.shape[0]:
        raise ValueError("k mismatch between tiles")
    if a_tile.shape[1] != KERNEL2_ROWS:
        raise ValueError(f"a tile must have {KERNEL2_ROWS} rows")
    if b_tile.shape[1] != SP_LANES:
        raise ValueError(f"SP b tile must be {SP_LANES} wide")
    k = a_tile.shape[0]
    vm = vm or VectorMachine(dtype=np.float32, lanes=SP_LANES)
    if vm.n_registers < 32 or vm.lanes != SP_LANES:
        raise ValueError("SP Kernel 2 needs 32 registers of 16 float32 lanes")
    for r in range(KERNEL2_ROWS):
        vm.vzero(r)
    bcast_reg, b_row_reg = 30, 31
    for i in range(k):
        vm.vload(b_row_reg, b_tile[i])
        vm.broadcast_4to8(bcast_reg, a_tile[i, :4])
        vm.prefetch()
        vm.prefetch()
        for r in range(4):
            vm.vmadd_swizzle(r, b_row_reg, bcast_reg, r)
        for r in range(4, KERNEL2_ROWS):
            vm.vmadd_mem_1to8(r, b_row_reg, a_tile[i, r])
    out = np.empty((KERNEL2_ROWS, SP_LANES), dtype=np.float32)
    for r in range(KERNEL2_ROWS):
        vm.vstore(r, out[r])
    return out


def _batched(rows: int, lanes: int, a_tiles, b_tiles, vm: VectorMachine | None):
    schedule = schedule_for(rows, lanes)
    if vm is not None:
        if vm.lanes != schedule.lanes or vm.dtype != schedule.dtype:
            raise ValueError(
                f"{schedule.name} needs {schedule.lanes} lanes of "
                f"{schedule.dtype}, machine has {vm.lanes} of {vm.dtype}"
            )
        return schedule.execute(a_tiles, b_tiles, counts=vm.counts)
    return schedule.execute(a_tiles, b_tiles)


def batched_kernel_1(
    a_tiles: np.ndarray, b_tiles: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """Basic Kernel 1 over a batch of tile pairs: (T, k, 31) x (T, k, 8)
    -> (T, 31, 8), bitwise identical to T :func:`basic_kernel_1` calls.

    The schedule replays as one NumPy sweep per k iteration instead of
    per-instruction dispatch; with ``vm``, its counters advance by the
    exact census the per-instruction path would record.
    """
    return _batched(KERNEL1_ROWS, VLEN, a_tiles, b_tiles, vm)


def batched_kernel_2(
    a_tiles: np.ndarray, b_tiles: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """Basic Kernel 2 over a batch: (T, k, 30) x (T, k, 8) -> (T, 30, 8),
    bitwise identical to T :func:`basic_kernel_2` calls, census included
    (the swizzled rows replicate the same operand values, so the batched
    sweep covers them too)."""
    return _batched(KERNEL2_ROWS, VLEN, a_tiles, b_tiles, vm)


def batched_kernel_2_sp(
    a_tiles: np.ndarray, b_tiles: np.ndarray, vm: VectorMachine | None = None
) -> np.ndarray:
    """The SGEMM flavour of the batched Kernel 2: (T, k, 30) x
    (T, k, 16) float32 -> (T, 30, 16)."""
    return _batched(KERNEL2_ROWS, SP_LANES, a_tiles, b_tiles, vm)


#: Hardware threads cooperating on one core's a tile (Figure 2a).
THREADS_PER_CORE = 4

#: 64-byte cache lines per 30/31-element f64 column of a.
A_LINES_PER_COLUMN = 4


def core_multiply(
    a_tile: np.ndarray,
    b_tiles,
    kernel=basic_kernel_2,
    vms=None,
):
    """Figure 2a: the four hardware threads of one core multiply the
    *shared* a tile by their own b tiles into their own c tiles.

    Returns the list of c blocks (one per thread). Each thread runs the
    full emulated kernel; sharing is about the memory system, not the
    arithmetic — see :func:`core_a_line_traffic`.
    """
    b_tiles = list(b_tiles)
    if len(b_tiles) != THREADS_PER_CORE:
        raise ValueError(f"a core runs {THREADS_PER_CORE} hardware threads")
    if vms is not None and len(vms) != THREADS_PER_CORE:
        raise ValueError("need one vector machine per thread")
    out = []
    for t, b_tile in enumerate(b_tiles):
        vm = vms[t] if vms is not None else None
        out.append(kernel(a_tile, b_tile, vm))
    return out


def core_a_line_traffic(k: int, synchronized: bool) -> int:
    """L2->L1 line fills for the a tile over one k-loop of the core.

    With the paper's "frequent fast inter-thread synchronization" the
    four threads stay on the same iteration, so each of the 4 a-column
    lines is brought into L1 once and reused by the other three threads.
    Unsynchronized threads drift apart and each fetches its own copy
    (worst case): 4x the traffic — and 5 fills per thread per iteration
    instead of the average 2 the stall analysis of Section III-A2 needs.
    """
    if k < 1:
        raise ValueError("k must be positive")
    per_iteration = (
        A_LINES_PER_COLUMN if synchronized else A_LINES_PER_COLUMN * THREADS_PER_CORE
    )
    return per_iteration * k


def fills_per_thread_iteration(synchronized: bool) -> float:
    """Average L1 fills each thread absorbs per iteration: one b line
    plus its share of the a lines (Section III-A2's "two cache lines")."""
    b_lines = 1.0
    a_share = A_LINES_PER_COLUMN / (THREADS_PER_CORE if synchronized else 1)
    return b_lines + a_share
