"""Offload DGEMM (Section V-B, Figures 10 and 11).

The engine simulates — and optionally executes — the paper's offload
pipeline:

1. designated host cores *pack* the next input tiles into the Knights
   Corner-friendly format (a bandwidth-bound copy, Step 1-2 of
   Figure 10b) and DMA them over PCIe (Step 3);
2. the card polls its request queue, computes the tile's DGEMM as k=300
   outer products on its 60 compute cores (one core is the queue
   handler), and DMAs the result back (Steps 5-9);
3. the host accumulates returned tiles into C (Step 10);
4. optionally, the host's remaining cores join the computation by
   *work-stealing* tiles from the opposite corner of the matrix.

Input and output transfers share each card's PCIe link, so the paper's
Kt bound (compute/transfer > 1) emerges from the simulation: with Kt
too small the card starves on the link. Only the first tile's pack +
upload and the last tile's download are inherently exposed — the 2.5%
loss the paper cites; one queue-handling core costs another 60/61.

With two cards the matrix columns are split in half, one half per card
(each card "is only solving half the problem size"), so fewer tiles
amortise each card's exposed edges — Figure 11b's faster degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.blas.buffers import BufferPool, add_into, matmul_into
from repro.blas.gemm import gemm as blas_gemm
from repro.blas.workspace import PackCache
from repro.hybrid.tile_select import HYBRID_KT, KERNEL_K, best_tile_size
from repro.parallel import as_executor
from repro.hybrid.tiles import StealState, Tile, TileGrid
from repro.machine.calibration import Calibration, default_calibration
from repro.machine.config import KNC, SNB
from repro.machine.gemm_model import gemm_efficiency, snb_dgemm_efficiency
from repro.machine.memory import MemoryModel
from repro.machine.pcie import PCIeLink
from repro.obs import MetricsRegistry, RunResult
from repro.sim import Lock, Simulator, Store, TraceRecorder


@dataclass
class OffloadResult(RunResult):
    """Outcome of one offload DGEMM call."""

    m: int
    n: int
    kt: int
    cards: int
    time_s: float
    gflops: float
    efficiency: float  # w.r.t. the cards' aggregate full-61-core peak
    tiles_card: int
    tiles_host: int
    card_flops: float
    host_flops: float
    trace: TraceRecorder
    metrics: Optional[MetricsRegistry] = None

    kind = "offload"


def _host_tile(
    pool: BufferPool, a: np.ndarray, b: np.ndarray, target: np.ndarray
) -> None:
    """A host-stolen tile: ``target += a @ b``, the product and the
    fold's contiguous band rented from ``pool``."""
    with pool.rent(target.shape, target.dtype, key="offload.host") as prod:
        with pool.rent(target.shape, target.dtype, key="offload.band") as band:
            matmul_into(pool, a, b, prod, key="offload.host")
            add_into(target, prod, band)


class OffloadDGEMM:
    """One trailing-update offload: C (M x N) += A (M x Kt) @ B (Kt x N)."""

    def __init__(
        self,
        m: int,
        n: int,
        kt: int = HYBRID_KT,
        cards: int = 1,
        tile: Optional[tuple] = None,
        host_assist: bool = False,
        host_cores_reserved: int = 2,
        socket_interleave: bool = True,
        cal: Optional[Calibration] = None,
        link: Optional[PCIeLink] = None,
        pack_cache: Optional[PackCache] = None,
        executor=None,
        pool: Optional[BufferPool] = None,
    ):
        if m < 1 or n < 1 or kt < 1:
            raise ValueError("matrix dimensions must be positive")
        if cards < 1:
            raise ValueError("need at least one card")
        self.m, self.n, self.kt, self.cards = m, n, kt, cards
        # Pack-once substrate for the numeric path: each resident A row
        # strip / B column strip is packed on first touch and reused by
        # every tile that shares it (the functional analogue of the
        # strips staying resident in the card's GDDR).
        self.pack_cache = PackCache() if pack_cache is None else pack_cache
        # Scratch arena threaded into the card-side GEMMs and the host
        # path's product, so steady-state tiles allocate nothing.
        self.pool = BufferPool() if pool is None else pool
        self.executor = as_executor(executor)
        self.cal = cal or default_calibration()
        self.link = link or PCIeLink()
        if tile is None:
            mt, nt, _ = best_tile_size(m, n, kt, cards)
        else:
            mt, nt = tile
        self.mt, self.nt = mt, nt
        self.host_assist = host_assist
        self.host_cores_reserved = host_cores_reserved
        # One column-half of the matrix per card (contiguous split).
        self.col_splits = self._split_columns(n, cards)
        self.grids = [
            TileGrid(m, hi - lo, min(mt, m), min(nt, hi - lo))
            for lo, hi in self.col_splits
        ]
        # Section V-B: matrix partitions are interleaved across the two
        # host sockets so concurrent copies/DMAs draw on both memory
        # controllers; without interleaving, packing sees one socket.
        self.socket_interleave = socket_interleave
        fraction = 0.6 if socket_interleave else 0.3
        self.host_mem = MemoryModel(SNB, available_fraction=fraction)

    @staticmethod
    def _split_columns(n: int, cards: int) -> List[tuple]:
        if cards > n:
            raise ValueError("more cards than matrix columns")
        base, extra = divmod(n, cards)
        splits, lo = [], 0
        for i in range(cards):
            hi = lo + base + (1 if i < extra else 0)
            splits.append((lo, hi))
            lo = hi
        return splits

    # -- durations ---------------------------------------------------------------
    def card_compute_s(self, tile: Tile) -> float:
        eff = gemm_efficiency(
            tile.m, tile.n, KERNEL_K, KNC, cores=KNC.compute_cores, cal=self.cal
        )
        rate = eff * KNC.peak_dp_gflops(KNC.compute_cores) * 1e9
        return tile.flops(self.kt) / rate

    def host_compute_s(self, tile: Tile) -> float:
        cores = max(1, SNB.cores - self.host_cores_reserved - 2 * self.cards)
        eff = snb_dgemm_efficiency(min(tile.m, tile.n), self.cal)
        rate = eff * SNB.peak_dp_gflops(cores) * 1e9
        return tile.flops(self.kt) / rate

    def tile_input_bytes(self, tile: Tile, shipped_rows: set, shipped_cols: set) -> int:
        """Bytes of *new* A/B strips this tile needs on the card: each
        Mt x Kt row strip of A and Kt x Nt column strip of B is shipped
        once and reused from GDDR for every later tile that touches it."""
        nbytes = 0
        if tile.r0 not in shipped_rows:
            nbytes += 8 * self.kt * tile.m
            shipped_rows.add(tile.r0)
        if tile.c0 not in shipped_cols:
            nbytes += 8 * self.kt * tile.n
            shipped_cols.add(tile.c0)
        return nbytes

    def pack_s(self, nbytes: int) -> float:
        """Copy-combined-with-pack of newly shipped strips (Step 1-2)."""
        return self.host_mem.copy_time_s(nbytes, sharers=self.cards)

    def accumulate_s(self, tile: Tile) -> float:
        """Read C + result, write C (Step 10)."""
        return self.host_mem.transfer_time_s(
            3 * tile.output_bytes(), sharers=self.cards
        )

    # -- the simulation ---------------------------------------------------------
    def run(
        self,
        a: Optional[np.ndarray] = None,
        b: Optional[np.ndarray] = None,
        c: Optional[np.ndarray] = None,
    ) -> OffloadResult:
        """Simulate the offload; with (a, b, c) supplied, also execute it
        numerically (c is updated in place)."""
        numeric = a is not None
        if numeric:
            a = np.asarray(a)
            b = np.asarray(b)
            if c is None:
                c = np.zeros((self.m, self.n), dtype=a.dtype)
            if a.shape != (self.m, self.kt) or b.shape != (self.kt, self.n):
                raise ValueError("operand shapes do not match the offload geometry")
            if c.shape != (self.m, self.n):
                raise ValueError("c has the wrong shape")

        sim = Simulator()
        trace = TraceRecorder()
        stats = {
            "card_tiles": 0,
            "host_tiles": 0,
            "card_flops": 0.0,
            "host_flops": 0.0,
            "pcie_bytes_in": 0,
            "pcie_bytes_out": 0,
        }
        steals = [StealState(g) for g in self.grids]
        links = [Lock(sim) for _ in range(self.cards)]

        def compute_tile_numeric(tile: Tile, col_lo: int, on_card: bool) -> None:
            rows = slice(tile.r0, tile.r1)
            cols = slice(col_lo + tile.c0, col_lo + tile.c1)
            if on_card:
                # The card path goes through the packed-format BLAS; the
                # strips shared between tiles pack once.
                blas_gemm(
                    a[rows, :],
                    b[:, cols],
                    c[rows, cols],
                    alpha=1.0,
                    beta=1.0,
                    k_block=KERNEL_K,
                    pack_cache=self.pack_cache,
                    a_key=("offload.a", tile.r0, tile.r1),
                    b_key=("offload.b", col_lo + tile.c0, col_lo + tile.c1),
                    executor=self.executor,
                    pool=self.pool,
                )
            else:
                _host_tile(self.pool, a[rows, :], b[:, cols], c[rows, cols])

        def transfer(link: Lock, nbytes: float, worker: str, kind: str):
            yield from link.acquire()
            t0 = sim.now
            yield self.link.transfer_time_s(nbytes)
            trace.record(worker, kind, t0, sim.now, nbytes=nbytes)
            link.release()
            stats["pcie_bytes_in" if kind == "dma_in" else "pcie_bytes_out"] += nbytes

        def packer(card: int):
            """Feed the card: steal -> pack new strips -> DMA-in -> ready."""
            ready = ready_queues[card]
            shipped_rows: set = set()
            shipped_cols: set = set()
            while True:
                tile = steals[card].steal_front()
                if tile is None:
                    ready.put(None)
                    return
                nbytes = self.tile_input_bytes(tile, shipped_rows, shipped_cols)
                if nbytes:
                    t0 = sim.now
                    yield self.pack_s(nbytes)
                    trace.record(f"host_pack{card}", "pack", t0, sim.now)
                    yield from transfer(
                        links[card], nbytes, f"pcie{card}", "dma_in"
                    )
                ready.put(tile)
                # Double buffering: at most 2 tiles in flight ahead of the
                # card, like the paper's request queue.
                while len(ready) >= 2:
                    yield credit_events[card][0]

        def card_worker(card: int):
            ready = ready_queues[card]
            while True:
                tile = yield from ready.get()
                _pulse_credit(card)
                if tile is None:
                    out_queues[card].put(None)
                    return
                t0 = sim.now
                yield self.card_compute_s(tile)
                trace.record(f"knc{card}", "dgemm", t0, sim.now)
                if numeric:
                    compute_tile_numeric(tile, self.col_splits[card][0], True)
                stats["card_tiles"] += 1
                stats["card_flops"] += tile.flops(self.kt)
                out_queues[card].put(tile)

        def out_drainer(card: int):
            """DMA the result tiles back; accumulation pipelines behind."""
            while True:
                tile = yield from out_queues[card].get()
                if tile is None:
                    acc_queues[card].put(None)
                    return
                yield from transfer(
                    links[card], tile.output_bytes(), f"pcie{card}", "dma_out"
                )
                acc_queues[card].put(tile)

        def accumulator(card: int):
            """Fold returned tiles into C on the host (Step 10), running
            concurrently with further DMA."""
            while True:
                tile = yield from acc_queues[card].get()
                if tile is None:
                    return
                t0 = sim.now
                yield self.accumulate_s(tile)
                trace.record(f"host_acc{card}", "accumulate", t0, sim.now)

        def host_worker():
            if not self.host_assist:
                return
            while True:
                # Steal from the back of the half with the most work left.
                card = max(range(self.cards), key=lambda i: steals[i].remaining)
                tile = steals[card].steal_back()
                if tile is None:
                    return
                t0 = sim.now
                yield self.host_compute_s(tile)
                trace.record("snb", "dgemm", t0, sim.now)
                if numeric:
                    compute_tile_numeric(tile, self.col_splits[card][0], False)
                stats["host_tiles"] += 1
                stats["host_flops"] += tile.flops(self.kt)

        # Credit events let the packer respect the depth-2 queue.
        credit_events = [[sim.event()] for _ in range(self.cards)]
        ready_queues = [Store(sim) for _ in range(self.cards)]
        out_queues = [Store(sim) for _ in range(self.cards)]
        acc_queues = [Store(sim) for _ in range(self.cards)]

        def _pulse_credit(card: int) -> None:
            old = credit_events[card][0]
            credit_events[card][0] = sim.event()
            old.succeed()

        for card in range(self.cards):
            sim.process(packer(card), name=f"packer{card}")
            sim.process(card_worker(card), name=f"knc{card}")
            sim.process(out_drainer(card), name=f"drainer{card}")
            sim.process(accumulator(card), name=f"accumulator{card}")
        sim.process(host_worker(), name="snb")
        time_s = sim.run()

        total_flops = 2.0 * self.m * self.n * self.kt
        gflops = total_flops / time_s / 1e9
        peak = self.cards * KNC.peak_dp_gflops()  # all 61 cores (Section V)
        metrics = MetricsRegistry()
        metrics.counter("offload.tiles_card").inc(stats["card_tiles"])
        metrics.counter("offload.tiles_stolen_host").inc(stats["host_tiles"])
        metrics.counter("offload.pcie_bytes_in").inc(stats["pcie_bytes_in"])
        metrics.counter("offload.pcie_bytes_out").inc(stats["pcie_bytes_out"])
        for card in range(self.cards):
            ready_queues[card].publish_metrics(metrics, f"offload.queue.card{card}")
            links[card].publish_metrics(metrics, f"offload.link.card{card}")
        sim.publish_metrics(metrics)
        if numeric:
            self.pack_cache.publish(metrics)
            self.pool.publish(metrics)
        if self.executor is not None:
            self.executor.publish(metrics)
        return OffloadResult(
            m=self.m,
            n=self.n,
            kt=self.kt,
            cards=self.cards,
            time_s=time_s,
            gflops=gflops,
            efficiency=gflops / peak,
            tiles_card=stats["card_tiles"],
            tiles_host=stats["host_tiles"],
            card_flops=stats["card_flops"],
            host_flops=stats["host_flops"],
            trace=trace,
            metrics=metrics,
        )
