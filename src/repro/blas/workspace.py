"""Pack-once workspace: a cache of packed tile panels.

The paper's DGEMM amortizes the Knights Corner tile packing over many
outer products (Section III-A, Figure 3), and its hybrid scheme keeps
resident panels on the card so each is shipped — and packed — once
(Figure 10). The functional layer's analogue is :class:`PackCache`:
callers name an operand slice with a key (``("lu.l21", stage)``,
``("offload.a", r0, r1)``, ...) and the cache packs it on first use,
then serves the same :class:`~repro.blas.packing.PackedA` /
:class:`~repro.blas.packing.PackedB` to every later consumer — the
blocked LU's trailing updates all reuse one packed L21 panel per stage
instead of re-packing it for every trailing tile.

Staleness is handled two ways:

* **explicit invalidation** — :meth:`PackCache.invalidate` drops a
  key's entries (or everything); the LU workspace calls it when a
  stage's panel is dead;
* **validation on hit** — entries remember a deterministic sample of
  the source values (corners plus a strided interior sample); a
  mismatch is counted as a stale eviction and the slice is re-packed.

The cache is thread-safe: the LU tile executor may ask for the same
panel from several workers at once, and exactly one of them packs
(deterministic hit/miss counts at any worker count).

Counters (also published to a :class:`~repro.obs.metrics.MetricsRegistry`
via :meth:`PackCache.publish`): ``blas.pack_cache.hits`` / ``.misses`` /
``.stale_evictions`` / ``.bytes_packed`` / ``.uncached_packs``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.blas.packing import TILE_A_ROWS, TILE_B_COLS, PackedA, PackedB, pack_a, pack_b

#: Sample points per axis probed on every cache hit.
_SAMPLE_PER_AXIS = 4


def _sample_indices(shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic probe coordinates: the four corners plus an evenly
    strided interior grid — cheap, and guaranteed to include element
    (0, 0), which mutation tests and real LU pivoting touch first."""
    m, n = shape
    ri = np.unique(np.linspace(0, m - 1, _SAMPLE_PER_AXIS, dtype=np.int64))
    ci = np.unique(np.linspace(0, n - 1, _SAMPLE_PER_AXIS, dtype=np.int64))
    rows = np.repeat(ri, len(ci))
    cols = np.tile(ci, len(ri))
    return rows, cols


class _Entry:
    """One cached packed slice plus the evidence to detect staleness."""

    __slots__ = ("packed", "sample_rows", "sample_cols", "sample_vals")

    def __init__(self, packed, src: np.ndarray):
        self.packed = packed
        self.sample_rows, self.sample_cols = _sample_indices(src.shape)
        self.sample_vals = src[self.sample_rows, self.sample_cols].copy()

    def is_fresh(self, src: np.ndarray) -> bool:
        return bool(
            np.array_equal(src[self.sample_rows, self.sample_cols], self.sample_vals)
        )


class PackCache:
    """Keyed cache of packed A/B panels with explicit invalidation.

    ``alloc(shape, dtype)`` / ``free(array)`` override where *cached*
    panels live: the process executor passes a shared-arena allocator
    so worker processes can address the packed tiles by
    :class:`~repro.parallel.shm.ArrayRef`, and the matching ``free`` is
    called with each panel's backing array as its entry is invalidated
    or evicted (uncached one-shot packs stay ordinary NumPy memory —
    nothing would ever free them).
    """

    def __init__(self, alloc=None, free=None):
        self._alloc_fn = alloc
        self._free_fn = free
        self._entries: Dict[tuple, _Entry] = {}
        self._lock = threading.RLock()
        # -- counters ----------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0
        self.bytes_packed = 0
        self.uncached_packs = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- packing ---------------------------------------------------------------
    def pack_a(
        self, a: np.ndarray, key=None, tile_rows: int = TILE_A_ROWS
    ) -> PackedA:
        """Packed-A for ``a``; cached under ``key`` when one is given."""
        return self._get("A", a, key, tile_rows, pack_a)

    def pack_b(
        self, b: np.ndarray, key=None, tile_cols: int = TILE_B_COLS
    ) -> PackedB:
        """Packed-B for ``b``; cached under ``key`` when one is given."""
        return self._get("B", b, key, tile_cols, pack_b)

    def _get(self, side: str, src: np.ndarray, key, tile_dim: int, packer):
        src = np.asarray(src)
        if key is None:
            packed = packer(src, tile_dim)
            with self._lock:
                self.uncached_packs += 1
                self.bytes_packed += packed.data.nbytes
            return packed
        # The full key pins geometry so a reused name with a different
        # slice shape/dtype can never produce a false hit.
        full_key = (side, key, src.shape, src.dtype.str, tile_dim)
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is not None:
                if entry.is_fresh(src):
                    self.hits += 1
                    return entry.packed
                self.stale_evictions += 1
                del self._entries[full_key]
                self._free_entry(entry)
            packed = packer(src, tile_dim, alloc=self._alloc_fn)
            self._entries[full_key] = _Entry(packed, src)
            self.misses += 1
            self.bytes_packed += packed.data.nbytes
            return packed

    # -- invalidation ----------------------------------------------------------
    @staticmethod
    def _key_matches(cached, key) -> bool:
        """True when ``cached`` is ``key`` itself or a k-slice of it.

        The GEMM driver caches each ``k_block`` slice of an operand
        under ``(user_key, k0)``, so invalidating the user's key must
        drop every slice."""
        if cached == key:
            return True
        return (
            isinstance(cached, tuple) and len(cached) == 2 and cached[0] == key
        )

    def _free_entry(self, entry: "_Entry") -> None:
        """Release a dropped entry's backing array (lock held)."""
        if self._free_fn is None:
            return
        packed = entry.packed
        backing = getattr(packed, "panel", None)
        if backing is None:
            backing = packed.data
        self._free_fn(backing)

    def invalidate(self, key=None) -> int:
        """Drop every entry cached under ``key`` — including the
        per-k-slice ``(key, k0)`` entries the GEMM driver creates — on
        both sides and at every geometry; with no key, clear the whole
        cache. Returns the number of entries dropped."""
        with self._lock:
            if key is None:
                dropped = list(self._entries.values())
                self._entries.clear()
                for entry in dropped:
                    self._free_entry(entry)
                return len(dropped)
            doomed = [fk for fk in self._entries if self._key_matches(fk[1], key)]
            for fk in doomed:
                entry = self._entries.pop(fk)
                self._free_entry(entry)
            return len(doomed)

    # -- observability ---------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """The cache counters, keyed by their metric names."""
        with self._lock:
            return {
                "blas.pack_cache.hits": self.hits,
                "blas.pack_cache.misses": self.misses,
                "blas.pack_cache.stale_evictions": self.stale_evictions,
                "blas.pack_cache.bytes_packed": self.bytes_packed,
                "blas.pack_cache.uncached_packs": self.uncached_packs,
            }

    def publish(self, metrics) -> None:
        """Copy the cache counters into a MetricsRegistry."""
        if metrics is None:
            return
        for name, value in self.counters().items():
            metrics.counter(name).inc(value)
        metrics.gauge("blas.pack_cache.entries").set(len(self))

    def __repr__(self) -> str:
        return (
            f"PackCache({len(self)} entries, {self.hits} hits, "
            f"{self.misses} misses, {self.stale_evictions} stale)"
        )
