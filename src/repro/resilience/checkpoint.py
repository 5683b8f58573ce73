"""Panel-boundary checkpoint store for the distributed factorization.

Every rank serialises its restart state — local tiles, accumulated
pivots, progress cursor, comm epoch — at panel boundaries into a
:class:`CheckpointStore`. The store keeps each checkpoint as a byte
blob in a flat binary container (a JSON index of names/dtypes/shapes
followed by the raw array bytes — per-blob encode/decode is a memcpy,
an order of magnitude faster than an ``np.savez`` container), either
in memory (default:
rollback across in-process restart attempts) or on disk (``dir=...``:
survives the process). Saves and loads deep-copy through the
serialised bytes, so a restored state can never alias live rank
buffers.

State dicts may hold NumPy arrays, ``int``/``float`` scalars and flat
lists of arrays; :func:`pack_state` / :func:`unpack_state` do the
key-prefixed flattening (``a:`` array, ``s:`` scalar, ``l:`` list
element) so arbitrary combinations round-trip exactly — including
dtypes, which is what makes rollback-recovery bitwise reproducible.

Blobs additionally carry a :class:`LayoutHeader` — the block-cyclic
geometry ``(p, q, nb, n, dtype)`` the state was distributed under
(``h:`` keys). A resume that loads a checkpoint written under a
different geometry gets a :class:`CheckpointLayoutError` naming both
layouts instead of a downstream shape crash, and the elastic
redistribution engine (:mod:`repro.elastic`) reads the header to know
which relayout plan applies to a cut.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

#: Container magic of the flat binary blob encoding; a blob without it
#: is refused with :class:`CheckpointLayoutError`.
_BLOB_MAGIC = b"RCK1"


def _encode_flat(flat: Dict[str, np.ndarray]) -> bytes:
    """Serialise packed arrays: magic, JSON index, raw array bytes."""
    index = []
    chunks = []
    for name, value in flat.items():
        # asarray (not ascontiguousarray): 0-d scalars must stay 0-d.
        arr = np.asarray(value, order="C")
        data = arr.tobytes()
        index.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "nbytes": len(data),
        })
        chunks.append(data)
    head = json.dumps(index, separators=(",", ":")).encode()
    return b"".join(
        [_BLOB_MAGIC, len(head).to_bytes(8, "little"), head, *chunks]
    )


def _decode_flat(blob: bytes) -> Dict[str, np.ndarray]:
    """Invert :func:`_encode_flat` into fresh, writable arrays."""
    if blob[:4] != _BLOB_MAGIC:
        raise CheckpointLayoutError(
            f"not a checkpoint blob (magic {bytes(blob[:4])!r}, "
            f"expected {_BLOB_MAGIC!r})"
        )
    head_len = int.from_bytes(blob[4:12], "little")
    index = json.loads(blob[12:12 + head_len].decode())
    flat: Dict[str, np.ndarray] = {}
    offset = 12 + head_len
    for entry in index:
        data = blob[offset:offset + entry["nbytes"]]
        offset += entry["nbytes"]
        flat[entry["name"]] = (
            np.frombuffer(data, dtype=np.dtype(entry["dtype"]))
            .reshape(entry["shape"])
            .copy()
        )
    return flat


class CheckpointLayoutError(RuntimeError):
    """A checkpoint's recorded layout does not match the resuming run.

    Raised instead of letting a mismatched ``a_loc`` shape crash deep
    inside the factorization: the message names both the stored and the
    expected ``(p, q, nb, n, dtype)`` so the caller can tell a stale
    store from a grid mismatch — and knows to route through the elastic
    redistribution engine when the geometry changed on purpose.
    """


@dataclass(frozen=True)
class LayoutHeader:
    """The block-cyclic geometry a checkpoint blob was written under."""

    p: int
    q: int
    nb: int
    n: int
    dtype: str = "float64"

    def describe(self) -> str:
        """One human token: ``2x4 nb=16 n=96 float64``."""
        return f"{self.p}x{self.q} nb={self.nb} n={self.n} {self.dtype}"

    def to_flat(self) -> Dict[str, np.ndarray]:
        """The header as ``h:``-prefixed arrays for the blob codec."""
        return {
            "h:geometry": np.asarray([self.p, self.q, self.nb, self.n]),
            "h:dtype": np.asarray(self.dtype),
        }

    @classmethod
    def from_flat(cls, flat: Dict[str, np.ndarray]) -> "Optional[LayoutHeader]":
        """Read the header back from packed arrays (None if absent)."""
        if "h:geometry" not in flat:
            return None
        p, q, nb, n = (int(v) for v in np.asarray(flat["h:geometry"]))
        dtype = str(np.asarray(flat.get("h:dtype", "float64")))
        return cls(p=p, q=q, nb=nb, n=n, dtype=dtype)


def pack_state(
    state: Dict[str, object], layout: Optional[LayoutHeader] = None
) -> Dict[str, np.ndarray]:
    """Flatten a state dict into named arrays for the blob codec.

    ``layout`` (when given) rides along under reserved ``h:`` keys, so
    every blob knows the grid geometry it was written under.
    """
    flat: Dict[str, np.ndarray] = {}
    if layout is not None:
        flat.update(layout.to_flat())
    for key, value in state.items():
        if ":" in key:
            raise ValueError(f"state key {key!r} must not contain ':'")
        if value is None:
            continue
        if isinstance(value, np.ndarray):
            flat[f"a:{key}"] = value
        elif isinstance(value, (int, float, np.integer, np.floating)):
            flat[f"s:{key}"] = np.asarray(value)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                flat[f"l:{key}:{i}"] = np.asarray(item)
            flat[f"s:{key}#len"] = np.asarray(len(value))
        else:
            raise TypeError(f"unsupported checkpoint value for {key!r}")
    return flat


def unpack_state(flat: Dict[str, np.ndarray]) -> Dict[str, object]:
    """Invert :func:`pack_state` (lists come back as Python lists).

    Reserved ``h:`` header keys are metadata, not state — read them
    with :meth:`LayoutHeader.from_flat`; they never appear here.
    """
    state: Dict[str, object] = {}
    lists: Dict[str, Dict[int, np.ndarray]] = {}
    for name in flat:
        prefix, _, rest = name.partition(":")
        if prefix == "a":
            state[rest] = np.asarray(flat[name])
        elif prefix == "s":
            value = np.asarray(flat[name])
            if rest.endswith("#len"):
                state.setdefault(rest[: -len("#len")], [])
            else:
                state[rest] = value.item()
        elif prefix == "l":
            key, _, idx = rest.rpartition(":")
            lists.setdefault(key, {})[int(idx)] = np.asarray(flat[name])
    for key, items in lists.items():
        state[key] = [items[i] for i in sorted(items)]
    return state


class CheckpointStats:
    """Thread-safe save/restore accounting for one store."""

    def __init__(self):
        self._lock = threading.Lock()
        self.saves = 0
        self.bytes_saved = 0
        self.save_time_s = 0.0
        self.restores = 0
        self.bytes_restored = 0

    def record_save(self, nbytes: int, seconds: float) -> None:
        """Count one checkpoint write of ``nbytes``."""
        with self._lock:
            self.saves += 1
            self.bytes_saved += nbytes
            self.save_time_s += seconds

    def record_restore(self, nbytes: int) -> None:
        """Count one checkpoint read of ``nbytes``."""
        with self._lock:
            self.restores += 1
            self.bytes_restored += nbytes

    def snapshot(self) -> Dict[str, object]:
        """The counters as a plain dict."""
        with self._lock:
            return {
                "checkpoints": self.saves,
                "checkpoint_bytes": self.bytes_saved,
                "checkpoint_time_s": self.save_time_s,
                "restores": self.restores,
                "restored_bytes": self.bytes_restored,
            }


class CheckpointStore:
    """Keyed (rank, cursor) checkpoint blobs, in memory or on disk.

    ``cursor`` is the factorization's progress marker (the next stage
    index): a checkpoint at cursor ``k`` captures a rank's state with
    every stage ``< k`` fully applied. :meth:`latest_complete` finds the
    newest cursor at which *every* rank saved — the consistent cut a
    restart rolls back to.
    """

    def __init__(self, dir: Optional[str] = None):
        self.dir = dir
        if dir is not None:
            os.makedirs(dir, exist_ok=True)
        self._blobs: Dict[tuple, bytes] = {}
        self._lock = threading.Lock()
        self.stats = CheckpointStats()

    def _path(self, rank: int, cursor: int) -> str:
        return os.path.join(self.dir, f"ckpt_r{rank}_c{cursor}.npz")

    def save(
        self,
        rank: int,
        cursor: int,
        state: Dict[str, object],
        layout: Optional[LayoutHeader] = None,
    ) -> int:
        """Serialise ``state`` for ``(rank, cursor)``; returns bytes.

        ``layout`` records the block-cyclic geometry inside the blob,
        letting :meth:`load` refuse a mismatched resume.
        """
        t0 = time.perf_counter()
        blob = _encode_flat(pack_state(state, layout=layout))
        if self.dir is not None:
            with open(self._path(rank, cursor), "wb") as fh:
                fh.write(blob)
        with self._lock:
            self._blobs[(rank, cursor)] = blob
        self.stats.record_save(len(blob), time.perf_counter() - t0)
        return len(blob)

    def _read_flat(self, rank: int, cursor: int) -> Dict[str, np.ndarray]:
        with self._lock:
            blob = self._blobs.get((rank, cursor))
        if blob is None and self.dir is not None:
            path = self._path(rank, cursor)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    blob = fh.read()
        if blob is None:
            raise KeyError(f"no checkpoint for rank {rank} at cursor {cursor}")
        flat = _decode_flat(blob)
        self.stats.record_restore(len(blob))
        return flat

    def load(
        self,
        rank: int,
        cursor: int,
        expect_layout: Optional[LayoutHeader] = None,
    ) -> Dict[str, object]:
        """Deserialise the ``(rank, cursor)`` state (fresh copies).

        With ``expect_layout``, a blob written under any *other*
        recorded geometry raises :class:`CheckpointLayoutError` —
        blobs saved without a layout still load (nothing to check
        against).
        """
        flat = self._read_flat(rank, cursor)
        if expect_layout is not None:
            stored = LayoutHeader.from_flat(flat)
            if stored is not None and stored != expect_layout:
                raise CheckpointLayoutError(
                    f"checkpoint for rank {rank} at cursor {cursor} was "
                    f"written under layout {stored.describe()} but this run "
                    f"expects {expect_layout.describe()}; redistribute the "
                    "cut (repro.elastic) or resume on the original grid"
                )
        return unpack_state(flat)

    def layout(self, rank: int, cursor: int) -> Optional[LayoutHeader]:
        """The layout header of one blob (None if saved without one)."""
        return LayoutHeader.from_flat(self._read_flat(rank, cursor))

    def cursors(self, rank: int) -> List[int]:
        """Sorted cursors this rank has checkpoints for."""
        with self._lock:
            found = {c for (r, c) in self._blobs if r == rank}
        if self.dir is not None and os.path.isdir(self.dir):
            prefix, suffix = f"ckpt_r{rank}_c", ".npz"
            for name in os.listdir(self.dir):
                if name.startswith(prefix) and name.endswith(suffix):
                    found.add(int(name[len(prefix): -len(suffix)]))
        return sorted(found)

    def latest_complete(self, world_size: int) -> Optional[int]:
        """Newest cursor checkpointed by all ``world_size`` ranks."""
        common: Optional[set] = None
        for rank in range(world_size):
            mine = set(self.cursors(rank))
            common = mine if common is None else (common & mine)
            if not common:
                return None
        return max(common) if common else None
