"""In-process message passing: the MPI stand-in for multi-node runs.

Each rank runs in its own thread; point-to-point messages travel through
per-(source, destination) FIFO queues with tag matching, mirroring the
mpi4py calls the real system would use (``send``/``recv``/``sendrecv``,
``isend``/``irecv``, ``bcast``, ``gather``, ``barrier``, ``allreduce``).
NumPy payloads are copied on send, so ranks never alias each other's
buffers — the same isolation a real network gives.

Non-blocking transfers power the multi-node look-ahead schedule:
``isend`` hands the message to a per-rank background sender thread and
returns a :class:`Request` immediately, so the payload copy, optional
segmentation and enqueue all drain while the rank's NumPy compute
proceeds (BLAS releases the GIL, so the overlap is real wall-clock).
``irecv`` returns a :class:`Request` whose ``wait`` collects the
message; messages that arrived while the rank was computing complete
instantly. As in MPI, the send buffer must not be mutated until the
request completes — every payload our callers post is a fresh copy.

Chunked (segmented) transfers: ``isend(..., chunk_bytes=...)`` splits
large ndarray components of the payload into segments that travel as
individual messages and are reassembled transparently on the receive
side — the transport HPL's segmented ("ring-modified") broadcast
pipelines around process rows.

Every communicator records traffic statistics (messages and bytes by
operation — each byte counted exactly once) plus overlap accounting:
``wait_s`` (time the rank thread was blocked receiving or waiting on
requests), ``drain_s`` (background sender busy time) and ``hidden_s``
(the portion of drain time that never blocked compute).

Send-side staging: every communicator owns a
:class:`~repro.blas.buffers.BufferPool`, and the segments of a chunked
transfer are staged in buffers rented from the sender's arena instead
of freshly allocated per isend; the receiver returns each segment to
the owning pool after reassembly. ``CommStats`` splits the payload
accounting into ``staged_bytes`` (pooled staging) vs ``copied_bytes``
(fresh deep copies), so overlap accounting distinguishes reused
staging from true allocation.

Determinism and safety: queue operations use a global timeout so a
deadlocked exchange fails the test with :class:`CommError` instead of
hanging, and ``World.run`` re-raises the first rank exception.

Hardened (resilient) mode: constructing the world with a
:class:`~repro.resilience.faults.FaultInjector` and/or a
:class:`~repro.resilience.retry.RetryPolicy` turns the wire into a
reliable channel. Every message travels inside a sequenced,
checksummed ``_Envelope``; receivers discard duplicates, reorder past
gaps, detect bit-flip corruption and request targeted resends from the
sender's retained send window. Blocking receives run the retry state
machine — timeout slices with exponential backoff, bounded resend
rounds — and fail with the typed :class:`CommTimeout` /
:class:`CommCorruption` / :class:`RankDeadError` taxonomy instead of
hanging. Fault-free construction (no injector, no policy) keeps the
original zero-overhead wire format byte for byte.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.blas.buffers import BufferPool
from repro.resilience.retry import CommResilienceStats, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover — hints only
    from repro.obs.metrics import MetricsRegistry
    from repro.resilience.faults import FaultInjector

#: Seconds a blocking receive waits before declaring a deadlock.
DEFAULT_TIMEOUT_S = 60.0

#: Default segment size for chunked transfers (the CLI's ``--chunk-kb``).
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Pump granularity of the reliable receive loop: how often a blocked
#: rank re-checks the dead-rank registry and its retry deadline.
_POLL_SLICE_S = 0.05

#: Envelopes a sender retains per (dest, tag) channel for resends.
_SEND_WINDOW = 512


class CommError(RuntimeError):
    """A communication failure (timeout / mismatched exchange)."""


class CommTimeout(CommError):
    """A reliable receive exhausted its retry budget without data."""


class CommCorruption(CommError):
    """A payload checksum mismatch that retries could not heal."""


class RankDeadError(CommError):
    """The peer rank died (its thread exited with an exception)."""


@dataclass
class CommStats:
    """Traffic and overlap accounting for one rank.

    Byte counts are single-attribution: every byte a rank puts on the
    wire lands in ``bytes_sent`` once and in exactly one ``by_op``
    bucket (``send`` for point-to-point, the collective's name for
    collective traffic), so ``sum(by_op.values()) == bytes_sent``.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    by_op: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Payload bytes staged through pooled (reused) send buffers.
    staged_bytes: int = 0
    #: Payload bytes that went out as fresh deep copies.
    copied_bytes: int = 0
    #: Wall time the rank thread spent blocked in recv/wait (exposed comm).
    wait_s: float = 0.0
    #: Background sender busy time (copy + segment + enqueue).
    drain_s: float = 0.0
    #: Portion of drain time that did not block the compute thread.
    hidden_s: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, op: str, nbytes: int) -> None:
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += nbytes
            self.by_op[op] += nbytes

    def record_staging(self, staged: int = 0, copied: int = 0) -> None:
        """Attribute payload bytes to pooled staging vs fresh copies."""
        with self._lock:
            self.staged_bytes += staged
            self.copied_bytes += copied

    def add_wait(self, seconds: float) -> None:
        with self._lock:
            self.wait_s += seconds

    def add_drain(self, seconds: float) -> None:
        with self._lock:
            self.drain_s += seconds

    def add_hidden(self, seconds: float) -> None:
        with self._lock:
            self.hidden_s += seconds

    def overlap_snapshot(self) -> Dict[str, float]:
        """The three overlap figures as a plain dict (for gathers)."""
        with self._lock:
            return {
                "wait_s": self.wait_s,
                "drain_s": self.drain_s,
                "hidden_s": self.hidden_s,
            }

    def publish(self, registry: "MetricsRegistry", prefix: str = "comm") -> None:
        """Write this rank's traffic accounting into ``registry``."""
        registry.counter(f"{prefix}.messages").inc(self.messages_sent)
        registry.counter(f"{prefix}.bytes").inc(self.bytes_sent)
        for op in sorted(self.by_op):
            registry.counter(f"{prefix}.bytes.{op}").inc(self.by_op[op])
        registry.counter(f"{prefix}.staged_bytes").inc(self.staged_bytes)
        registry.counter(f"{prefix}.copied_bytes").inc(self.copied_bytes)
        registry.gauge(f"{prefix}.overlap.wait_s").set(self.wait_s)
        registry.gauge(f"{prefix}.overlap.drain_s").set(self.drain_s)
        registry.gauge(f"{prefix}.overlap.hidden_s").set(self.hidden_s)


def _payload_bytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    return 64  # headers / scalars / pickled small objects


def _copy(obj: Any) -> Any:
    """Deep-copy NumPy content so ranks cannot alias buffers."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy(x) for x in obj)
    if isinstance(obj, list):
        return [_copy(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _copy(v) for k, v in obj.items()}
    return obj


# -- reliable-channel wire format -----------------------------------------------


class _Envelope:
    """Resilient-mode wire frame: per-(src, dest, tag) sequence number
    plus a CRC32 over the payload's array bytes."""

    __slots__ = ("seq", "checksum", "payload")

    def __init__(self, seq: int, checksum: int, payload: Any):
        self.seq = seq
        self.checksum = checksum
        self.payload = payload


def _arrays_in(obj: Any):
    """Yield every ndarray in a wire payload in deterministic order."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, _ChunkSeg):
        yield obj.part
    elif isinstance(obj, _ChunkHeader):
        yield from _arrays_in(obj.skeleton)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _arrays_in(x)
    elif isinstance(obj, dict):
        for key in obj:
            yield from _arrays_in(obj[key])


def _checksum(obj: Any) -> int:
    """CRC32 over the array content of one wire payload."""
    acc = 0
    for arr in _arrays_in(obj):
        acc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), acc)
    return acc


def _wire_copy(msg: Any) -> Any:
    """Deep-copy a wire payload for duplicate/corrupt/resend delivery.

    The copy never references a buffer pool, so discarding it (dedup,
    abort drain) can never double-release staged arena memory.
    """
    if isinstance(msg, _ChunkSeg):
        return _ChunkSeg(msg.arr_idx, msg.seg_idx, msg.part.copy(), None)
    if isinstance(msg, _ChunkHeader):
        return _ChunkHeader(_copy(msg.skeleton), list(msg.plans))
    return _copy(msg)


def _release_wire(payload: Any) -> None:
    """Hand a drained, undelivered message's pooled staging back."""
    if isinstance(payload, _ChunkSeg) and payload.pool is not None:
        payload.pool.release(payload.part)


# -- chunked (segmented) transfer protocol --------------------------------------


class _Slot:
    """Placeholder for a chunked array inside a payload skeleton."""

    __slots__ = ("idx",)

    def __init__(self, idx: int):
        self.idx = idx


class _ChunkHeader:
    """First message of a segmented transfer: payload skeleton + plans."""

    __slots__ = ("skeleton", "plans")

    def __init__(self, skeleton: Any, plans: List[Tuple[tuple, np.dtype, int]]):
        self.skeleton = skeleton
        self.plans = plans  # per array: (shape, dtype, n_segments)


class _ChunkSeg:
    """One segment of one chunked array. ``pool`` names the sender's
    arena the part was staged in (None for a fresh copy); the receiver
    returns pooled parts after reassembly."""

    __slots__ = ("arr_idx", "seg_idx", "part", "pool")

    def __init__(
        self,
        arr_idx: int,
        seg_idx: int,
        part: np.ndarray,
        pool: Optional[BufferPool] = None,
    ):
        self.arr_idx = arr_idx
        self.seg_idx = seg_idx
        self.part = part
        self.pool = pool


def _encode_chunks(obj: Any, chunk_bytes: int, pool: Optional[BufferPool] = None):
    """Split large ndarray components of ``obj`` into segments.

    Returns ``(header, segments)`` or ``None`` when nothing in the
    payload is big enough to be worth segmenting. With ``pool`` the
    segment buffers are rented from the sender's arena (released by the
    receiver after reassembly) instead of freshly copied per isend.
    """
    arrays: List[np.ndarray] = []

    def walk(x: Any) -> Any:
        if isinstance(x, np.ndarray):
            if x.nbytes > chunk_bytes:
                arrays.append(x)
                return _Slot(len(arrays) - 1)
            return x.copy()
        if isinstance(x, tuple):
            return tuple(walk(v) for v in x)
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        return x

    skeleton = walk(obj)
    if not arrays:
        return None
    plans: List[Tuple[tuple, np.dtype, int]] = []
    segments: List[_ChunkSeg] = []
    for ai, arr in enumerate(arrays):
        flat = np.ascontiguousarray(arr).reshape(-1)
        per_seg = max(1, chunk_bytes // max(1, arr.itemsize))
        nseg = -(-flat.size // per_seg)
        plans.append((arr.shape, arr.dtype, nseg))
        for si in range(nseg):
            src = flat[si * per_seg : (si + 1) * per_seg]
            if pool is not None:
                part = pool.checkout(src.shape, src.dtype, key="comm.segment")
                np.copyto(part, src)
            else:
                part = src.copy()
            segments.append(_ChunkSeg(ai, si, part, pool))
    return _ChunkHeader(skeleton, plans), segments


class _PartialMessage:
    """Receive-side reassembly state for one segmented transfer."""

    def __init__(self, header: _ChunkHeader):
        self.header = header
        self.parts: List[List[Optional[np.ndarray]]] = [
            [None] * nseg for (_shape, _dtype, nseg) in header.plans
        ]
        self.remaining = sum(nseg for (_s, _d, nseg) in header.plans)
        #: Pooled segments to hand back to their sender's arena once the
        #: reassembled copy exists.
        self._pooled: List[Tuple[BufferPool, np.ndarray]] = []

    def add(self, seg: _ChunkSeg) -> bool:
        """Store one segment; True when the transfer is complete."""
        if self.parts[seg.arr_idx][seg.seg_idx] is not None:
            raise CommError("duplicate chunk segment")
        self.parts[seg.arr_idx][seg.seg_idx] = seg.part
        if seg.pool is not None:
            self._pooled.append((seg.pool, seg.part))
        self.remaining -= 1
        return self.remaining == 0

    def assemble(self) -> Any:
        arrays = []
        for parts, (shape, dtype, _nseg) in zip(self.parts, self.header.plans):
            if len(parts) == 1:
                # A single-segment transfer may hand us pool memory
                # directly; copy so the receiver never aliases the arena.
                flat = parts[0] if not self._pooled else parts[0].copy()
            else:
                flat = np.concatenate(parts)
            arrays.append(flat.astype(dtype, copy=False).reshape(shape))
        # The concatenated copies above are receiver-owned; the staged
        # segments go back to the sender's arena.
        for pool, part in self._pooled:
            pool.release(part)
        self._pooled.clear()

        def unwalk(x: Any) -> Any:
            if isinstance(x, _Slot):
                return arrays[x.idx]
            if isinstance(x, tuple):
                return tuple(unwalk(v) for v in x)
            if isinstance(x, list):
                return [unwalk(v) for v in x]
            if isinstance(x, dict):
                return {k: unwalk(v) for k, v in x.items()}
            return x

        return unwalk(self.header.skeleton)

    def cancel(self) -> None:
        """Abort the reassembly: return staged segments to their
        sender's arena and drop the partial state."""
        for pool, part in self._pooled:
            pool.release(part)
        self._pooled.clear()
        self.parts = []
        self.remaining = 0


# -- requests -------------------------------------------------------------------


class Request:
    """Handle for an in-flight non-blocking operation (MPI_Request)."""

    def wait(self, timeout: Optional[float] = None) -> Any:  # pragma: no cover
        raise NotImplementedError

    def test(self) -> bool:  # pragma: no cover
        raise NotImplementedError


class SendRequest(Request):
    """Completion handle for :meth:`Comm.isend`.

    The message drains (payload copy, segmentation, enqueue) on the
    communicator's background sender thread; ``wait`` blocks until the
    drain finished and credits the non-blocking portion to
    ``CommStats.hidden_s``.
    """

    def __init__(self, comm: "Comm"):
        self._comm = comm
        self._event = threading.Event()
        self._error: Optional[BaseException] = None
        self._accounted = False
        self.drain_s = 0.0

    def test(self) -> bool:
        done = self._event.is_set()
        if done:
            self._settle(blocked=0.0)
        return done

    def wait(self, timeout: Optional[float] = None) -> None:
        limit = self._comm.world.timeout_s if timeout is None else timeout
        t0 = time.perf_counter()
        if not self._event.wait(limit):
            raise CommError(
                f"rank {self._comm.rank}: isend did not complete within {limit}s"
            )
        if self._error is not None:
            raise self._error
        blocked = time.perf_counter() - t0
        self._comm.stats.add_wait(blocked)
        self._settle(blocked)

    def _settle(self, blocked: float) -> None:
        if not self._accounted and self._error is None:
            self._accounted = True
            self._comm.stats.add_hidden(max(0.0, self.drain_s - blocked))


class RecvRequest(Request):
    """Completion handle for :meth:`Comm.irecv`.

    Matching is lazy: ``test`` polls the mailbox without blocking;
    ``wait`` blocks until the message (all segments of a chunked
    transfer) has arrived and returns the payload. A message that landed
    while the rank was computing completes with no blocked time.
    """

    def __init__(self, comm: "Comm", source: int, tag: int):
        self._comm = comm
        self.source = source
        self.tag = tag
        self._value: Any = None
        self._done = False

    def test(self) -> bool:
        if self._done:
            return True
        comm = self._comm
        key = (self.source, self.tag)
        while True:
            q = comm._stash.get(key)
            if q:
                self._value = q.popleft()
                self._done = True
                return True
            if not comm._pump(self.source, timeout=None):
                return False

    def wait(self, timeout: Optional[float] = None) -> Any:
        if self._done:
            return self._value
        if self.test():  # already arrived: fully hidden receive
            return self._value
        comm = self._comm
        if comm.world.retry is not None and timeout is None:
            # Hardened channel: run the retry/timeout state machine
            # instead of the single long block.
            self._value = comm._recv_reliable(self.source, self.tag)
            self._done = True
            return self._value
        key = (self.source, self.tag)
        limit = comm.world.timeout_s if timeout is None else timeout
        t0 = time.perf_counter()
        while True:
            if not comm._pump(self.source, timeout=limit):
                raise CommError(
                    f"rank {comm.rank} timed out waiting for tag {self.tag} "
                    f"from {self.source}"
                )
            q = comm._stash.get(key)
            if q:
                self._value = q.popleft()
                self._done = True
                comm.stats.add_wait(time.perf_counter() - t0)
                return self._value


def waitall(requests: Sequence[Request], timeout: Optional[float] = None) -> List[Any]:
    """Wait on every request; returns their values (None for sends)."""
    return [r.wait(timeout) for r in requests]


class World:
    """A fixed-size set of ranks with mailboxes and barrier state.

    ``injector`` / ``retry`` switch the wire into resilient mode (see
    the module docstring): an injector without an explicit policy gets
    the default :class:`~repro.resilience.retry.RetryPolicy`, so every
    injected fault is met by the full heal machinery.
    """

    def __init__(
        self,
        size: int,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        injector: Optional["FaultInjector"] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if size < 1:
            raise ValueError("world size must be positive")
        self.size = size
        self.timeout_s = timeout_s
        self.injector = injector
        if injector is not None and retry is None:
            retry = RetryPolicy()
        self.retry = retry
        #: Resilient mode: messages travel in sequenced, checksummed
        #: envelopes and receives run the retry state machine.
        self.resilient = retry is not None
        self._dead: set = set()
        self._dead_lock = threading.Lock()
        #: Per-rank exception of the last :meth:`run` (None = clean).
        self._errors: List[Optional[BaseException]] = [None] * size
        self._closed = False
        self._boxes: Dict[Tuple[int, int], queue.Queue] = {
            (s, d): queue.Queue() for s in range(size) for d in range(size)
        }
        self._barrier = threading.Barrier(size)
        self.comms = [Comm(self, rank) for rank in range(size)]

    def declare_dead(self, rank: int) -> None:
        """Mark a rank as failed so peers stop waiting on it."""
        with self._dead_lock:
            self._dead.add(rank)

    def is_dead(self, rank: int) -> bool:
        """Whether ``rank`` has been declared failed."""
        with self._dead_lock:
            return rank in self._dead

    def crashed_ranks(self) -> List[int]:
        """Ranks whose body raised a *root-cause* (non-comm) exception
        in the last :meth:`run` — the genuinely dead ranks, excluding
        survivors that only cascaded into secondary timeouts. This is
        what shrink-to-survivors recovery sizes its new grid by."""
        return sorted(
            r
            for r, exc in enumerate(self._errors)
            if exc is not None and not isinstance(exc, CommError)
        )

    def run(self, fn: Callable, *args, **kwargs) -> List[Any]:
        """SPMD-launch ``fn(comm, *args, **kwargs)`` on every rank and
        return the per-rank results.

        On failure the root cause wins: a non-:class:`CommError` rank
        exception (e.g. an injected crash) is re-raised in preference to
        the secondary timeouts/dead-peer errors it cascades into on the
        surviving ranks.
        """
        results: List[Any] = [None] * self.size
        errors: List[Optional[BaseException]] = [None] * self.size
        self._errors = errors

        def runner(rank: int) -> None:
            try:
                results[rank] = fn(self.comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors[rank] = exc
                self.declare_dead(rank)
                self._barrier.abort()

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(self.size)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=self.timeout_s * 4)
                if t.is_alive():
                    raise CommError("rank thread did not terminate (deadlock?)")
        finally:
            for comm in self.comms:
                comm._shutdown_tx()
        first_comm_error: Optional[BaseException] = None
        for exc in errors:
            if exc is None:
                continue
            if isinstance(exc, CommError):
                if first_comm_error is None:
                    first_comm_error = exc
            else:
                raise exc
        if first_comm_error is not None:
            raise first_comm_error
        return results

    def close(self) -> None:
        """Idempotent teardown for aborted (or finished) runs: close
        every rank's communicator — stopping sender threads, cancelling
        partial transfers, clearing stashes — then drain the mailboxes,
        returning any staged segments still in flight to their arenas.
        """
        if self._closed:
            return
        self._closed = True
        for comm in self.comms:
            comm.close()
        for box in self._boxes.values():
            while True:
                try:
                    _tag, payload = box.get_nowait()
                except queue.Empty:
                    break
                _release_wire(payload)

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Comm:
    """One rank's endpoint."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.stats = CommStats()
        #: Send-side staging arena, one per rank so ranks never contend;
        #: the distinct name keeps its published counters separate from
        #: the compute pools'.
        self.pool = BufferPool(name="comm.buffer_pool")
        #: Reassembled messages awaiting a matching recv, FIFO per
        #: (source, tag) — O(1) under heavy tag traffic.
        self._stash: Dict[Tuple[int, int], Deque[Any]] = {}
        #: In-progress segmented transfers, per (source, tag).
        self._partial: Dict[Tuple[int, int], _PartialMessage] = {}
        self._tx_queue: Optional[queue.Queue] = None
        self._tx_thread: Optional[threading.Thread] = None
        self._tx_lock = threading.Lock()
        self._closed = False
        #: Reliable-channel accounting (always present; populated only
        #: in resilient mode).
        self.rstats = CommResilienceStats()
        # Reliable-channel state: send-side sequence counters and the
        # retained resend window per (dest, tag); receive-side expected
        # sequence, out-of-order buffer and pending-resend markers per
        # (source, tag).
        self._wire_lock = threading.Lock()
        self._out_seq: Dict[Tuple[int, int], int] = {}
        self._sent: Dict[Tuple[int, int], Deque[_Envelope]] = {}
        self._in_seq: Dict[Tuple[int, int], int] = {}
        self._reorder: Dict[Tuple[int, int], Dict[int, _Envelope]] = {}
        self._resend_pending: Dict[Tuple[int, int], int] = {}

    @property
    def size(self) -> int:
        return self.world.size

    def close(self) -> None:
        """Idempotent endpoint teardown: stop the background sender,
        cancel partial transfers (returning staged segments to their
        arenas) and clear the stash and reliable-channel windows. Safe
        to call from the driver's error path mid-transfer."""
        if self._closed:
            return
        self._closed = True
        self._shutdown_tx()
        for partial in self._partial.values():
            partial.cancel()
        self._partial.clear()
        self._stash.clear()
        with self._wire_lock:
            self._out_seq.clear()
            self._sent.clear()
            self._in_seq.clear()
            self._reorder.clear()
            self._resend_pending.clear()

    def __enter__(self) -> "Comm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- background sender ------------------------------------------------------
    def _ensure_tx(self) -> None:
        with self._tx_lock:
            if self._tx_thread is None or not self._tx_thread.is_alive():
                self._tx_queue = queue.Queue()
                self._tx_thread = threading.Thread(
                    target=self._tx_main, args=(self._tx_queue,), daemon=True
                )
                self._tx_thread.start()

    def _shutdown_tx(self) -> None:
        with self._tx_lock:
            thread, q = self._tx_thread, self._tx_queue
            self._tx_thread = None
            self._tx_queue = None
        if thread is not None and thread.is_alive():
            q.put(None)
            thread.join(timeout=5.0)

    def _tx_main(self, q: queue.Queue) -> None:
        while True:
            item = q.get()
            if item is None:
                return
            obj, dest, tag, chunk_bytes, op, req = item
            t0 = time.perf_counter()
            try:
                self._deliver(obj, dest, tag, chunk_bytes, op)
            except BaseException as exc:  # noqa: BLE001 — re-raised at wait()
                req._error = exc
            req.drain_s = time.perf_counter() - t0
            self.stats.add_drain(req.drain_s)
            req._event.set()

    def _deliver(
        self, obj: Any, dest: int, tag: int, chunk_bytes: Optional[int], op: str
    ) -> None:
        """Copy (or stage), optionally segment, account and enqueue one
        message."""
        injector = self.world.injector
        if injector is not None:
            delay = injector.send_delay(self.rank)
            if delay > 0.0:
                time.sleep(delay)
        if chunk_bytes:
            # In resilient mode segments are fresh copies, never pooled
            # staging: dedup-discard, abort drains and resends can then
            # never double-release arena memory.
            stage_pool = None if self.world.resilient else self.pool
            encoded = _encode_chunks(obj, chunk_bytes, pool=stage_pool)
            if encoded is not None:
                header, segments = encoded
                skeleton_bytes = _payload_bytes(header.skeleton)
                self.stats.record(op, skeleton_bytes)
                self.stats.record_staging(copied=skeleton_bytes)
                self._put_wire(dest, tag, header, op)
                for seg in segments:
                    self.stats.record(op, seg.part.nbytes)
                    if seg.pool is not None:
                        self.stats.record_staging(staged=seg.part.nbytes)
                    else:
                        self.stats.record_staging(copied=seg.part.nbytes)
                    self._put_wire(dest, tag, seg, op)
                return
        payload = _copy(obj)
        nbytes = _payload_bytes(payload)
        self.stats.record(op, nbytes)
        self.stats.record_staging(copied=nbytes)
        self._put_wire(dest, tag, payload, op)

    def _put_wire(self, dest: int, tag: int, msg: Any, op: str) -> None:
        """Enqueue one wire message; in resilient mode, wrap it in a
        sequenced, checksummed envelope, retain it for resends and give
        the fault injector its shot at the delivery."""
        box = self.world._boxes[(self.rank, dest)]
        if not self.world.resilient:
            box.put((tag, msg))
            return
        injector = self.world.injector
        with self._wire_lock:
            key = (dest, tag)
            seq = self._out_seq.get(key, 0)
            self._out_seq[key] = seq + 1
            env = _Envelope(seq, _checksum(msg), msg)
            self._sent.setdefault(key, deque(maxlen=_SEND_WINDOW)).append(env)
        action = (
            injector.wire_action(self.rank, dest, tag, op)
            if injector is not None
            else None
        )
        if action == "drop":
            return  # retained in the send window; healed by resend
        if action == "corrupt":
            # Deliver a bit-flipped copy under the pristine checksum, so
            # the receiver detects the damage and requests the original.
            payload = _wire_copy(msg)
            injector.corrupt_arrays(list(_arrays_in(payload)))
            box.put((tag, _Envelope(seq, env.checksum, payload)))
            return
        box.put((tag, env))
        if action == "duplicate":
            box.put((tag, _Envelope(seq, env.checksum, _wire_copy(msg))))

    # -- receive machinery ------------------------------------------------------
    def _route(self, source: int, tag: int, payload: Any) -> None:
        """File one incoming message: segment assembly or the stash."""
        key = (source, tag)
        if isinstance(payload, _ChunkHeader):
            if key in self._partial:
                raise CommError(f"overlapping chunked transfers on {key}")
            self._partial[key] = _PartialMessage(payload)
        elif isinstance(payload, _ChunkSeg):
            partial = self._partial.get(key)
            if partial is None:
                raise CommError(f"chunk segment without header on {key}")
            if partial.add(payload):
                del self._partial[key]
                self._stash.setdefault(key, deque()).append(partial.assemble())
        else:
            self._stash.setdefault(key, deque()).append(payload)

    def _pump(self, source: int, timeout: Optional[float]) -> bool:
        """Process one message from ``source``'s mailbox.

        ``timeout=None`` polls without blocking. Returns False when no
        message was available within the timeout.
        """
        box = self.world._boxes[(source, self.rank)]
        try:
            if timeout is None:
                got_tag, payload = box.get_nowait()
            else:
                got_tag, payload = box.get(timeout=timeout)
        except queue.Empty:
            return False
        if isinstance(payload, _Envelope):
            self._route_envelope(source, got_tag, payload)
        else:
            self._route(source, got_tag, payload)
        return True

    # -- reliable channel (resilient mode) ---------------------------------------
    def _route_envelope(self, source: int, tag: int, env: _Envelope) -> None:
        """Sequence-check one envelope: discard duplicates, buffer
        out-of-order arrivals (requesting a resend across the gap),
        verify the checksum and deliver in order."""
        key = (source, tag)
        expected = self._in_seq.get(key, 0)
        if env.seq < expected:
            self.rstats.record_duplicate()
            return
        if env.seq > expected:
            self._reorder.setdefault(key, {})[env.seq] = env
            self._request_resend(source, tag, expected)
            return
        if not self._accept(source, tag, env):
            return
        buffered = self._reorder.get(key)
        while buffered:
            nxt = buffered.pop(self._in_seq.get(key, 0), None)
            if nxt is None:
                break
            if not self._accept(source, tag, nxt):
                break
        if buffered is not None and not buffered:
            self._reorder.pop(key, None)

    def _accept(self, source: int, tag: int, env: _Envelope) -> bool:
        """Checksum-verify and deliver the next-in-sequence envelope.
        Returns False (after requesting a resend) on corruption."""
        key = (source, tag)
        if _checksum(env.payload) != env.checksum:
            self.rstats.record_corruption()
            policy = self.world.retry
            if policy is None or policy.max_retries == 0:
                raise CommCorruption(
                    f"rank {self.rank}: checksum mismatch on tag {tag} "
                    f"from {source} (seq {env.seq})"
                )
            self._request_resend(source, tag, env.seq, force=True)
            return False
        self._in_seq[key] = env.seq + 1
        self._resend_pending.pop(key, None)
        self._route(source, tag, env.payload)
        return True

    def _request_resend(
        self, source: int, tag: int, from_seq: int, force: bool = False
    ) -> None:
        """Ask ``source`` to retransmit its (tag) window from
        ``from_seq``; deduplicated unless ``force`` (corruption and
        timeout escalations always re-request)."""
        key = (source, tag)
        if not force and self._resend_pending.get(key) == from_seq:
            return
        self._resend_pending[key] = from_seq
        self.rstats.record_resend_request()
        self.world.comms[source]._do_resend(self.rank, tag, from_seq)

    def _do_resend(self, dest: int, tag: int, from_seq: int) -> None:
        """Retransmit retained envelopes with ``seq >= from_seq`` (as
        fresh copies; duplicates are discarded by sequence number).
        Runs on the requester's thread — all state is lock-protected."""
        with self._wire_lock:
            envs = [
                (e.seq, e.checksum, e.payload)
                for e in self._sent.get((dest, tag), ())
                if e.seq >= from_seq
            ]
        box = self.world._boxes[(self.rank, dest)]
        for seq, checksum, payload in envs:
            box.put((tag, _Envelope(seq, checksum, _wire_copy(payload))))
        if envs:
            self.rstats.record_resends(len(envs))

    def _recv_reliable(self, source: int, tag: int) -> Any:
        """Blocking receive under the retry state machine: wait in
        backoff-growing slices, requesting a resend whenever a slice
        expires, until the message lands or the budget is exhausted."""
        policy = self.world.retry
        key = (source, tag)
        t0 = time.perf_counter()
        attempt = 0
        deadline = t0 + policy.slice_s(0)
        while True:
            q = self._stash.get(key)
            if q:
                self.stats.add_wait(time.perf_counter() - t0)
                return q.popleft()
            if self.world.is_dead(source):
                raise RankDeadError(
                    f"rank {self.rank}: peer {source} died while waiting "
                    f"for tag {tag}"
                )
            now = time.perf_counter()
            if now >= deadline:
                attempt += 1
                self.rstats.record_retry(attempt)
                if attempt > policy.max_retries:
                    raise CommTimeout(
                        f"rank {self.rank}: no message with tag {tag} from "
                        f"{source} after {policy.max_retries} retries "
                        f"({now - t0:.2f}s)"
                    )
                self._request_resend(
                    source, tag, self._in_seq.get(key, 0), force=True
                )
                deadline = now + policy.slice_s(attempt)
            self._pump(
                source, timeout=max(1e-4, min(_POLL_SLICE_S, deadline - now))
            )

    def _check_rank(self, rank: int, role: str) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"{role} {rank} out of range")

    # -- point to point ---------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, op: str = "send") -> None:
        self._check_rank(dest, "destination")
        self._deliver(obj, dest, tag, None, op)

    def isend(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        chunk_bytes: Optional[int] = None,
        op: str = "send",
    ) -> SendRequest:
        """Non-blocking send: returns immediately, the message drains on
        the background sender thread. As in MPI, ``obj`` must not be
        mutated until the request completes."""
        self._check_rank(dest, "destination")
        req = SendRequest(self)
        self._ensure_tx()
        self._tx_queue.put((obj, dest, tag, chunk_bytes, op, req))
        return req

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        if self.world.retry is not None:
            return self._recv_reliable(source, tag)
        key = (source, tag)
        while True:
            q = self._stash.get(key)
            if q:
                return q.popleft()
            t0 = time.perf_counter()
            if not self._pump(source, timeout=self.world.timeout_s):
                raise CommError(
                    f"rank {self.rank} timed out receiving tag {tag} from {source}"
                )
            self.stats.add_wait(time.perf_counter() - t0)

    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        """Non-blocking receive: matching happens at ``test``/``wait``;
        a message that arrived during compute completes instantly."""
        self._check_rank(source, "source")
        return RecvRequest(self, source, tag)

    def waitall(
        self, requests: Sequence[Request], timeout: Optional[float] = None
    ) -> List[Any]:
        """Wait on every request; returns their values (None for sends)."""
        return waitall(requests, timeout)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0, op: str = "send") -> Any:
        """Symmetric exchange with ``peer`` (deadlock-free: send first,
        then receive — sends never block in this world)."""
        self.send(obj, peer, tag, op=op)
        return self.recv(peer, tag)

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        try:
            self.world._barrier.wait(timeout=self.world.timeout_s)
        except threading.BrokenBarrierError:
            raise CommError(f"barrier broken at rank {self.rank}") from None

    def bcast(
        self,
        obj: Any,
        root: int = 0,
        ranks: Optional[List[int]] = None,
        op: str = "bcast",
    ) -> Any:
        """Broadcast among ``ranks`` (default: the whole world)."""
        group = list(range(self.size)) if ranks is None else list(ranks)
        if root not in group:
            raise ValueError("root must belong to the broadcast group")
        if self.rank not in group:
            raise ValueError(f"rank {self.rank} is not in the broadcast group")
        if self.rank == root:
            for r in group:
                if r != root:
                    self.send(obj, r, tag=-2, op=op)
            return _copy(obj)
        return self.recv(root, tag=-2)

    def gather(
        self,
        obj: Any,
        root: int = 0,
        ranks: Optional[List[int]] = None,
        op: str = "gather",
    ):
        group = list(range(self.size)) if ranks is None else list(ranks)
        if root not in group:
            raise ValueError("root must belong to the gather group")
        if self.rank == root:
            out = {}
            for r in group:
                out[r] = _copy(obj) if r == root else self.recv(r, tag=-3)
            return [out[r] for r in group]
        self.send(obj, root, tag=-3, op=op)
        return None

    def allreduce(self, value, op: Callable = None, algo: str = "auto"):
        """Reduce-to-all (default: sum).

        ``algo="rd"`` runs recursive doubling for *any* world size:
        power-of-two worlds exchange in log2(P) rounds exactly as
        before; non-power-of-two worlds add the classic pre/post phase
        (the first ``2r`` ranks pair up, the odd partner joining the
        power-of-two core and handing the result back at the end).
        ``algo="gather"`` is the O(P) gather + star-broadcast fallback.
        ``algo="auto"`` keeps the historical selection (recursive
        doubling for power-of-two sizes, gather otherwise).

        The reduction ``op`` must be associative and commutative.
        Values are always combined in the same rank-ordered balanced
        binary tree over the core values — the gather fallback's root
        replays exactly the tree recursive doubling computes — so every
        rank, under either algorithm, produces bit-identical results.
        """
        size = self.size
        if size == 1:
            return _copy(value)
        combine = (lambda a, b: a + b) if op is None else op
        pow2 = size & (size - 1) == 0
        if algo == "auto":
            algo = "rd" if pow2 else "gather"
        if algo not in ("rd", "gather"):
            raise ValueError(f"unknown allreduce algo {algo!r}")
        m = 1  # largest power of two <= size; r pairs fold in/out
        while m * 2 <= size:
            m *= 2
        r = size - m
        if algo == "gather":
            gathered = self.gather(value, root=0, op="allreduce")
            if self.rank == 0:
                core = [
                    combine(gathered[2 * j], gathered[2 * j + 1])
                    for j in range(r)
                ] + gathered[2 * r :]
                while len(core) > 1:  # the rank-ordered balanced tree
                    core = [
                        combine(core[i], core[i + 1])
                        for i in range(0, len(core), 2)
                    ]
                return self.bcast(core[0], root=0, op="allreduce")
            return self.bcast(None, root=0, op="allreduce")
        acc = _copy(value)
        if self.rank < 2 * r:
            if self.rank % 2 == 0:
                # Pre-phase even rank: contribute and wait for the result.
                self.send(acc, self.rank + 1, tag=-5, op="allreduce")
                return self.recv(self.rank + 1, tag=-6)
            acc = combine(self.recv(self.rank - 1, tag=-5), acc)
            idx = self.rank // 2
        else:
            idx = self.rank - r
        mask = 1
        while mask < m:
            peer_idx = idx ^ mask
            peer = 2 * peer_idx + 1 if peer_idx < r else peer_idx + r
            theirs = self.sendrecv(acc, peer, tag=-5, op="allreduce")
            lo, hi = (acc, theirs) if idx < peer_idx else (theirs, acc)
            acc = combine(lo, hi)
            mask <<= 1
        if self.rank < 2 * r:  # post-phase: hand the even partner its copy
            self.send(acc, self.rank - 1, tag=-6, op="allreduce")
        return acc
