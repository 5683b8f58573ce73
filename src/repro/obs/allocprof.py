"""Allocation profiler: tracemalloc spans and per-phase byte counters.

The buffer-arena work (:mod:`repro.blas.buffers`) claims the hot paths
stop allocating; this module is how the claim is measured. An
:class:`AllocProfiler` wraps phases of a run ("factor", "solve",
"update") in :meth:`AllocProfiler.span` blocks and records, per phase:

* ``temp_bytes`` — Python-level bytes that were allocated inside the
  span and released by its end (the tracemalloc peak above the span's
  resident baseline): the NumPy temporaries the pool eliminates;
* ``retained_bytes`` — the change in resident traced bytes across the
  span (what the span allocated and kept);
* ``peak_temp_bytes`` — the largest single-span temporary high-water
  mark seen for the phase;
* ``calls`` — how many spans the phase accumulated.

Spans must not nest: each span resets tracemalloc's peak counter
(:func:`tracemalloc.reset_peak`), which would corrupt an enclosing
span's measurement. Profiling is optional and cheap to leave wired in —
a disabled profiler's spans are no-ops — so drivers accept an
``alloc_profile`` flag, thread one profiler through their phases, and
record :meth:`AllocProfiler.to_dict` into their
:class:`~repro.obs.result.RunResult`.

tracemalloc sees Python-level allocations (every NumPy array object's
data buffer) but not allocator-internal reuse; numbers are therefore a
faithful *relative* measure — the same code before and after a
change — which is exactly what the regression gate compares.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterator, Optional


class AllocProfiler:
    """Per-phase allocation accounting built on :mod:`tracemalloc`.

    With ``enabled=False`` every method is a no-op, so callers can
    thread a profiler unconditionally and let a CLI flag decide.
    The profiler starts tracemalloc on first use and stops it on
    :meth:`close` only if it was the one to start it.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phases: Dict[str, Dict[str, int]] = {}
        self._started_tracing = False
        self._in_span = False

    # -- spans -----------------------------------------------------------------
    @contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Measure one phase occurrence. Spans must not nest (each span
        resets tracemalloc's peak, which would corrupt the outer one)."""
        if not self.enabled:
            yield
            return
        if self._in_span:
            raise RuntimeError("AllocProfiler spans must not nest")
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self._in_span = True
        cur0, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            cur1, peak = tracemalloc.get_traced_memory()
            self._in_span = False
            temp = max(0, peak - max(cur0, cur1))
            rec = self.phases.setdefault(
                phase,
                {
                    "calls": 0,
                    "temp_bytes": 0,
                    "peak_temp_bytes": 0,
                    "retained_bytes": 0,
                },
            )
            rec["calls"] += 1
            rec["temp_bytes"] += temp
            rec["peak_temp_bytes"] = max(rec["peak_temp_bytes"], temp)
            rec["retained_bytes"] += cur1 - cur0

    # -- results ---------------------------------------------------------------
    def temp_bytes(self, phase: str) -> int:
        """Total temporary bytes recorded for ``phase`` (0 if unseen)."""
        return self.phases.get(phase, {}).get("temp_bytes", 0)

    def to_dict(self) -> Optional[dict]:
        """Plain-data per-phase counters (None when disabled/unused) —
        the form drivers record into their RunResult."""
        if not self.enabled or not self.phases:
            return None
        return {phase: dict(rec) for phase, rec in sorted(self.phases.items())}

    def publish(self, metrics) -> None:
        """Copy per-phase counters into a MetricsRegistry as
        ``alloc.<phase>.*`` entries."""
        if metrics is None or not self.enabled:
            return
        for phase, rec in self.phases.items():
            metrics.counter(f"alloc.{phase}.calls").inc(rec["calls"])
            metrics.counter(f"alloc.{phase}.temp_bytes").inc(rec["temp_bytes"])
            metrics.gauge(f"alloc.{phase}.peak_temp_bytes").update_max(
                rec["peak_temp_bytes"]
            )
            metrics.gauge(f"alloc.{phase}.retained_bytes").set(
                rec["retained_bytes"]
            )

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    def __enter__(self) -> "AllocProfiler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        if not self.enabled:
            return "AllocProfiler(disabled)"
        return f"AllocProfiler({len(self.phases)} phases)"


def measure_temp_bytes(fn, *args, **kwargs) -> tuple:
    """Run ``fn(*args, **kwargs)`` under a fresh one-span profiler.

    Returns ``(result, temp_bytes)`` — the benchmark helper behind
    ``benchmarks/bench_alloc.py``.
    """
    with AllocProfiler() as prof:
        with prof.span("call"):
            result = fn(*args, **kwargs)
    return result, prof.temp_bytes("call")
