"""The single programmatic entry point: ``repro.api.run(spec)``.

Every way of launching a run converges here — the CLI subcommands,
``HPL.dat`` cross-products, the auto-tuners and campaign workers all
build a :class:`~repro.spec.RunSpec` and call :func:`run`. In return,
every :class:`~repro.obs.result.RunResult` that leaves this function
carries the spec it was produced from (and therefore its canonical
hash) in its ``to_dict`` / ``to_json`` exports, which is what lets
campaigns deduplicate, cache and resume by configuration identity.

Dispatch is by ``spec.kind``:

``native``
    :class:`~repro.hpl.driver.NativeHPL` — the timing model, or the
    real factorization + solve + residual check with ``numeric``;
``hybrid``
    :class:`~repro.hybrid.driver.HybridHPL` (timing model) or
    :func:`~repro.hybrid.functional.run_hybrid_numeric` (``numeric``);
``distributed``
    :class:`~repro.cluster.hpl_mpi.DistributedHPL` — always a real
    solve on the simulated MPI world, including the resilience knobs.
"""

from __future__ import annotations

from repro.obs.result import RunResult
from repro.spec import RunSpec


def _precision_kwargs(s: RunSpec) -> dict:
    """The dtype/MxP knobs every numeric driver accepts. ``refine_*``
    are normalized to concrete values exactly when ``mxp`` is set."""
    kw = {"dtype": s.dtype, "mxp": s.mxp}
    if s.mxp:
        kw["refine_tol"] = s.refine_tol
        kw["refine_max_iters"] = s.refine_max_iters
    return kw


def _run_native(s: RunSpec) -> RunResult:
    from repro.hpl.driver import NativeHPL

    return NativeHPL(
        s.n,
        nb=s.nb,
        scheduler=s.scheduler,
        workers=s.workers,
        executor=s.executor,
        pack_cache=s.pack_cache,
        alloc_profile=s.alloc_profile,
        **_precision_kwargs(s),
    ).run(numeric=s.numeric, seed=s.seed)


def _run_hybrid(s: RunSpec) -> RunResult:
    if s.numeric:
        from repro.hybrid.functional import run_hybrid_numeric

        return run_hybrid_numeric(
            s.n,
            nb=s.nb,
            cards=s.cards,
            workers=s.workers,
            executor=s.executor,
            pack_cache=s.pack_cache,
            alloc_profile=s.alloc_profile,
            seed=s.seed,
            **_precision_kwargs(s),
        )
    from repro.hybrid.driver import HybridHPL, NodeConfig

    return HybridHPL(
        s.n,
        nb=s.nb,
        node=NodeConfig(cards=s.cards, host_mem_bytes=int(s.mem_gb * 1024**3)),
        p=s.p,
        q=s.q,
        lookahead=s.lookahead,
        dtype=s.dtype,
    ).run()


def _run_distributed(s: RunSpec) -> RunResult:
    from repro.cluster.hpl_mpi import DistributedHPL

    retry = None
    if s.retry_max is not None or s.comm_timeout is not None:
        from repro.resilience import RetryPolicy

        retry_kwargs = {}
        if s.comm_timeout is not None:
            retry_kwargs["comm_timeout_s"] = s.comm_timeout
        if s.retry_max is not None:
            retry_kwargs["max_retries"] = s.retry_max
        retry = RetryPolicy(**retry_kwargs)
    return DistributedHPL(
        s.n,
        s.nb,
        s.p,
        s.q,
        seed=s.seed,
        bcast_algo=s.bcast_algo,
        lookahead=s.lookahead == "on",
        chunk_kb=s.chunk_kb,
        workers=s.workers,
        executor=s.executor,
        pack_cache=s.pack_cache,
        alloc_profile=s.alloc_profile,
        fault_plan=s.fault_plan,
        checkpoint_every=s.checkpoint_every,
        retry=retry,
        regrid=s.regrid or None,
        on_rank_death=s.on_rank_death,
        **_precision_kwargs(s),
    ).run()


_DISPATCH = {
    "native": _run_native,
    "hybrid": _run_hybrid,
    "distributed": _run_distributed,
}


def run(spec: RunSpec) -> RunResult:
    """Execute ``spec`` and return its result, spec attached.

    The spec is normalized first (kind defaults and machine profiles
    resolved), so the attached ``result.spec`` — and the ``spec`` /
    ``spec_hash`` blocks of the JSON export — always describe the run
    explicitly and hash canonically.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"run() takes a RunSpec, got {type(spec).__name__}")
    s = spec.normalized()
    result = _DISPATCH[s.kind](s)
    result.spec = s
    return result


def run_to_artifact(spec) -> dict:
    """Execute a spec (or spec dict) into a schema-tagged artifact.

    The artifact form (:data:`repro.service.cache.SCHEMA`) is the
    currency of everything that persists or serves runs — campaign
    ``runs/<hash>.json`` files, the service's result cache, the NDJSON
    protocol. This function never raises: a failing run (including an
    invalid spec dict) becomes a ``status: "error"`` artifact carrying
    the traceback, so pool workers always hand back a document.
    """
    import time
    import traceback

    from repro.service.cache import SCHEMA, failure_artifact, ok_artifact

    t0 = time.perf_counter()
    try:
        s = spec if isinstance(spec, RunSpec) else RunSpec.from_dict(spec)
    except Exception:
        # The dict never became a RunSpec, so there is no canonical
        # identity to key the artifact by — callers must not store it.
        return {
            "schema": SCHEMA,
            "status": "error",
            "spec": dict(spec) if isinstance(spec, dict) else repr(spec),
            "spec_hash": None,
            "elapsed_s": time.perf_counter() - t0,
            "error": traceback.format_exc(),
        }
    try:
        result = run(s)
        return ok_artifact(s, result.to_dict(), time.perf_counter() - t0)
    except Exception:
        return failure_artifact(s, "error", traceback.format_exc(),
                                elapsed_s=time.perf_counter() - t0)


def run_cached(spec: RunSpec, cache) -> dict:
    """Serve ``spec`` from a result cache, executing only on a miss.

    The synchronous cache hook under the benchmark service's hot path
    (the asyncio layer adds single-flight deduplication on top): look
    the canonical hash up in ``cache``
    (:class:`repro.service.cache.ResultCache`), execute via
    :func:`run_to_artifact` on a miss and store the artifact. The
    returned document carries ``cached: True`` when it was served
    without executing — provenance for clients; the flag is never
    persisted, so cached and fresh artifacts stay byte-identical on
    disk.
    """
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_dict(spec)
    digest = spec.canonical_hash()
    hit = cache.get(digest)
    if hit is not None:
        hit["cached"] = True
        return hit
    artifact = run_to_artifact(spec)
    cache.put(artifact)
    artifact = dict(artifact)
    artifact["cached"] = False
    return artifact
