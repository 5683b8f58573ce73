"""The benchmark's workloads, and the child process that measures one.

``run.py`` starts this file once per workload, in a fresh interpreter::

    python workloads.py --workload NAME --seed S --seconds T \
        --trace 0|1 --smoke 0|1 --result PATH

and reads the JSON document it writes to ``PATH``. The child drives the
program only through its public entry points: ``repro.api.run(RunSpec)``
for the LU workloads, and ``repro service serve`` plus
``repro.service.ServiceClient`` for the service.

Why each workload exists is recorded in ``BENCHMARK.json`` and the
README; the parameters live here.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import itertools
import json
import math
import os
import random
import resource
import select
import subprocess
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional

import summary
from spans import Span, Tracer, covered, install, self_times

ROOT = summary.ROOT

#: RunSpec fields of the LU workloads. Repeat ``i`` factors the matrix
#: of seed ``seed * 1000 + i``; repeat 0 is the untimed warm-up.
LU_WORKLOADS = {
    "native-dp": dict(kind="native", n=2048, nb=64, numeric=True,
                      scheduler="dynamic", executor="thread", workers=2),
    "native-mxp-proc": dict(kind="native", n=2048, nb=64, dtype="float32",
                            mxp=True, executor="process", workers=2),
    "dist-lookahead": dict(kind="distributed", n=2048, nb=64, p=2, q=2,
                           lookahead="on", bcast_algo="ring-mod", workers=1),
    "dist-elastic": dict(kind="distributed", n=1536, nb=64, p=1, q=2,
                         checkpoint_every=2, regrid=("panel=12:2x2",)),
}

#: ``--smoke`` overrides: the same paths at a size that runs in seconds.
LU_SMOKE = {
    "native-dp": dict(n=256),
    "native-mxp-proc": dict(n=256),
    "dist-lookahead": dict(n=256),
    "dist-elastic": dict(n=256, nb=32, regrid=("panel=4:2x2",)),
}

WORKLOADS = (*LU_WORKLOADS, "service-mix")

#: The HPL acceptance threshold on the scaled residual.
HPL_THRESHOLD = 16.0
#: Interpreter launches timed for the LU set-up metric.
LU_SETUP_LAUNCHES = 5
#: A single run or request that takes longer than this is a hang.
RUN_TIMEOUT_S = 60.0

#: service-mix: open-loop arrival rate, repeat share and request mix.
#: Jobs are small (4-40 ms), so serving, not factoring, takes most of
#: the time, and the two pool workers stay lightly loaded (the backlog
#: drains at about four times this rate). At 20 s the rate gives 510
#: latency samples, about 50 of them beyond the p90. Sizes are spread
#: evenly over a range rather than drawn from a few classes, so a
#: median never sits on a class edge.
SERVICE_RATE_RPS = 30.0
SERVICE_REPEAT_FRAC = 0.3
SERVICE_DIST_FRAC = 0.1
SERVICE_NATIVE_N = (64, 256)
SERVICE_DIST_N = (96, 128)
SERVICE_BACKLOG = 48
SERVICE_WORKERS = 2
#: One BLAS thread per pool worker, so the two workers use two cores.
#: With OpenBLAS's own threads on top they oversubscribe the cores, and
#: the same job's execution time swings three- to fourfold.
SERVICE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
#: A server session settles into a speed of its own, so the run is
#: split over independent sessions (each also one set-up sample) whose
#: samples are pooled. The open loop takes SERVICE_OPEN_SHARE of the
#: measured time; each session then drains its backlog rounds.
SERVICE_SESSIONS = 3
SERVICE_OPEN_SHARE = 0.85
SERVICE_ROUNDS_PER_SESSION = 2


# ---------------------------------------------------------------------------
# Environment, leaks, set-up
# ---------------------------------------------------------------------------

def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def live_threads(grace_s: float = 2.0) -> List[str]:
    """Non-main threads still alive after a short grace period."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = [t.name for t in threading.enumerate()
                 if t is not threading.main_thread() and t.is_alive()]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.02)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_setup_s() -> float:
    """Seconds from launching an interpreter until ``repro.api`` is imported."""
    code = "import time, repro.api; print(time.monotonic())"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return float(out.stdout.split()[-1]) - t0


def host_ceiling(n: int, dtype: str) -> Dict[str, float]:
    """LAPACK getrf and BLAS gemm on this host at ``n`` and ``dtype``,
    minimum of three runs each."""
    import numpy as np
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((n, n)).astype(dtype)
    getrf = gemm = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        scipy.linalg.lu_factor(a, check_finite=False)
        getrf = min(getrf, time.perf_counter() - t0)
        t0 = time.perf_counter()
        a @ a
        gemm = min(gemm, time.perf_counter() - t0)
    return {"getrf_s": getrf, "gemm_gflops": 2.0 * n**3 / gemm / 1e9}


class Tally:
    """Attempted operations and the failed ones, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, problems: List[str]) -> bool:
        """Count one operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failures.append("\n".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def metric(value, unit, samples=None) -> dict:
    """One reported metric; ``samples`` adds their quartiles and count
    (a failed request's +inf latency counts, but has no quartile)."""
    if value is not None and not math.isfinite(value):
        value = None
    out = {"value": value, "unit": unit}
    if samples:
        finite = [s for s in samples if math.isfinite(s)]
        if finite:
            q = summary.quartiles(finite)
            out.update(q1=q["q1"], q3=q["q3"])
        out["n"] = len(samples)
    return out


# ---------------------------------------------------------------------------
# LU workloads
# ---------------------------------------------------------------------------

def scaled_residual(n: int, seed: int, x) -> float:
    """HPL's scaled residual of ``x``, recomputed here with NumPy."""
    import numpy as np
    from repro.hpl.matgen import hpl_system

    a, b = hpl_system(n, seed)
    x = np.asarray(x, dtype=np.float64)
    r = np.linalg.norm(a @ x - b, np.inf)
    norm_a = np.linalg.norm(a, np.inf)
    eps = np.finfo(np.float64).eps
    return r / (eps * (norm_a * np.linalg.norm(x, np.inf)
                       + np.linalg.norm(b, np.inf)) * n)


def check_lu(spec, result) -> List[str]:
    problems = []
    if result.passed is not True:
        problems.append(f"seed {spec.seed}: residual check failed "
                        f"({result.residual!r})")
    elif not (math.isfinite(result.residual) and result.residual < HPL_THRESHOLD):
        problems.append(f"seed {spec.seed}: residual {result.residual!r}")
    x = getattr(result, "x", None)
    if x is not None:
        ours = scaled_residual(spec.n, spec.seed, x)
        if not ours < HPL_THRESHOLD:
            problems.append(f"seed {spec.seed}: recomputed residual {ours!r}")
    return problems


def run_lu_once(spec, tally: Tally):
    """One timed ``repro.api.run``: ``(wall_s, result, leaked_segments)``,
    with ``wall_s`` None when the run failed a check. A run that exceeds
    :data:`RUN_TIMEOUT_S` dumps every thread's stack and ends the process."""
    from repro import api

    shm_before = shm_segments()
    faulthandler.dump_traceback_later(RUN_TIMEOUT_S, exit=True)
    try:
        t0 = time.perf_counter()
        result = api.run(spec)
        wall = time.perf_counter() - t0
    except Exception:
        tally.record([traceback.format_exc()])
        return None, None, 0
    finally:
        faulthandler.cancel_dump_traceback_later()
    problems = check_lu(spec, result)
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"seed {spec.seed}: leaked /dev/shm segments {sorted(leaked)}")
    threads = live_threads()
    if threads:
        problems.append(f"seed {spec.seed}: threads left running {threads}")
    ok = tally.record(problems)
    return (wall if ok else None), result, len(leaked)


def lu_layers(tracer: Tracer, run_id: int, result, wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced run."""
    spans = tracer.run_spans(run_id)
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    out = {}
    for layer in ("getrf", "trsm", "laswp", "gemm"):
        out[f"blas.{layer}_s"] = self_s(f"blas.{layer}")
        out[f"blas.{layer}_calls"] = calls(f"blas.{layer}")
    gemm_flops = sum(s.flops for s in by_name.get("blas.gemm", ()))
    out["blas.gemm_gflops"] = (gemm_flops / out["blas.gemm_s"] / 1e9
                               if out["blas.gemm_s"] else 0.0)
    out["lu.factor_s"] = sum(s.end - s.start for s in by_name.get("lu.factor", ()))
    out["lu.overhead_s"] = self_s("lu.factor")

    metrics = result.metrics.to_dict() if result.metrics is not None else {}
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    out["parallel.pipe_messages"] = counters.get("parallel.pipe.messages", 0)
    out["parallel.pipe_task_bytes"] = counters.get("parallel.pipe.task_bytes", 0)
    out["parallel.pool_utilization"] = gauges.get("parallel.pool.utilization", 0.0)

    for layer in ("matgen", "solve", "verify", "refine"):
        out[f"hpl.{layer}_s"] = self_s(f"hpl.{layer}")
    out["hpl.refine_iters"] = (result.refine or {}).get("iterations", 0)

    out["cluster.recv_wait_s"] = self_s("cluster.recv")
    out["cluster.send_s"] = self_s("cluster.send")
    out["cluster.drain_s"] = self_s("cluster.drain")
    out["cluster.messages"] = calls("cluster.send")
    out["cluster.bytes"] = getattr(result, "total_bytes", 0)
    out["cluster.exposed_comm_s"] = getattr(result, "exposed_comm_s", 0.0)
    out["cluster.hidden_comm_s"] = getattr(result, "hidden_comm_s", 0.0)
    compute: Dict[int, float] = {}
    for s in spans:
        rank = tracer.track_rank.get(s.track)
        if rank is not None and s.name.startswith("blas."):
            compute[rank] = compute.get(rank, 0.0) + selfs[s.sid]
    out["cluster.rank_imbalance"] = (
        max(compute.values()) / (sum(compute.values()) / len(compute))
        if compute and sum(compute.values()) else 0.0)

    resilience = getattr(result, "resilience", None) or {}
    out["resilience.ckpt_save_s"] = self_s("resilience.ckpt_save")
    out["resilience.ckpt_load_s"] = self_s("resilience.ckpt_load")
    out["resilience.ckpt_saves"] = calls("resilience.ckpt_save")
    out["resilience.ckpt_bytes"] = resilience.get("checkpoint_bytes", 0)
    out["elastic.redistribute_s"] = sum(
        s.end - s.start for s in by_name.get("elastic.redistribute", ()))
    out["elastic.moved_bytes"] = getattr(result, "regrid_moved_bytes", 0)
    out["elastic.regrids"] = getattr(result, "regrids", 0)

    work = [(s.start, s.end) for s in spans
            if s.name.startswith(("blas.", "hpl."))]
    out["trace.coverage_frac"] = covered(work) / wall
    return out


def measure_lu(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    from repro.lu.timing import LUTiming
    from repro.spec import RunSpec

    fields = dict(LU_WORKLOADS[name], **(LU_SMOKE[name] if smoke else {}))
    n = fields["n"]
    tally = Tally()
    min_repeats = 2 if smoke else 3

    seeds = (seed * 1000 + i for i in itertools.count())

    def next_spec():
        return RunSpec(**fields, seed=next(seeds))

    def traced_run():
        tracer.enabled = True
        try:
            with tracer.run_span() as root:
                wall, result, leaked = run_lu_once(next_spec(), tally)
        finally:
            tracer.enabled = False
        if result is not None:
            row = lu_layers(tracer, root.run, result, root.end - root.start)
            row["parallel.leaked_shm_segments"] = leaked
            layer_rows.append(row)
        return wall

    setup, walls, layer_rows, overheads = [], [], [], []
    tracer = restore = host = None
    if trace:
        tracer = Tracer()
        restore = install(tracer)
        host = host_ceiling(n, fields.get("dtype", "float64"))
    else:
        for _ in range(2 if smoke else LU_SETUP_LAUNCHES):
            setup.append(import_setup_s())

    # Warm-up at smoke size: imports, BLAS threads and pools come up
    # without spending a full-size run.
    run_lu_once(RunSpec(**dict(fields, **LU_SMOKE[name]), seed=next(seeds)), tally)
    # Rounds of one untraced run (and, with --trace, one traced run right
    # after it, so the pair shares the machine's state) until another
    # round would overrun ``seconds``.
    t_start = time.perf_counter()
    rounds = 0
    while True:
        wall, _result, _leaked = run_lu_once(next_spec(), tally)
        if wall is not None:
            walls.append(wall)
        if trace:
            traced = traced_run()
            if wall is not None and traced is not None:
                overheads.append(traced / wall - 1.0)
        rounds += 1
        if rounds == 1:
            # Fragmentation grows the heap a little with every repeat,
            # so the peak is read after the first one.
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - t_start
        if rounds >= min_repeats and elapsed * (rounds + 1) / rounds > seconds:
            break
    if restore is not None:
        restore()

    run_s = summary.median(walls, math.nan)
    flops = LUTiming.hpl_flops(n)
    metrics = {
        "run_s": metric(run_s, "s", walls),
        "gflops": metric(flops / run_s / 1e9 if walls else None, "GFLOP/s",
                         [flops / w / 1e9 for w in walls]),
        "ok_frac": metric(1 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(summary.median(setup, math.nan), "s", setup),
        # One request of an LU workload is one repro.api.run call.
        "latency_p50_s": metric(run_s, "s", walls),
        "latency_p90_s": metric(summary.interpolated(walls, 90) if walls else None,
                                "s", walls),
        "throughput_rps": metric(len(walls) / sum(walls) if walls else None, "req/s"),
    }
    doc = {"metrics": metrics, "tally": tally}
    if trace:
        layers = {k: summary.median([row[k] for row in layer_rows])
                  for k in (layer_rows[0] if layer_rows else {})}
        layers["host.getrf_s"] = host["getrf_s"]
        layers["host.dgemm_gflops"] = host["gemm_gflops"]
        layers["host.pct_of_getrf"] = host["getrf_s"] / run_s if walls else 0.0
        layers["trace.overhead_frac"] = summary.median(overheads, math.nan)
        doc["layers"] = layers
        doc["tracer"] = tracer
    return doc


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

def _native(n: int) -> dict:
    return dict(kind="native", n=n, nb=64, numeric=True, workers=1)


def _dist(n: int) -> dict:
    return dict(kind="distributed", n=n, nb=32, p=2, q=2, workers=1)


def _spread(lo: int, hi: int, count: int) -> List[int]:
    """``count`` sizes spaced evenly over ``[lo, hi]``."""
    return [lo + round((hi - lo) * (k + 0.5) / count) for k in range(count)]


def _service_fresh(rng: random.Random, count: int, seed0: int) -> List[dict]:
    """``count`` distinct RunSpec dicts, the distributed share included,
    shuffled. The size mix is the same for every seed; only the order
    and the matrices change."""
    n_dist = round(SERVICE_DIST_FRAC * count)
    specs = [_dist(n) for n in _spread(*SERVICE_DIST_N, n_dist)]
    specs += [_native(n) for n in _spread(*SERVICE_NATIVE_N, count - n_dist)]
    rng.shuffle(specs)
    for j, d in enumerate(specs):
        d["seed"] = seed0 + j
    return specs


def service_plan(seed: int, session: int, n_open: int, n_backlog: int,
                 rounds: int) -> dict:
    """The seeded request streams of one ``service-mix`` session.

    Phase A: ``n_open`` open-loop arrivals of a Poisson process at
    :data:`SERVICE_RATE_RPS` (drawn as a Poisson process conditioned on
    its count: sorted uniform times), two tenants, and a
    :data:`SERVICE_REPEAT_FRAC` share repeating an earlier spec of the
    session. Phase B: ``rounds`` backlogs of ``n_backlog`` distinct
    specs, each submitted at once.
    """
    stream = seed * SERVICE_SESSIONS + session
    rng = random.Random(stream)
    n_repeat = round(SERVICE_REPEAT_FRAC * n_open)
    fresh = _service_fresh(rng, n_open - n_repeat, stream * 1000)
    repeat_at = set(rng.sample(range(1, n_open), n_repeat))
    window = n_open / SERVICE_RATE_RPS
    due = sorted(rng.uniform(0.0, window) for _ in range(n_open))
    open_loop, seen = [], []
    for i in range(n_open):
        if i in repeat_at:
            d = rng.choice(seen)
        else:
            d = fresh[len(seen)]
            seen.append(d)
        open_loop.append({"due": due[i], "spec": d, "tenant": rng.choice("ab")})
    backlogs = [_service_fresh(rng, n_backlog, stream * 1000 + 500 + r * n_backlog)
                for r in range(rounds)]
    # Two requests of each kind: both pool workers start and import.
    warmup = [_native(SERVICE_NATIVE_N[1]), _native(SERVICE_NATIVE_N[1]),
              _dist(SERVICE_DIST_N[1]), _dist(SERVICE_DIST_N[1])]
    for j, d in enumerate(warmup):
        d["seed"] = stream * 1000 + 990 + j
    return {"open": open_loop, "backlogs": backlogs, "warmup": warmup}


class Server:
    """One ``repro service serve`` process and its announced port."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "service", "serve",
             "--workers", str(SERVICE_WORKERS), "--port", "0"],
            cwd=ROOT, env=dict(os.environ, **SERVICE_ENV),
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], RUN_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"service did not announce a port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def wait(self, timeout: float) -> Optional[str]:
        """Wait for exit; a server still up after ``timeout`` is killed
        and reported."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return f"service server did not exit within {timeout}s of shutdown"
        finally:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            return f"service server exited with {self.proc.returncode}"
        return None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def check_artifact(d: dict, artifact: Optional[dict], reference: Dict[str, dict]):
    """Problems with one answered request (``None``: timed out)."""
    from repro.spec import RunSpec

    if artifact is None:
        return [f"seed {d['seed']}: no answer within {RUN_TIMEOUT_S}s"]
    if artifact.get("status") != "ok":
        return [f"seed {d['seed']}: status {artifact.get('status')}: "
                f"{artifact.get('error')}"]
    digest = RunSpec(**d).canonical_hash()
    if artifact.get("spec_hash") != digest:
        return [f"seed {d['seed']}: answered for spec {artifact.get('spec_hash')}"]
    result = artifact.get("result", {})
    if result.get("passed") is not True:
        return [f"seed {d['seed']}: residual check failed ({result.get('residual')})"]
    first = reference.setdefault(digest, result)
    if first.get("residual") != result.get("residual"):
        return [f"seed {d['seed']}: repeat answered a different result"]
    return []


async def _session(plan: dict, trace: bool, tally: Tally) -> dict:
    """One server, from launch to exit: set-up time, then the plan."""
    from repro.service import ServiceClient

    loop = asyncio.get_running_loop()
    server = await loop.run_in_executor(None, Server)
    client = await ServiceClient("127.0.0.1", server.port).connect()
    reference: Dict[str, dict] = {}
    events: List[List] = []
    listener_s = [0.0]

    async def submit(d: dict, tenant: str, due: Optional[float] = None,
                     record: bool = True):
        marks = [("sent", time.perf_counter())]
        if record:
            events.append(marks)

        def on_event(msg):
            t = time.perf_counter()
            marks.append((msg.get("event"), t))
            listener_s[0] += time.perf_counter() - t

        try:
            artifact = await asyncio.wait_for(
                client.submit(d, tenant=tenant,
                              on_event=on_event if trace else None),
                RUN_TIMEOUT_S)
        except asyncio.TimeoutError:
            artifact = None
        except Exception:
            artifact = {"status": "error", "error": traceback.format_exc()}
        done = time.perf_counter()
        marks.append(("result", done))
        ok = tally.record(check_artifact(d, artifact, reference))
        return {"artifact": artifact, "ok": ok, "done": done,
                "sent": marks[0][1], "due": due}

    try:
        await asyncio.wait_for(client.ping(), RUN_TIMEOUT_S)
        setup_s = time.monotonic() - server.t0
        # Both pool workers started and imported before timing.
        await asyncio.gather(*(submit(d, "warmup", record=False)
                               for d in plan["warmup"]))

        # Phase A: open loop, each request timed from its due time.
        t0 = time.perf_counter()
        tasks = []
        for req in plan["open"]:
            due = t0 + req["due"]
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            tasks.append(asyncio.ensure_future(
                submit(req["spec"], req["tenant"], due)))
        phase_a = await asyncio.gather(*tasks)

        # Phase B: each backlog at once, timed until it drains.
        phase_b = []
        for backlog in plan["backlogs"]:
            t1 = time.perf_counter()
            answers = await asyncio.gather(*(submit(d, "backlog")
                                             for d in backlog))
            phase_b.append((backlog, answers, time.perf_counter() - t1))
        stats = await client.stats()
        await client.shutdown()
    finally:
        await client.close()
        problem = await loop.run_in_executor(None, server.wait, 30.0)
        tally.record([problem] if problem else [])
    return {"setup_s": setup_s, "phase_a": phase_a, "phase_b": phase_b,
            "stats": stats, "events": events, "listener_s": listener_s[0],
            "wall_s": time.perf_counter() - t0}


def service_layers(sessions: List[dict], tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures from the protocol's own events and ``stats``."""
    spans = {"admit": [], "queue": [], "execute": [], "reply": []}
    events = [marks for s in sessions for marks in s["events"]]
    for track, marks in enumerate(events):
        t = dict(marks)
        # The first protocol event answers the submission: queued, or
        # cached / coalesced / rejected for requests that never queue.
        first = marks[1][1] if len(marks) > 2 else None
        stages = [("admit", t["sent"], first),
                  ("queue", t.get("queued"), t.get("running")),
                  ("execute", t.get("running"), t.get("done")),
                  ("reply", t.get("done", first), t["result"])]
        for layer, lo, hi in stages:
            if lo is not None and hi is not None:
                spans[layer].append(hi - lo)
                tracer.record(f"service.{layer}", lo, hi, track)

    def total(*path):
        out = 0
        for s in sessions:
            value = s["stats"]
            for key in path:
                value = value[key]
            out += value
        return out

    requests = total("requests") or 1
    late = [r["sent"] - r["due"] for s in sessions for r in s["phase_a"]]
    return {
        "service.admit_s": summary.median(spans["admit"]),
        "service.reply_s": summary.median(spans["reply"]),
        "service.cache_hit_frac": (total("cache", "hits_memory")
                                   + total("cache", "hits_disk")) / requests,
        "service.queue_wait_s": summary.median(spans["queue"]),
        "service.queue_wait_p90_s": (summary.nearest_rank(spans["queue"], 90)
                                     if spans["queue"] else 0.0),
        "service.batch_jobs_mean": (total("batching", "jobs")
                                    / (total("batching", "batches") or 1)),
        "service.execute_s": summary.median(spans["execute"]),
        "service.coalesced": total("coalesced"),
        "service.rejected_frac": total("admission", "rejected") / requests,
        "service.generator_late_max_s": max(late, default=0.0),
        "trace.overhead_frac": (sum(s["listener_s"] for s in sessions)
                                / sum(s["wall_s"] for s in sessions)),
    }


def measure_service(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from repro.lu.timing import LUTiming

    # The open loop takes SERVICE_OPEN_SHARE of the measured time, split
    # evenly over the sessions; the backlog rounds take the rest.
    n_open = 10 if smoke else round(SERVICE_RATE_RPS * SERVICE_OPEN_SHARE * seconds)
    plans = [service_plan(seed, s, n_open // SERVICE_SESSIONS
                          + (s < n_open % SERVICE_SESSIONS),
                          8 if smoke else SERVICE_BACKLOG,
                          1 if smoke else SERVICE_ROUNDS_PER_SESSION)
             for s in range(SERVICE_SESSIONS)]
    tally = Tally()

    async def run_all():
        return [await _session(plan, trace, tally) for plan in plans]

    sessions = asyncio.run(run_all())
    phase_a = [r for s in sessions for r in s["phase_a"]]
    rounds = [b for s in sessions for b in s["phase_b"]]
    latencies = [r["done"] - r["due"] if r["ok"] else math.inf for r in phase_a]
    answered = phase_a + [r for _backlog, answers, _s in rounds for r in answers]
    executed = [r["artifact"]["elapsed_s"] for r in answered
                if r["ok"] and not r["artifact"].get("cached")
                and not r["artifact"].get("coalesced")]
    # Whether a round's last batch runs alone swings its drain time by a
    # batch, so throughput pools all rounds: their specs over their time.
    specs = flops = drain = 0.0
    rps, gflops = [], []
    for backlog, answers, drain_s in rounds:
        drained = [d for d, r in zip(backlog, answers) if r["ok"]]
        work = sum(LUTiming.hpl_flops(d["n"]) for d in drained)
        rps.append(len(drained) / drain_s)
        gflops.append(work / drain_s / 1e9)
        specs, flops, drain = specs + len(drained), flops + work, drain + drain_s
    setup = [s["setup_s"] for s in sessions]
    metrics = {
        "run_s": metric(summary.median(executed, math.nan), "s", executed),
        "gflops": metric(flops / drain / 1e9, "GFLOP/s", gflops),
        "ok_frac": metric(1 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(summary.median(setup), "s", setup),
        "latency_p50_s": metric(summary.nearest_rank(latencies, 50), "s",
                                latencies),
        "latency_p90_s": metric(summary.tail_percentile(latencies, 90), "s",
                                latencies),
        "throughput_rps": metric(specs / drain, "req/s", rps),
    }
    doc = {"metrics": metrics, "tally": tally}
    if trace:
        doc["tracer"] = Tracer()
        doc["layers"] = service_layers(sessions, doc["tracer"])
    return doc


# ---------------------------------------------------------------------------
# The child entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--result", required=True, help="result JSON path")
    args = ap.parse_args(argv)

    import repro

    if not os.path.abspath(repro.__file__).startswith(str(ROOT / "src")):
        raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    env = environment()
    t0 = time.perf_counter()
    if args.workload == "service-mix":
        doc = measure_service(args.seed, args.seconds, bool(args.trace),
                              bool(args.smoke))
    else:
        doc = measure_lu(args.workload, args.seed, args.seconds, bool(args.trace),
                         bool(args.smoke))
    tally: Tally = doc.pop("tally")
    tracer: Optional[Tracer] = doc.pop("tracer", None)
    if tracer is not None:
        path = os.path.join(args.out, f"{args.workload}.trace.json")
        tracer.write_chrome_trace(path)
        doc["chrome_trace"] = path
    doc.update(workload=args.workload, seed=args.seed, trace=bool(args.trace),
               smoke=bool(args.smoke), seconds=args.seconds,
               wall_s=time.perf_counter() - t0, environment=env,
               attempted=tally.attempted, failed=tally.failed,
               failures=tally.failures)
    with open(args.result, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
