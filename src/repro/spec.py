"""The canonical, declarative run configuration: :class:`RunSpec`.

Every way of launching a run — the ``native`` / ``hybrid`` /
``distributed`` CLI subcommands, an ``HPL.dat`` file, the auto-tuner,
a campaign YAML sweep — used to carry its own ad-hoc bundle of knobs.
This module gives them one typed, validated home:

* :class:`RunSpec` — a frozen dataclass covering every knob the
  drivers accept (problem geometry, scheduler, look-ahead, broadcast
  algorithm, substrate switches, resilience plan, regrid schedule,
  machine profile, seed), with ``to_dict`` / ``from_dict`` / :meth:`RunSpec.canonical_hash`
  round-trips. The hash is the run's *identity*: campaigns deduplicate
  repeat configurations and resume interrupted sweeps by it, and every
  :class:`~repro.obs.result.RunResult` export carries it.
* the **flag table** (:data:`RUN_FLAGS`) — the single definition of the
  CLI flags for all run subcommands, generated from RunSpec fields.
  :func:`run_flags_parser` builds a shared parent parser per kind and
  :func:`spec_from_args` maps parsed arguments back into a RunSpec, so
  the subcommands cannot drift apart flag by flag.

Execution lives in :func:`repro.api.run`; this module is pure
configuration and deliberately imports no driver.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.machine.profiles import MACHINE_PROFILES, machine_profile

#: Run kinds repro.api.run can execute.
KINDS = ("native", "hybrid", "distributed")

#: Native scheduler choices (mirrors ``NativeHPL.SCHEDULERS``).
SCHEDULERS = ("dynamic", "static")

#: Hybrid look-ahead schemes (mirrors :class:`repro.hybrid.lookahead.Lookahead`).
HYBRID_LOOKAHEADS = ("none", "basic", "pipelined")

#: Distributed look-ahead is an on/off pipeline switch.
DIST_LOOKAHEADS = ("on", "off")

#: Panel-broadcast shapes of the distributed run (HPL's BCAST menu,
#: abridged).
BCAST_ALGOS = ("star", "ring", "binomial", "ring-mod")

#: Row-swap variants of the distributed run: ordered pairwise exchange
#: vs the long swap (a ``DistributedHPL`` argument, not a RunSpec field).
SWAP_ALGOS = ("pairwise", "long")

#: Tile-executor backends (mirrors :data:`repro.parallel.EXECUTOR_BACKENDS`):
#: "thread" shares the GIL, "process" fans work across worker processes
#: over shared memory.
EXECUTORS = ("thread", "process")

#: Rank-death recovery modes (mirrors ``DistributedHPL``): "restart"
#: rolls back and re-runs on the same grid, "shrink" redistributes the
#: newest complete cut onto a grid fitted to the surviving ranks.
ON_RANK_DEATH = ("restart", "shrink")

#: Working precisions of the factorization. float32 runs the SP kernel
#: and GEMM models (16 lanes / 2x peak on KNC); pair it with ``mxp`` to
#: recover double accuracy through iterative refinement.
DTYPES = ("float64", "float32")

#: MxP refinement defaults: converge the scaled residual below 1.0
#: (comfortably inside the DP HPL pass threshold of 16) within 8
#: correction iterations before declaring a stall.
DEFAULT_REFINE_TOL = 1.0
DEFAULT_REFINE_MAX_ITERS = 8

#: Kind-specific ``nb`` defaults (the historical CLI/driver defaults):
#: native 300 (best kernel depth), distributed 16 (test-scale grids),
#: hybrid 1200 for the timing model (``HYBRID_KT``, the PCIe-bound
#: block) and 64 for numeric runs (materialised matrices stay modest).
DEFAULT_NB = {"native": 300, "distributed": 16}
DEFAULT_NB_HYBRID_MODEL = 1200
DEFAULT_NB_HYBRID_NUMERIC = 64

_HASH_LEN = 16


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class RunSpec:
    """One run, fully described. Frozen, validated on construction.

    ``None`` means "use the kind-specific default"; :meth:`normalized`
    resolves every such field (and the machine profile) so two specs
    that mean the same run hash identically. Fields that do not apply
    to a kind must stay at their defaults — validation rejects, for
    example, a ``bcast_algo`` on a native run — which keeps the hash
    space free of aliases.
    """

    kind: str
    n: int
    nb: Optional[int] = None
    scheduler: str = "dynamic"
    p: int = 1
    q: int = 1
    cards: int = 1
    mem_gb: float = 64.0
    machine: Optional[str] = None
    lookahead: Optional[str] = None
    bcast_algo: str = "star"
    chunk_kb: Optional[float] = None
    numeric: bool = False
    dtype: str = "float64"
    mxp: bool = False
    refine_tol: Optional[float] = None
    refine_max_iters: Optional[int] = None
    workers: Optional[int] = None
    executor: str = "thread"
    alloc_profile: bool = False
    fault_plan: Optional[str] = None
    checkpoint_every: Optional[int] = None
    retry_max: Optional[int] = None
    comm_timeout: Optional[float] = None
    regrid: Tuple[str, ...] = ()
    on_rank_death: str = "restart"
    seed: int = 42

    def __post_init__(self):
        _require(self.kind in KINDS, f"kind must be one of {KINDS}, got {self.kind!r}")
        _require(isinstance(self.n, int) and self.n >= 1, "n must be a positive int")
        _require(self.nb is None or (isinstance(self.nb, int) and self.nb >= 1),
                 "nb must be a positive int (or None for the kind default)")
        _require(self.p >= 1 and self.q >= 1, "grid dimensions must be positive")
        _require(self.cards >= 1, "cards must be >= 1")
        _require(self.mem_gb > 0, "mem_gb must be positive")
        _require(self.seed >= 0, "seed must be non-negative")
        _require(self.workers is None or self.workers >= 1,
                 "workers must be >= 1 (or None for all cores)")
        _require(self.executor in EXECUTORS,
                 f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        _require(self.chunk_kb is None or self.chunk_kb > 0, "chunk_kb must be positive")
        _require(self.checkpoint_every is None or self.checkpoint_every >= 1,
                 "checkpoint_every must be positive")
        _require(self.retry_max is None or self.retry_max >= 0,
                 "retry_max must be >= 0")
        _require(self.comm_timeout is None or self.comm_timeout > 0,
                 "comm_timeout must be positive")
        _require(self.on_rank_death in ON_RANK_DEATH,
                 f"on_rank_death must be one of {ON_RANK_DEATH}, "
                 f"got {self.on_rank_death!r}")
        _require(isinstance(self.regrid, tuple)
                 and all(isinstance(e, str) for e in self.regrid),
                 "regrid must be a tuple of 'panel=K:PxQ' strings")
        if self.regrid:
            from repro.elastic.schedule import parse_schedule

            try:
                parse_schedule(self.regrid)
            except ValueError as exc:
                raise ValueError(f"invalid regrid schedule: {exc}") from None
        _require(self.scheduler in SCHEDULERS,
                 f"scheduler must be one of {SCHEDULERS}")
        if self.machine is not None:
            machine_profile(self.machine)  # raises on unknown names
            _require(self.kind == "hybrid",
                     "machine profiles pin cards/mem_gb, which only the "
                     "hybrid drivers read")
        # Kind gating: a knob that the kind's driver cannot read must stay
        # at its default, so every distinct hash is a distinct run.
        if self.kind == "native":
            _require(self.lookahead is None,
                     "native runs have no look-ahead knob")
            _require((self.p, self.q) == (1, 1) and self.cards == 1,
                     "native runs are single-card: leave p/q/cards unset")
        else:
            _require(self.scheduler == "dynamic",
                     "scheduler applies to native runs only")
        if self.kind == "hybrid":
            _require(self.lookahead is None or self.lookahead in HYBRID_LOOKAHEADS,
                     f"hybrid lookahead must be one of {HYBRID_LOOKAHEADS}")
        if self.kind == "distributed":
            _require(self.lookahead is None or self.lookahead in DIST_LOOKAHEADS,
                     f"distributed lookahead must be one of {DIST_LOOKAHEADS}")
            _require(not self.numeric,
                     "distributed runs are always numeric; leave numeric unset")
            _require(self.bcast_algo in BCAST_ALGOS,
                     f"bcast_algo must be one of {BCAST_ALGOS}")
        else:
            for name in ("bcast_algo", "chunk_kb", "fault_plan",
                         "checkpoint_every", "retry_max", "comm_timeout",
                         "regrid", "on_rank_death"):
                default = RunSpec.__dataclass_fields__[name].default
                _require(getattr(self, name) == default,
                         f"{name} applies to distributed runs only")
        if self.numeric:
            _require(self.kind in ("native", "hybrid"),
                     "numeric applies to native/hybrid runs")
        _require(self.dtype in DTYPES,
                 f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        if self.mxp:
            _require(self.dtype == "float32",
                     "mxp factors in single precision: set dtype='float32'")
        else:
            _require(self.refine_tol is None and self.refine_max_iters is None,
                     "refine_tol/refine_max_iters apply to mxp runs only")
        _require(self.refine_tol is None or self.refine_tol > 0,
                 "refine_tol must be positive")
        _require(self.refine_max_iters is None or self.refine_max_iters >= 1,
                 "refine_max_iters must be >= 1")

    # -- canonical forms ---------------------------------------------------
    def normalized(self) -> "RunSpec":
        """Resolve every kind-specific default to an explicit value.

        Applies the machine profile (pinning ``cards``/``mem_gb``),
        fills ``nb`` and ``lookahead``, and folds degenerate geometry
        (the numeric hybrid path is single-node, so ``p``/``q``
        collapse to 1). Idempotent; the canonical hash is taken here.
        """
        changes: Dict[str, Any] = {}
        if self.machine is not None:
            overrides = machine_profile(self.machine).spec_overrides()
            for field_name, value in overrides.items():
                if getattr(self, field_name) != value:
                    changes[field_name] = value
        if self.nb is None:
            if self.kind == "hybrid":
                changes["nb"] = (DEFAULT_NB_HYBRID_NUMERIC
                                 if self.numeric or self.mxp
                                 else DEFAULT_NB_HYBRID_MODEL)
            else:
                changes["nb"] = DEFAULT_NB[self.kind]
        if self.lookahead is None and self.kind == "hybrid":
            changes["lookahead"] = "pipelined"
        if self.lookahead is None and self.kind == "distributed":
            changes["lookahead"] = "off"
        if self.mxp:
            # MxP is inherently numeric on native/hybrid (refinement needs
            # the real solution); the flags alone name the same run.
            if self.kind in ("native", "hybrid") and not self.numeric:
                changes["numeric"] = True
            if self.refine_tol is None:
                changes["refine_tol"] = DEFAULT_REFINE_TOL
            if self.refine_max_iters is None:
                changes["refine_max_iters"] = DEFAULT_REFINE_MAX_ITERS
        numeric = changes.get("numeric", self.numeric)
        if self.kind == "hybrid" and numeric and (self.p, self.q) != (1, 1):
            changes["p"] = 1
            changes["q"] = 1
        if self.regrid:
            # Canonical spelling and panel order: "panel=03:2X4" and
            # out-of-order entries hash like their tidy equivalents.
            from repro.elastic.schedule import parse_schedule

            canon = tuple(str(pt) for pt in parse_schedule(self.regrid))
            if canon != self.regrid:
                changes["regrid"] = canon
        return dataclasses.replace(self, **changes) if changes else self

    def to_dict(self) -> dict:
        """The normalized spec as a plain, JSON-ready dict."""
        d = dataclasses.asdict(self.normalized())
        # JSON has no tuples; emit the schedule as a list so the dict is
        # byte-identical across a JSON round-trip.
        d["regrid"] = list(d["regrid"])
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {unknown}")
        if "kind" not in d or "n" not in d:
            raise ValueError("a RunSpec needs at least 'kind' and 'n'")
        return cls(**_coerce_fields(dict(d)))

    def canonical_hash(self) -> str:
        """Hex digest identifying this run's configuration.

        Taken over the normalized dict with sorted keys, so key order
        and omitted defaults never produce distinct hashes for the same
        run: ``nb=None`` hashes like the explicit kind default, hybrid
        ``lookahead=None`` like ``"pipelined"``, and a ``grid`` override
        like its expanded ``p``/``q``. Every *normalized field* is
        identity-relevant — including the ``machine`` profile name, so a
        shorthand spec and one spelling out the same ``cards``/``mem_gb``
        deliberately hash apart (the profile pins future defaults too).

        This digest is the cache key of the whole system: campaign
        artifacts live at ``runs/<hash>.json`` and the benchmark
        service (:mod:`repro.service`) serves repeat configurations by
        it instead of re-executing them.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:_HASH_LEN]

    # -- service scheduling hints -----------------------------------------
    def batch_key(self) -> Tuple[str, str, bool, str]:
        """Dispatch-compatibility key for service request batching.

        Jobs sharing this key — same kind, machine profile, numeric
        mode and executor backend — may ride in one worker dispatch
        (:class:`repro.service.batching.Batcher`): the worker executes
        lookalike runs back to back, amortizing the process round-trip.
        """
        s = self.normalized()
        return (s.kind, s.machine or "", bool(s.numeric), s.executor)

    def cost_units(self) -> float:
        """Coarse relative-work estimate for fair scheduling.

        Units are "one cheap model run ≈ 1". Numeric and distributed
        runs really factor an ``n × n`` matrix, so they charge by flop
        count (``2n³/3``, one unit per 10⁸ flops); analytic model runs
        charge by panel-stage count, which is what their simulation
        loop iterates. Deficit round-robin admission
        (:class:`repro.service.admission.AdmissionController`) charges
        tenants these units, and the batcher refuses to coalesce jobs
        above its ``max_cost_units`` threshold.
        """
        s = self.normalized()
        stages = max(1, -(-s.n // s.nb))
        if s.kind == "distributed" or s.numeric:
            return max(1.0, (2 * s.n**3 / 3) / 1e8)
        return max(1.0, stages / 32)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "RunSpec":
        """A copy with campaign-axis overrides applied.

        Accepts every RunSpec field plus the ``grid`` pseudo-field — a
        ``(p, q)`` pair or ``"PxQ"`` string, the shape axes sweep as one
        unit.
        """
        changes = dict(overrides)
        if "grid" in changes:
            p, q = parse_grid(changes.pop("grid"))
            changes["p"], changes["q"] = p, q
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ValueError(f"unknown RunSpec override keys: {unknown}")
        return dataclasses.replace(self, **_coerce_fields(changes))

    def summary(self) -> str:
        """One human line naming the run."""
        parts = [self.kind, f"n={self.n}"]
        s = self.normalized()
        parts.append(f"nb={s.nb}")
        if (s.p, s.q) != (1, 1):
            parts.append(f"grid={s.p}x{s.q}")
        if s.kind == "hybrid":
            parts.append(f"cards={s.cards} lookahead={s.lookahead}")
        if s.kind == "distributed":
            parts.append(f"bcast={s.bcast_algo} lookahead={s.lookahead}")
            if s.regrid:
                parts.append("regrid=" + ",".join(s.regrid))
            if s.on_rank_death != "restart":
                parts.append(f"on-death={s.on_rank_death}")
        if s.numeric:
            parts.append("numeric")
        if s.mxp:
            parts.append(f"mxp(tol={s.refine_tol:g},k<={s.refine_max_iters})")
        elif s.dtype != "float64":
            parts.append(s.dtype)
        return " ".join(parts)


def _coerce_fields(values: Dict[str, Any]) -> Dict[str, Any]:
    """Smooth over document-format quirks before constructing a spec.

    YAML 1.1 reads ``on``/``off`` as booleans, so a campaign axis
    ``lookahead: [on, off]`` arrives as ``[True, False]`` — map those
    back to the canonical strings. ``mem_gb`` accepts ints.
    """
    if isinstance(values.get("lookahead"), bool):
        values["lookahead"] = "on" if values["lookahead"] else "off"
    if isinstance(values.get("mem_gb"), int):
        values["mem_gb"] = float(values["mem_gb"])
    if isinstance(values.get("regrid"), list):
        # JSON and YAML documents carry the schedule as a list.
        values["regrid"] = tuple(values["regrid"])
    return values


def parse_grid(value: Any) -> Tuple[int, int]:
    """A grid axis value — ``[p, q]``, ``(p, q)`` or ``"PxQ"`` — as (p, q)."""
    if isinstance(value, str):
        try:
            p_text, q_text = value.lower().split("x")
            return int(p_text), int(q_text)
        except ValueError:
            raise ValueError(f"grid string must look like '2x4', got {value!r}") from None
    try:
        p, q = value
        return int(p), int(q)
    except (TypeError, ValueError):
        raise ValueError(f"grid must be a (p, q) pair or 'PxQ', got {value!r}") from None


# -- the flag table ---------------------------------------------------------
#
# One definition per CLI flag, mapped to its RunSpec field, with the
# kinds it applies to and any per-kind parser overrides. The per-kind
# dict values become argparse kwargs verbatim; a kind that is absent
# from the mapping does not get the flag at all.


@dataclass(frozen=True)
class FlagDef:
    """One CLI flag generated from a RunSpec field."""

    field: str
    option: str
    help: str
    kinds: Mapping[str, Mapping[str, Any]]
    type: Optional[Callable] = None
    action: Optional[str] = None
    choices: Optional[tuple] = None
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.option.lstrip("-").replace("-", "_")

    def parser_kwargs(self, kind: str) -> dict:
        """The ``add_argument`` kwargs for this flag under ``kind``.

        Per-kind overrides win over the table-level settings *before*
        the flag's shape is decided, so a flag can be a value option
        for one kind and a ``store_true`` switch for another (the
        distributed ``--lookahead``).
        """
        merged: Dict[str, Any] = {"help": self.help, "action": self.action}
        if self.type is not None:
            merged["type"] = self.type
        if self.choices:
            merged["choices"] = self.choices
        if self.metavar:
            merged["metavar"] = self.metavar
        merged.update(self.kinds[kind])
        if merged.get("action") in ("store_true", "store_false"):
            for incompatible in ("type", "default", "choices", "metavar"):
                merged.pop(incompatible, None)
        else:
            # "append" keeps its action (repeatable value flags like
            # --regrid); anything else is a plain value option.
            if merged.get("action") != "append":
                merged.pop("action", None)
            merged.setdefault("type", int)
            merged.setdefault("default", None)
        return merged


def _regrid_entry(text: str) -> str:
    """argparse ``type`` for ``--regrid``: validate, keep the string.

    A malformed entry raises ``ArgumentTypeError`` so argparse exits 2
    with the parser's one-line message instead of a traceback.
    """
    from repro.elastic.schedule import parse_regrid

    try:
        parse_regrid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


_ALL = ("native", "hybrid", "distributed")

#: The shared flag table: ordering here is the --help ordering.
RUN_FLAGS: Tuple[FlagDef, ...] = (
    FlagDef("n", "--n", "problem size N",
            kinds={"native": {"required": True}, "hybrid": {"required": True},
                   "distributed": {"default": 144}}),
    FlagDef("nb", "--nb", "block size NB",
            kinds={"native": {"default": 300},
                   "hybrid": {"help": "block size NB (default: 64 numeric, "
                                      "1200 model)"},
                   "distributed": {"default": 16}}),
    FlagDef("scheduler", "--scheduler", "native LU scheduler",
            choices=SCHEDULERS, type=str,
            kinds={"native": {"default": "dynamic"}}),
    FlagDef("cards", "--cards", "KNC cards per node",
            kinds={"hybrid": {"default": 1}}),
    FlagDef("p", "--p", "process-grid rows P",
            kinds={"hybrid": {"default": 1}, "distributed": {"default": 2}}),
    FlagDef("q", "--q", "process-grid columns Q",
            kinds={"hybrid": {"default": 1}, "distributed": {"default": 2}}),
    FlagDef("mem_gb", "--mem-gb", "host memory per node (GB)",
            kinds={"hybrid": {"default": 64}}),
    FlagDef("lookahead", "--lookahead", "look-ahead scheme",
            kinds={"hybrid": {"default": "pipelined", "action": None,
                              "type": str, "choices": HYBRID_LOOKAHEADS},
                   "distributed": {
                       "action": "store_true",
                       "help": "overlap panel broadcast with the trailing "
                               "update (Section IV)"}}),
    FlagDef("bcast_algo", "--bcast-algo",
            "panel-broadcast tree along process rows: star fan-out, "
            "binomial tree, or ring / ring-mod (same hop-by-hop ring)",
            choices=BCAST_ALGOS, type=str,
            kinds={"distributed": {"default": "star"}}),
    FlagDef("chunk_kb", "--chunk-kb",
            "segment size for chunked non-blocking transfers (default 256)",
            type=float, metavar="KB", kinds={"distributed": {}}),
    FlagDef("fault_plan", "--fault-plan",
            "seeded fault plan: DSL ('seed=7;crash:rank=1,stage=2;"
            "corrupt:op=bcast,count=2;slow:rank=0,delay=0.001'), "
            "a JSON document, or a path to either",
            type=str, metavar="PLAN", kinds={"distributed": {}}),
    FlagDef("checkpoint_every", "--checkpoint-every",
            "checkpoint every K panel stages (enables rollback recovery)",
            metavar="K", kinds={"distributed": {}}),
    FlagDef("retry_max", "--retry-max",
            "bounded resend retries for the hardened channel",
            metavar="N", kinds={"distributed": {}}),
    FlagDef("comm_timeout", "--comm-timeout",
            "reliable-receive timeout before the first resend (seconds)",
            type=float, metavar="S", kinds={"distributed": {}}),
    FlagDef("regrid", "--regrid",
            "reshape the grid mid-run: at panel K, redistribute onto "
            "PxQ and continue there (repeatable for multi-step "
            "schedules; bitwise-identical to running on the final grid)",
            type=_regrid_entry, action="append", metavar="panel=K:PxQ",
            kinds={"distributed": {}}),
    FlagDef("on_rank_death", "--on-rank-death",
            "recovery mode when a rank dies with no spare: 'restart' "
            "re-runs the lost geometry, 'shrink' redistributes the "
            "newest cut onto the survivors",
            type=str, choices=ON_RANK_DEATH,
            kinds={"distributed": {"default": "restart"}}),
    FlagDef("numeric", "--numeric", "really solve and check",
            action="store_true",
            kinds={"native": {},
                   "hybrid": {"help": "really factor and solve through the "
                                      "offload engine (keep N modest)"}}),
    FlagDef("machine", "--machine",
            f"machine profile pinning cards/mem-gb: {', '.join(MACHINE_PROFILES)}",
            type=str, metavar="NAME", kinds={"hybrid": {}}),
    FlagDef("dtype", "--dtype",
            "working precision of the factorization (float32 runs the SP "
            "kernel/GEMM models; pair with --mxp to recover DP accuracy)",
            type=str, choices=DTYPES,
            kinds={k: {"default": "float64"} for k in _ALL}),
    FlagDef("mxp", "--mxp",
            "mixed-precision HPL-MxP: factor in float32, then iteratively "
            "refine the solution back to double precision",
            action="store_true", kinds={k: {} for k in _ALL}),
    FlagDef("refine_tol", "--refine-tol",
            "scaled-residual convergence target for MxP refinement "
            f"(default {DEFAULT_REFINE_TOL:g}; the DP HPL check passes at 16)",
            type=float, metavar="TOL", kinds={k: {} for k in _ALL}),
    FlagDef("refine_max_iters", "--refine-max-iters",
            "refinement iteration budget before falling back to a full-DP "
            f"factorization (default {DEFAULT_REFINE_MAX_ITERS})",
            metavar="K", kinds={k: {} for k in _ALL}),
    FlagDef("seed", "--seed", "matrix-generator seed for numeric runs",
            kinds={k: {"default": 42} for k in _ALL}),
    FlagDef("workers", "--workers",
            "tile-executor pool width for numeric runs (default: all cores)",
            metavar="N", kinds={k: {} for k in _ALL}),
    FlagDef("executor", "--executor",
            "tile-executor backend: 'thread' (in-process pool) or 'process' "
            "(GIL-free shared-memory worker processes)",
            choices=EXECUTORS, type=str,
            kinds={k: {"default": "thread"} for k in _ALL}),
    FlagDef("alloc_profile", "--alloc-profile",
            "record tracemalloc allocation spans in the result's alloc field",
            action="store_true", kinds={k: {} for k in _ALL}),
)


def run_flags_parser(kind: str) -> argparse.ArgumentParser:
    """The shared parent parser holding ``kind``'s RunSpec flags."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    parent = argparse.ArgumentParser(add_help=False)
    for fd in RUN_FLAGS:
        if kind in fd.kinds:
            parent.add_argument(fd.option, **fd.parser_kwargs(kind))
    return parent


def spec_from_args(kind: str, args: argparse.Namespace) -> RunSpec:
    """Map a parsed namespace back into the canonical RunSpec."""
    values: Dict[str, Any] = {"kind": kind}
    for fd in RUN_FLAGS:
        if kind not in fd.kinds:
            continue
        value = getattr(args, fd.dest)
        if fd.field == "lookahead" and kind == "distributed":
            value = "on" if value else "off"
        if fd.field == "mem_gb" and value is not None:
            value = float(value)
        if value is None and fd.field in ("scheduler", "bcast_algo",
                                          "regrid", "on_rank_death"):
            continue  # keep the dataclass default
        if fd.field == "regrid":
            value = tuple(value)
        values[fd.field] = value
    return RunSpec(**values)
