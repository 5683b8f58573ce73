"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's experiments and runs ad-hoc benchmark
configurations without going through pytest:

``info``
    Table I machine configurations and derived peaks.
``table2`` / ``fig4`` / ``fig6`` / ``fig11`` / ``table3`` / ``energy``
    The corresponding table/figure series.
``native --n 30000 [--nb 300] [--scheduler dynamic|static] [--numeric]``
    One native Linpack run (``--numeric`` really solves and checks).
``hybrid --n 84000 [--cards 1] [--p 1 --q 1] [--lookahead pipelined]``
    One hybrid HPL run; ``--numeric`` (with ``--nb``) instead runs the
    real functional hybrid factorization + solve + residual check.
``distributed --n 144 --nb 16 --p 2 --q 3``
    A real distributed solve on the simulated MPI world. Takes
    ``--bcast-algo {star,ring,binomial,ring-mod}``, ``--lookahead``
    (overlap panel broadcast with the trailing update) and
    ``--chunk-kb`` (segment size for non-blocking transfers), plus the
    resilience knobs: ``--fault-plan`` (seeded deterministic failure
    scenario — DSL, JSON or a file), ``--checkpoint-every K``
    (panel-boundary checkpoints + rollback recovery), ``--retry-max``
    and ``--comm-timeout`` (the hardened channel's bounded-retry
    policy), ``--regrid "panel=K:PxQ"`` (reshape the process grid
    mid-run, repeatable — the run redistributes its checkpoint cut and
    continues on the new grid, bitwise-identically) and
    ``--on-rank-death {restart,shrink}`` (shrink redistributes onto
    the surviving ranks instead of re-running the lost geometry).
``elastic plan --n 144 --nb 16 --grid 2x2 --regrid panel=3:2x4``
    Dry-run a relayout: the block transfer matrix between the two
    block-cyclic layouts, per-rank send/recv bytes, and the predicted
    redistribution time under the machine model's network — without
    running anything. A malformed ``--regrid`` exits 2 with a one-line
    parse error.
``campaign run spec.yaml`` / ``campaign expand`` / ``campaign tune``
    Declarative sweep campaigns (see :mod:`repro.campaign`): a YAML or
    JSON document names a base configuration and axes to sweep; ``run``
    executes the expanded matrix (process-pool fan-out, per-run JSON
    artifacts, resume-from-artifacts — re-running a finished campaign
    executes nothing) and writes the merged best-per-cell report;
    ``expand`` previews the matrix without running it; ``tune`` runs
    the successive-halving auto-tuner and prints the best configuration
    per machine model.

The run subcommands (``native``, ``hybrid``, ``distributed``) are all
generated from one flag table (:data:`repro.spec.RUN_FLAGS`): every
flag maps onto a field of the canonical :class:`repro.spec.RunSpec`,
and each command parses its arguments into a spec and executes it via
:func:`repro.api.run` — exactly the path campaign workers and the
auto-tuners use.

Every numeric command exits non-zero when the HPL residual check
fails, and prints the failing residual on stderr (also under
``--json``, whose stdout stays valid JSON).

The numeric paths (``native --numeric``, ``hybrid --numeric``,
``distributed``) additionally take the substrate knobs:

``--workers N``
    tile-executor pool width (default: all cores; ``1`` = inline);
``--no-pack-cache``
    disable the pack-once tile cache and re-pack every GEMM panel;
``--alloc-profile``
    wrap the factor/solve phases in tracemalloc spans and record the
    steady-state temporary bytes in the result's ``alloc`` field.
``gantt --n 5000 [--scheduler dynamic]``
    ASCII Gantt chart of a native LU schedule (Figure 7).

The run commands (``native``, ``hybrid``, ``distributed``, ``gantt``)
share three observability flags:

``--json``
    print the run's :class:`~repro.obs.result.RunResult` as JSON
    (deterministic: identical seeded runs emit identical bytes), now
    including the canonical ``spec`` block and ``spec_hash``;
``--trace-out PATH``
    write the DES trace as a Chrome ``trace_event`` file, loadable in
    ``about:tracing`` or https://ui.perfetto.dev;
``--metrics``
    print the run's metrics registry as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.machine import KNC, SNB
from repro.spec import (
    DTYPES,
    RunSpec,
    _regrid_entry,
    run_flags_parser,
    spec_from_args,
)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """The uniform observability flags shared by every run command."""
    p.add_argument(
        "--json", action="store_true", help="emit the RunResult as JSON"
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the trace as a Chrome trace_event file",
    )
    p.add_argument(
        "--metrics", action="store_true", help="print the metrics registry"
    )


def _emit_observability(r, args) -> bool:
    """Handle --json / --trace-out / --metrics for a RunResult.

    Returns True when JSON replaced the human-readable report (so the
    caller skips its normal print and stdout stays valid JSON).
    """
    if getattr(args, "trace_out", None):
        trace = getattr(r, "trace", None)
        if trace is None:
            print(f"warning: no trace recorded; {args.trace_out} not written", file=sys.stderr)
        else:
            try:
                trace.write_chrome_trace(args.trace_out)
            except OSError as exc:
                print(f"error: cannot write trace to {args.trace_out}: {exc}", file=sys.stderr)
                raise SystemExit(2)
    if getattr(args, "json", False):
        print(r.to_json())
        return True
    if getattr(args, "metrics", False) and r.metrics is not None:
        from repro.report import Table

        t = Table("Metrics", ["name", "value"])
        for name, value in r.metric_rows():
            t.add(name, value)
        print(t)
    return False


def _numeric_exit(r) -> int:
    """Exit status for a numeric run: 0 when the residual check passed.

    On failure the offending residual goes to stderr — visible even
    when ``--json`` owns stdout — and the exit code is 1, so scripted
    callers (and CI) cannot mistake a failed factorization for success.
    """
    if getattr(r, "passed", True):
        return 0
    from repro.hpl.residual import HPL_THRESHOLD

    print(
        f"error: HPL residual check FAILED: residual={r.residual:.4f} "
        f"(threshold {HPL_THRESHOLD:g})",
        file=sys.stderr,
    )
    return 1


def _cmd_info(_args) -> int:
    from repro.report import Table

    t = Table("Machine models (Table I)", ["parameter", "SNB", "KNC"])
    t.add("cores x SMT", f"{SNB.cores} x {SNB.smt}", f"{KNC.cores} x {KNC.smt}")
    t.add("clock (GHz)", SNB.clock_ghz, KNC.clock_ghz)
    t.add("DP GFLOPS", round(SNB.peak_dp_gflops()), round(KNC.peak_dp_gflops()))
    t.add("SP GFLOPS", round(SNB.peak_sp_gflops()), round(KNC.peak_sp_gflops()))
    t.add("STREAM (GB/s)", SNB.stream_bw_gbs, KNC.stream_bw_gbs)
    t.add("DRAM (GB)", SNB.dram_bytes // 2**30, KNC.dram_bytes // 2**30)
    print(t)
    return 0


def _cmd_table2(_args) -> int:
    from repro.machine.gemm_model import dgemm_efficiency_vs_k, sgemm_efficiency_vs_k
    from repro.report import Table

    ks = (120, 180, 240, 300, 340, 400)
    d, s = dgemm_efficiency_vs_k(ks), sgemm_efficiency_vs_k(ks)
    t = Table("Table II", ["k", "SGEMM eff", "SGEMM GF", "DGEMM eff", "DGEMM GF"])
    for k in ks:
        t.add(k, round(s[k][0], 4), round(s[k][1]), round(d[k][0], 4), round(d[k][1]))
    print(t)
    return 0


def _cmd_fig4(args) -> int:
    from repro.machine.gemm_model import gemm_gflops, snb_dgemm_efficiency
    from repro.report import Table

    t = Table("Figure 4", ["N", "SNB", "KNC kernel", "KNC packed"])
    for n in args.sizes:
        t.add(
            n,
            round(snb_dgemm_efficiency(n) * SNB.peak_dp_gflops()),
            round(gemm_gflops(n, n, 300)),
            round(gemm_gflops(n, n, 300, include_packing=True)),
        )
    print(t)
    return 0


def _cmd_fig6(args) -> int:
    from repro.hpl import NativeHPL
    from repro.hpl.driver import snb_hpl_gflops
    from repro.report import Table

    t = Table("Figure 6", ["N", "SNB MKL", "KNC static", "KNC dynamic"])
    for n in args.sizes:
        sta = NativeHPL(n, scheduler="static").run()
        dyn = NativeHPL(n, scheduler="dynamic").run()
        t.add(n, round(snb_hpl_gflops(n)), round(sta.gflops), round(dyn.gflops))
    print(t)
    return 0


def _cmd_fig11(args) -> int:
    from repro.hybrid import OffloadDGEMM
    from repro.report import Table

    t = Table("Figure 11", ["M=N", "1 card GF", "eff", "2 cards GF", "eff"])
    for m in args.sizes:
        r1 = OffloadDGEMM(m, m).run()
        r2 = OffloadDGEMM(m, m, cards=2).run()
        t.add(m, round(r1.gflops), round(r1.efficiency, 3), round(r2.gflops), round(r2.efficiency, 3))
    print(t)
    return 0


def _cmd_table3(_args) -> int:
    from repro.hybrid import HybridHPL, NodeConfig
    from repro.report import Table

    gb = 1024**3
    rows = [
        ("basic, 1 card", 84_000, 1, 1, 1, "basic", 64),
        ("pipeline, 1 card", 84_000, 1, 1, 1, "pipelined", 64),
        ("pipeline, 1 card", 168_000, 2, 2, 1, "pipelined", 64),
        ("pipeline, 1 card", 825_000, 10, 10, 1, "pipelined", 64),
        ("pipeline, 2 cards", 84_000, 1, 1, 2, "pipelined", 64),
        ("pipeline, 2 cards", 822_000, 10, 10, 2, "pipelined", 64),
        ("pipeline, 1 card, 128GB", 242_000, 2, 2, 1, "pipelined", 128),
    ]
    t = Table("Table III (hybrid rows)", ["system", "N", "P", "Q", "TFLOPS", "eff %"])
    for label, n, p, q, cards, la, mem in rows:
        r = HybridHPL(
            n, node=NodeConfig(cards=cards, host_mem_bytes=mem * gb), p=p, q=q, lookahead=la
        ).run()
        t.add(label, f"{n // 1000}K", p, q, round(r.tflops, 2), round(100 * r.efficiency, 1))
    print(t)
    return 0


def _cmd_energy(_args) -> int:
    from repro.cluster.native_cluster import NativeClusterHPL
    from repro.hybrid import HybridHPL
    from repro.machine import gflops_per_watt, hybrid_node_power, native_node_power
    from repro.report import Table

    t = Table("Energy (Section VII)", ["configuration", "TFLOPS", "GFLOPS/W"])
    h = HybridHPL(84000).run()
    t.add("hybrid 1 node", round(h.tflops, 2), round(gflops_per_watt(h.tflops * 1e3, hybrid_node_power(1).total_w), 2))
    n = NativeClusterHPL(30000).run()
    t.add("native 1 card", round(n.tflops, 2), round(n.gflops_per_watt, 2))
    n100 = NativeClusterHPL(300000, p=10, q=10).run()
    t.add("native 10x10", round(n100.tflops, 1), round(n100.gflops_per_watt, 2))
    h100 = HybridHPL(825000, p=10, q=10).run()
    t.add("hybrid 10x10", round(h100.tflops, 1), round(gflops_per_watt(h100.tflops * 1e3, 100 * hybrid_node_power(1).total_w), 2))
    print(t)
    return 0


def _cmd_native(args) -> int:
    from repro import api

    spec = spec_from_args("native", args)
    r = api.run(spec)
    if not _emit_observability(r, args):
        print(
            f"N={r.n} nb={r.nb} scheduler={r.scheduler}: {r.gflops:.1f} GFLOPS "
            f"({100 * r.efficiency:.1f}%), {r.time_s:.3f}s"
        )
        if spec.numeric:
            print(f"residual={r.residual:.4f} -> {'PASSED' if r.passed else 'FAILED'}")
    if spec.numeric:
        return _numeric_exit(r)
    return 0


def _cmd_hybrid(args) -> int:
    from repro import api

    spec = spec_from_args("hybrid", args)
    r = api.run(spec)
    if spec.numeric:
        if not _emit_observability(r, args):
            print(
                f"N={r.n} nb={r.nb} cards={r.cards} workers={r.workers}: "
                f"{r.gflops:.2f} GFLOPS (wall), residual={r.residual:.4f} "
                f"-> {'PASSED' if r.passed else 'FAILED'}"
            )
        return _numeric_exit(r)
    if not _emit_observability(r, args):
        print(
            f"N={r.n} {r.p}x{r.q} cards={r.cards} {r.lookahead}: {r.tflops:.3f} TFLOPS "
            f"({100 * r.efficiency:.1f}%), card idle {100 * r.knc_idle_fraction:.1f}%"
        )
    return 0


def _cmd_distributed(args) -> int:
    from repro import api

    spec = spec_from_args("distributed", args)
    r = api.run(spec)
    if not _emit_observability(r, args):
        mode = f"lookahead/{r.bcast_algo}" if r.lookahead else f"sync/{r.bcast_algo}"
        print(
            f"N={r.n} NB={r.nb} grid {r.p}x{r.q} [{mode}]: "
            f"residual={r.residual:.4f} "
            f"-> {'PASSED' if r.passed else 'FAILED'}; "
            f"{r.total_bytes / 1e6:.2f} MB total traffic; "
            f"comm exposed {r.exposed_comm_s:.3f}s hidden {r.hidden_comm_s:.3f}s"
        )
        if r.resilience is not None:
            res = r.resilience
            print(
                f"resilience: attempts={res['attempts']} "
                f"recoveries={res['recoveries']} "
                f"retries={res.get('retries', 0)} "
                f"resends={res.get('resends', 0)} "
                f"corruption={res.get('corruption_detected', 0)} "
                f"checkpoints={res.get('checkpoints', 0)} "
                f"({res.get('checkpoint_bytes', 0) / 1e3:.1f} kB)"
            )
    return _numeric_exit(r)


def _cmd_selftest(_args) -> int:
    from repro.validate import selftest

    return 0 if selftest() else 1


def _cmd_hpldat(args) -> int:
    from repro.hpl.hpldat import format_hpl_output, parse_hpl_dat, run_hpl_dat
    from repro.hybrid import NodeConfig

    with open(args.file) as fh:
        cfg = parse_hpl_dat(fh.read())
    rows = run_hpl_dat(cfg, node=NodeConfig(cards=args.cards))
    print(format_hpl_output(rows))
    return 0


def _cmd_tune(args) -> int:
    from repro.hpl.tuner import tune

    r = tune(args.nodes, cards=args.cards, host_mem_gb=args.mem_gb)
    print(r.describe())
    return 0


def _cmd_gantt(args) -> int:
    from repro import api
    from repro.report import render_gantt

    r = api.run(RunSpec(kind="native", n=args.n, scheduler=args.scheduler))
    if not _emit_observability(r, args):
        print(f"{args.scheduler} schedule, N={args.n}: {r.gflops:.0f} GFLOPS")
        print(render_gantt(r.trace, width=args.width))
    return 0


def _cmd_campaign_run(args) -> int:
    from repro.campaign import load_campaign, run_campaign
    from repro.campaign.report import render_report

    campaign = load_campaign(args.spec)
    out = args.out or os.path.join("campaigns", campaign.name)
    cache = None
    if args.cache_dir:
        from repro.service import ResultCache

        cache = ResultCache(disk_dir=args.cache_dir)
    report = run_campaign(
        campaign,
        out,
        resume=not args.no_resume,
        workers=args.workers,
        timeout_s=args.timeout_s,
        cache=cache,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(campaign, report))
        print(f"artifacts: {report.out_dir}")
    totals = report.totals
    failed = totals["errors"] + totals["crashes"] + totals["timeouts"]
    return 1 if failed else 0


def _cmd_campaign_expand(args) -> int:
    from repro.campaign import expand_matrix, load_campaign

    campaign = load_campaign(args.spec)
    specs, duplicates = expand_matrix(campaign)
    if args.json:
        print(json.dumps(
            {
                "name": campaign.name,
                "deduplicated": duplicates,
                "runs": [
                    {"spec_hash": s.canonical_hash(), "spec": s.to_dict()}
                    for s in specs
                ],
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(
        f"campaign {campaign.name}: {len(specs)} unique runs "
        f"({duplicates} duplicates dropped)"
    )
    for s in specs:
        print(f"  {s.canonical_hash()}  {s.summary()}")
    return 0


def _cmd_campaign_tune(args) -> int:
    from repro.campaign.tuner import render_machine_table, tune_machine_models

    machines = args.machines.split(",") if args.machines else None
    rows = tune_machine_models(
        machines=machines, nodes=args.nodes, objective=args.objective
    )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_machine_table(rows, objective=args.objective))
    return 0


def _cmd_service_serve(args) -> int:
    import asyncio

    from repro.service import Service, serve, serve_stdio

    svc = Service(
        cache_dir=args.cache_dir,
        workers=args.workers,
        use_processes=not args.threads,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        elastic=args.elastic,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
    )

    async def _go() -> None:
        try:
            if args.stdio:
                await serve_stdio(svc)
            else:
                await serve(svc, host=args.host, port=args.port)
        finally:
            await svc.close()

    try:
        asyncio.run(_go())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_service_submit(args) -> int:
    from repro.service.client import ServiceError, submit_once

    try:
        spec = json.loads(args.spec)
    except ValueError:
        print(f"--spec must be a JSON RunSpec document, got {args.spec!r}",
              file=sys.stderr)
        return 2
    on_event = None
    if args.events:
        on_event = lambda ev: print(json.dumps(ev, sort_keys=True), file=sys.stderr)
    try:
        artifact = submit_once(
            args.host, args.port, spec, tenant=args.tenant, on_event=on_event
        )
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"service request failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(artifact, indent=2, sort_keys=True))
    return 0 if artifact.get("status") == "ok" else 1


def _grid_arg(text: str):
    """argparse ``type`` for a ``PxQ`` grid: exit 2 on malformed input."""
    from repro.spec import parse_grid

    try:
        return parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_elastic_plan(args) -> int:
    from repro.cluster.grid import ProcessGrid
    from repro.elastic import plan_relayout, predict_time_s, segments
    from repro.report import Table

    p, q = args.grid
    n_blocks = -(-args.n // args.nb)
    try:
        spans = segments(n_blocks, ProcessGrid(p, q), args.regrid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for (g0, _k0, cut), (g1, _k1, _k2) in zip(spans, spans[1:]):
        plan = plan_relayout(args.n, args.nb, g0, g1, dtype=args.dtype)
        print(f"panel {cut}: {plan.describe()}")
        t = Table(
            f"Transfer matrix {g0.p}x{g0.q} -> {g1.p}x{g1.q}",
            ["src", "dst", "bytes"],
        )
        for (src, dst), nbytes in sorted(plan.transfer_matrix.items()):
            t.add(src, dst, nbytes)
        print(t)
        t = Table("Per-rank volume", ["rank", "send bytes", "recv bytes"])
        for rank in sorted(set(plan.send_bytes) | set(plan.recv_bytes)):
            t.add(rank, plan.send_bytes.get(rank, 0),
                  plan.recv_bytes.get(rank, 0))
        print(t)
        print(f"lower bound: {plan.lower_bound_bytes} bytes "
              f"(efficiency {plan.efficiency:.3f})")
        print(f"predicted redistribution time: "
              f"{predict_time_s(plan) * 1e3:.3f} ms")
    return 0


def _sizes(text: str) -> List[int]:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand registered.

    The run subcommands (``native``/``hybrid``/``distributed``) take
    their flags from the shared :data:`repro.spec.RUN_FLAGS` table via
    a per-kind parent parser, so a new RunSpec knob becomes a CLI flag
    in exactly one place.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="Xeon Phi Linpack reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="machine configurations").set_defaults(fn=_cmd_info)
    sub.add_parser("selftest", help="fast cross-layer sanity checks").set_defaults(
        fn=_cmd_selftest
    )
    sub.add_parser("table2", help="GEMM efficiency vs k").set_defaults(fn=_cmd_table2)

    p = sub.add_parser("fig4", help="DGEMM vs size")
    p.add_argument("--sizes", type=_sizes, default=[1000, 5000, 17000, 28000])
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig6", help="native Linpack vs size")
    p.add_argument("--sizes", type=_sizes, default=[2000, 5000, 15000, 30000])
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser("fig11", help="offload DGEMM vs size")
    p.add_argument("--sizes", type=_sizes, default=[10000, 40000, 82000])
    p.set_defaults(fn=_cmd_fig11)

    sub.add_parser("table3", help="hybrid HPL grid").set_defaults(fn=_cmd_table3)
    sub.add_parser("energy", help="GFLOPS/W study").set_defaults(fn=_cmd_energy)

    run_commands = (
        ("native", "one native Linpack run", _cmd_native),
        ("hybrid", "one hybrid HPL run", _cmd_hybrid),
        ("distributed", "real distributed solve", _cmd_distributed),
    )
    for kind, help_text, fn in run_commands:
        p = sub.add_parser(kind, help=help_text, parents=[run_flags_parser(kind)])
        _add_obs_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("hpldat", help="run an HPL.dat configuration file")
    p.add_argument("--file", required=True)
    p.add_argument("--cards", type=int, default=1)
    p.set_defaults(fn=_cmd_hpldat)

    p = sub.add_parser("tune", help="pick N/NB/grid for a cluster")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--cards", type=int, default=1)
    p.add_argument("--mem-gb", type=float, default=64.0)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("gantt", help="render a schedule")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--scheduler", choices=["dynamic", "static"], default="dynamic")
    p.add_argument("--width", type=int, default=100)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_gantt)

    p = sub.add_parser("campaign", help="declarative sweep campaigns")
    csub = p.add_subparsers(dest="subcommand", required=True)

    pc = csub.add_parser("run", help="run (or resume) a campaign document")
    pc.add_argument("spec", metavar="FILE", help="campaign YAML or JSON file")
    pc.add_argument("--out", default=None, metavar="DIR",
                    help="artifact directory (default: campaigns/<name>)")
    pc.add_argument("--workers", type=int, default=None, metavar="N",
                    help="process-pool width (overrides the document)")
    pc.add_argument("--timeout-s", type=float, default=None, metavar="S",
                    help="per-run timeout in the pool (overrides the document)")
    pc.add_argument("--no-resume", action="store_true",
                    help="re-run completed cells instead of serving the cache")
    pc.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="shared result-cache directory (e.g. a service's) "
                         "to serve completed cells from")
    pc.add_argument("--json", action="store_true",
                    help="emit the merged report as JSON")
    pc.set_defaults(fn=_cmd_campaign_run)

    pc = csub.add_parser("expand", help="preview a campaign's run matrix")
    pc.add_argument("spec", metavar="FILE", help="campaign YAML or JSON file")
    pc.add_argument("--json", action="store_true",
                    help="emit the matrix as JSON")
    pc.set_defaults(fn=_cmd_campaign_expand)

    pc = csub.add_parser(
        "tune", help="successive-halving: best config per machine model"
    )
    pc.add_argument("--machines", default=None, metavar="A,B",
                    help="comma-separated profile names (default: all)")
    pc.add_argument("--nodes", type=int, default=1)
    pc.add_argument("--objective", default="gflops",
                    help="RunResult key to maximise (default: gflops)")
    pc.add_argument("--json", action="store_true",
                    help="emit the tuning rows as JSON")
    pc.set_defaults(fn=_cmd_campaign_tune)

    p = sub.add_parser("elastic", help="mid-run grid reconfiguration tools")
    esub = p.add_subparsers(dest="subcommand", required=True)

    pe = esub.add_parser(
        "plan",
        help="dry-run a relayout: transfer matrix, per-rank bytes, "
             "predicted redistribution time",
    )
    pe.add_argument("--n", type=int, default=144, help="problem size N")
    pe.add_argument("--nb", type=int, default=16, help="block size NB")
    pe.add_argument("--grid", type=_grid_arg, default=(2, 2), metavar="PxQ",
                    help="initial process grid (default 2x2)")
    pe.add_argument("--regrid", type=_regrid_entry, action="append",
                    required=True, metavar="panel=K:PxQ",
                    help="schedule entry (repeatable; one plan per hop)")
    pe.add_argument("--dtype", choices=DTYPES, default="float64",
                    help="matrix element type the byte totals assume")
    pe.set_defaults(fn=_cmd_elastic_plan)

    p = sub.add_parser("service", help="benchmark-as-a-service over NDJSON")
    ssub = p.add_subparsers(dest="subcommand", required=True)

    ps = ssub.add_parser("serve", help="run the service (TCP or stdio)")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=0,
                    help="TCP port (0 picks one; printed on startup)")
    ps.add_argument("--stdio", action="store_true",
                    help="speak NDJSON on stdin/stdout instead of TCP")
    ps.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="disk tier for the result cache (share with "
                         "campaigns via their runs/ directory)")
    ps.add_argument("--workers", type=int, default=None, metavar="N",
                    help="worker-pool width (default: REPRO_WORKERS or "
                         "half the cores)")
    ps.add_argument("--threads", action="store_true",
                    help="thread workers instead of processes (no crash "
                         "isolation; instant startup)")
    ps.add_argument("--max-queue", type=int, default=64, metavar="N",
                    help="admission bound before load shedding (default 64)")
    ps.add_argument("--batch-max", type=int, default=8, metavar="N",
                    help="max compatible jobs coalesced per dispatch")
    ps.add_argument("--elastic", action="store_true",
                    help="resize the worker pool between dispatches: grow "
                         "under queue-depth pressure, shrink when idle")
    ps.add_argument("--min-workers", type=int, default=None, metavar="N",
                    help="elastic floor the idle pool shrinks to (default 1)")
    ps.add_argument("--max-workers", type=int, default=None, metavar="N",
                    help="elastic ceiling under pressure (default: --workers)")
    ps.set_defaults(fn=_cmd_service_serve)

    ps = ssub.add_parser("submit", help="submit one spec to a running service")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, required=True)
    ps.add_argument("--spec", required=True, metavar="JSON",
                    help="RunSpec document, e.g. "
                         "'{\"kind\": \"hybrid\", \"n\": 84000}'")
    ps.add_argument("--tenant", default="default",
                    help="fairness bucket for admission control")
    ps.add_argument("--events", action="store_true",
                    help="stream progress events to stderr")
    ps.set_defaults(fn=_cmd_service_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream consumer (head, jq -e, ...) closed stdout early.
        # Point stdout at devnull so the interpreter's exit flush of the
        # dangling buffer does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
