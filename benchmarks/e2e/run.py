"""Measured end-to-end HPL benchmark: five workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in a fresh child interpreter (``workloads.py``), one
at a time, with ``src`` on its path. Every metric is printed by name
with its unit, ``<out>/<workload>.json`` records the median, quartiles
and sample count of each, and the last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` or, with
``--trace 1``, its per-layer metrics (then ``<workload>.traced.json``
and the Chrome trace ``<workload>.trace.json`` are written instead).
The exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

import summary
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = summary.ROOT
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / "benchmarks" / "out" / "e2e"
#: A child that has not finished after this long is killed as hung.
CHILD_TIMEOUT_S = 165.0


def run_child(workload: str, args, result: pathlib.Path) -> dict:
    """Measure one workload in a fresh interpreter; a crash, hang or
    non-zero exit becomes a failure document with the child's stderr."""
    if result.exists():
        result.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--smoke", str(int(args.smoke)),
           "--out", str(args.out), "--result", str(result)]
    # Own session, so a hung child is killed with everything it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        problem = None if proc.returncode == 0 else f"exit status {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        problem = f"no result within {CHILD_TIMEOUT_S}s"
    # Standard output carries only this runner's report; anything the
    # child printed goes to standard error.
    sys.stderr.write(out)
    if problem is None and result.exists():
        sys.stderr.write(err)
        return json.loads(result.read_text())
    doc = {"workload": workload, "seed": args.seed, "trace": bool(args.trace),
           "metrics": {}, "attempted": 1, "failed": 1,
           "failures": [f"{workload}: {problem or 'no result written'}\n"
                        + err[-8000:]]}
    result.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return doc


def report(doc: dict, bench: dict, trace: bool) -> dict:
    """Print one workload's metrics; return them for the result line."""
    print(f"== {doc['workload']} (seed {doc['seed']}"
          f"{', traced' if trace else ''}): "
          f"{doc['attempted'] - doc['failed']}/{doc['attempted']} ok")
    if trace:
        # A layer the workload's own process never enters did no work
        # there: it reads 0.
        layers = doc.get("layers")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0) if layers else None,
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        e2e = doc["metrics"]
        metrics = {m["name"]: {"value": e2e.get(m["name"], {}).get("value"),
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    for line in summary.metric_rows(metrics):
        print(line)
    for failure in doc.get("failures", []):
        print(f"FAILED {doc['workload']}: {failure}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    bench = summary.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measured seconds per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="traced run: per-layer metrics and a Chrome trace")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for tests")
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    workloads = args.workload or list(WORKLOADS)
    suffix = ".traced.json" if args.trace else ".json"
    attempted = failed = 0
    results = {}
    for workload in workloads:
        doc = run_child(workload, args, args.out / f"{workload}{suffix}")
        results[workload] = report(doc, bench, bool(args.trace))
        attempted += doc["attempted"]
        failed += doc["failed"]
    correct = failed == 0
    metrics = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
