"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` is the reference (the parent commit), ``B_DIR`` the candidate.
Each holds the ``<workload>.json`` files of one ``run.py`` run, or one
subdirectory per run (``A_DIR/1/``, ``A_DIR/2/``, ...), as when each
side is run over several seeds. Bounds and senses come from
``BENCHMARK.json``. One row per workload and end-to-end metric gives
each side's median and quartiles over its runs, and a verdict:

``worse``
    B's median is worse than A's by more than the metric's bound;
``better``
    B's median is better by more than the bound, and either both
    sides' run-to-run spread is within the bound or every B run beats
    every A run;
``unresolved``
    a side's spread (interquartile distance over median) is wider
    than the bound and neither side wins every run;
``same``
    otherwise.

The exit status is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

import summary


def load_runs(run_dir: pathlib.Path) -> Dict[str, List[dict]]:
    """workload -> the untraced result documents under ``run_dir``."""
    run_dir = pathlib.Path(run_dir)
    runs: Dict[str, List[dict]] = {}
    for path in sorted([*run_dir.glob("*.json"), *run_dir.glob("*/*.json")]):
        if path.name.endswith((".traced.json", ".trace.json")):
            continue
        doc = json.loads(path.read_text())
        if "workload" in doc:
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def side(docs: List[dict], name: str) -> Optional[dict]:
    """Median, quartiles and per-run values of one metric."""
    values = [d["metrics"].get(name, {}).get("value") for d in docs]
    values = [v for v in values if v is not None]
    if not values:
        return None
    return dict(summary.quartiles(values), samples=values)


def verdict(a: Optional[dict], b: Optional[dict], better: str,
            bound: float) -> str:
    """The verdict for one metric (see the module docstring)."""
    if a is None or b is None:
        return "n/a"
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    if worse_by > bound:
        return "worse"
    b_wins = all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"])
    a_wins = all(sign * (x - y) < 0 for x in a["samples"] for y in b["samples"])
    wide = max(summary.spread(a), summary.spread(b)) > bound
    if worse_by < -bound and (not wide or b_wins):
        return "better"
    if wide and not (a_wins or b_wins):
        return "unresolved"
    return "same"


def compare(a_dir: pathlib.Path, b_dir: pathlib.Path, bench: dict) -> List[dict]:
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        for m in bench["end_to_end"]:
            a = side(a_runs[workload], m["name"])
            b = side(b_runs[workload], m["name"])
            rows.append({"workload": workload, "metric": m["name"],
                         "unit": m["unit"], "a": a, "b": b,
                         "verdict": verdict(a, b, m["better"], m["bound"])})
    return rows


def _fmt(s: Optional[dict]) -> str:
    if s is None:
        return f"{'null':<34}"
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}".ljust(34)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_dir", type=pathlib.Path, help="reference runs")
    ap.add_argument("b_dir", type=pathlib.Path, help="candidate runs")
    args = ap.parse_args(argv)
    rows = compare(args.a_dir, args.b_dir, summary.load_benchmark())
    if not rows:
        print("no workload present on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<15} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} verdict")
    for r in rows:
        print(f"{r['workload']:<16} {r['metric']:<15} {_fmt(r['a'])} "
              f"{_fmt(r['b'])} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
