#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the throughput-style figures in two sets of benchmark JSON
artifacts (as written by ``benchmarks/conftest.py``'s ``emit_json``
fixture, i.e. ``RunResult.to_dict()`` rows) and exits non-zero when any
figure in ``current`` has dropped more than ``--threshold`` (default
20%) below ``baseline``.

Usage::

    python tools/bench_compare.py BASELINE CURRENT [--threshold 0.2]

``BASELINE`` and ``CURRENT`` are each a ``.json`` file or a directory;
directories are matched by filename, and only files present in the
*baseline* set are compared — extra artifacts in ``current`` are
ignored, so the committed baseline directory decides what is gated.

Comparable figures are numeric leaves whose key names a rate, an
efficiency or a speedup (``gflops``, ``tflops``, ``efficiency``,
``speedup``, ``requests_per`` — including prefixed forms like
``snb_gflops``); wall-clock times, counters and paper reference values
(``paper_*``) are never gated. Higher is better for every rate key.
Two families are gated the other way round — growth beyond
``--threshold`` is the regression: allocation figures (keys naming
both ``alloc`` and ``bytes``, as emitted by
``benchmarks/bench_alloc.py``) and latency figures (keys naming
``latency``, ``p99``, ``p50`` or ``queue_wait``, as emitted by
``benchmarks/bench_service.py``) and refinement-iteration counts
(keys naming ``refine_iters``, as emitted by
``benchmarks/bench_mxp.py`` — more sweeps to recover double precision
is the regression; ``mxp_speedup`` is gated higher-is-better through
the ordinary ``speedup`` rule) and redistribution times (keys naming
``regrid`` and ending in ``_s``, as emitted by
``benchmarks/bench_elastic.py`` — a slower mid-run grid reshape is the
regression; ``redistribution_efficiency`` is gated higher-is-better
through the ordinary ``efficiency`` rule).

Rows of a list-valued artifact are matched by index, so the gate also
fails closed on row identity: when a baseline row and the current row
at the same index disagree on a string-valued identity leaf (``bench``,
``mode``), the figures would be compared across different rows, and
that mismatch is itself reported as a REGRESSION.

Standard library only, so CI can run it before (or without) installing
the package.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Dict, Iterator, List, Tuple

#: A leaf is gated higher-is-better when its key contains one of these
#: (case-insensitive).
RATE_KEY_PARTS = ("gflops", "tflops", "efficiency", "speedup", "requests_per")

#: A leaf is gated lower-is-better when its key contains ALL of these:
#: steady-state allocation figures, where growth is the regression.
ALLOC_KEY_PARTS = ("alloc", "bytes")

#: A leaf is gated lower-is-better when its key contains ANY of these:
#: latency figures (service submit latency, queue wait, percentile
#: summaries), where growth is the regression.
LATENCY_KEY_PARTS = ("latency", "p99", "p50", "queue_wait")

#: A leaf is gated lower-is-better when its key contains ANY of these:
#: MxP refinement iteration counts — needing more refinement sweeps to
#: recover double-precision accuracy is the regression.
REFINE_KEY_PARTS = ("refine_iters",)

#: A leaf is gated lower-is-better when its key names ``regrid`` and
#: ends in ``_s``: redistribution wall/predicted seconds, where a
#: slower grid reshape is the regression.
REGRID_KEY_PART = "regrid"

#: ...unless it also matches one of these (reference data, not measurements).
SKIP_KEY_PARTS = ("paper",)

#: String leaves naming which row of a list-valued artifact a dict is.
IDENTITY_KEYS = ("bench", "mode")


def classify_key(key: str) -> str:
    """'higher' / 'lower' for gated keys, '' for everything else."""
    k = key.lower()
    if any(part in k for part in SKIP_KEY_PARTS):
        return ""
    if all(part in k for part in ALLOC_KEY_PARTS):
        return "lower"
    if any(part in k for part in LATENCY_KEY_PARTS):
        return "lower"
    if any(part in k for part in REFINE_KEY_PARTS):
        return "lower"
    if REGRID_KEY_PART in k and k.endswith("_s"):
        return "lower"
    if any(part in k for part in RATE_KEY_PARTS):
        return "higher"
    return ""


def is_rate_key(key: str) -> bool:
    return classify_key(key) == "higher"


def iter_rate_leaves(node, path: str = "") -> Iterator[Tuple[str, float, str]]:
    """Yield (dotted.path, value, sense) for every gated numeric leaf."""
    if isinstance(node, dict):
        for key in sorted(node):
            sub = f"{path}.{key}" if path else str(key)
            value = node[key]
            if isinstance(value, (dict, list)):
                yield from iter_rate_leaves(value, sub)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                sense = classify_key(str(key))
                if sense and math.isfinite(value):
                    yield sub, float(value), sense
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from iter_rate_leaves(value, f"{path}[{i}]")


def iter_rows(node, path: str = "") -> Iterator[Tuple[str, Dict[str, object]]]:
    """Yield (row path, identity leaves) for every dict row of a list."""
    if isinstance(node, dict):
        for key in sorted(node):
            sub = f"{path}.{key}" if path else str(key)
            yield from iter_rows(node[key], sub)
    elif isinstance(node, list):
        for i, row in enumerate(node):
            sub = f"{path}[{i}]"
            if isinstance(row, dict):
                yield sub, {k: row.get(k) for k in IDENTITY_KEYS}
            yield from iter_rows(row, sub)


def row_mismatches(base, cur) -> List[str]:
    """Rows present in both sets whose string identity leaves differ."""
    cur_rows = dict(iter_rows(cur))
    out = []
    for path, ids in iter_rows(base):
        if path not in cur_rows:
            continue
        for key, value in ids.items():
            if isinstance(value, str) and cur_rows[path][key] != value:
                out.append(f"{path}.{key}: {value!r} -> {cur_rows[path][key]!r}")
    return out


def load_rates(path: pathlib.Path) -> Dict[str, Tuple[float, str]]:
    return {
        key: (value, sense)
        for key, value, sense in iter_rate_leaves(json.loads(path.read_text()))
    }


def collect(root: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Map artifact name -> json path for a file or directory argument."""
    if root.is_file():
        return {root.name: root}
    if root.is_dir():
        return {p.name: p for p in sorted(root.glob("*.json"))}
    raise FileNotFoundError(root)


def compare(
    baseline: pathlib.Path, current: pathlib.Path, threshold: float
) -> Tuple[List[str], List[str]]:
    """Return (regressions, notes) as printable report lines."""
    base_files = collect(baseline)
    cur_files = collect(current)
    regressions: List[str] = []
    notes: List[str] = []
    if not base_files:
        notes.append(f"note: no baseline artifacts under {baseline}")
    for name, base_path in base_files.items():
        cur_path = cur_files.get(name)
        if cur_path is None:
            notes.append(f"note: {name}: missing from current set (skipped)")
            continue
        base_rates = load_rates(base_path)
        cur_rates = load_rates(cur_path)
        for line in row_mismatches(
            json.loads(base_path.read_text()), json.loads(cur_path.read_text())
        ):
            regressions.append(
                f"REGRESSION {name}: row identity changed, {line} "
                "(figures would be compared across different rows)"
            )
        if not base_rates:
            notes.append(f"note: {name}: no gated figures in baseline")
            continue
        for key, (base_val, sense) in base_rates.items():
            cur = cur_rates.get(key)
            if cur is None:
                notes.append(f"note: {name}: {key} missing from current (skipped)")
                continue
            cur_val = cur[0]
            if base_val <= 0:
                continue
            rel = (cur_val - base_val) / base_val
            # For lower-is-better figures (allocation bytes) growth is
            # the regression; flip the sign so one rule gates both.
            worse = -rel if sense == "lower" else rel
            line = (
                f"{name}: {key}: {base_val:.6g} -> {cur_val:.6g} "
                f"({rel:+.1%}{', lower is better' if sense == 'lower' else ''})"
            )
            if worse < -threshold:
                regressions.append("REGRESSION " + line)
            elif worse > threshold:
                notes.append("improved   " + line)
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path, help="baseline file or dir")
    parser.add_argument("current", type=pathlib.Path, help="current file or dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="max tolerated fractional drop (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print every compared figure"
    )
    args = parser.parse_args(argv)

    if args.verbose:
        for name, path in collect(args.baseline).items():
            for key, (val, sense) in load_rates(path).items():
                print(f"baseline {name}: {key} = {val:.6g} ({sense} is better)")

    regressions, notes = compare(args.baseline, args.current, args.threshold)
    for line in notes:
        print(line)
    for line in regressions:
        print(line, file=sys.stderr)
    n_base = sum(len(load_rates(p)) for p in collect(args.baseline).values())
    if regressions:
        print(
            f"bench_compare: {len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%} across {n_base} gated figure(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench_compare: OK — no regression beyond {args.threshold:.0%} "
        f"across {n_base} gated figure(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
