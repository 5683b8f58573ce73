"""Sample statistics shared by the runner, the workloads and compare.py."""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_benchmark(path: pathlib.Path = BENCHMARK_JSON) -> dict:
    """The benchmark description: metric names, units, senses, bounds."""
    return json.loads(pathlib.Path(path).read_text())


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile and sample count.

    Quartiles follow :func:`statistics.quantiles` (exclusive method);
    a single sample is its own quartiles.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    vals = sorted(values)
    rank = max(1, min(len(vals), math.ceil(pct / 100.0 * len(vals))))
    return vals[rank - 1]


def interpolated(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, interpolated linearly between order
    statistics (NumPy's default); with few samples it stays inside
    the data instead of landing on the maximum."""
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float], pct: float,
                    min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (a p90 needs 100 samples)."""
    if len(values) * (100.0 - pct) / 100.0 < min_beyond - 1e-9:
        return None
    return nearest_rank(values, pct)


def median(values: Sequence[float], default: float = 0.0) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else default


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    med = summary["median"]
    if med == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return abs(summary["q3"] - summary["q1"]) / abs(med)


def metric_rows(metrics: Dict[str, dict]) -> List[str]:
    """Aligned ``name  value unit`` lines for a metrics dict."""
    width = max((len(n) for n in metrics), default=0)
    rows = []
    for name, m in metrics.items():
        value = m["value"]
        text = "null" if value is None else f"{value:.6g}"
        rows.append(f"  {name:<{width}}  {text:>12} {m['unit']}")
    return rows
