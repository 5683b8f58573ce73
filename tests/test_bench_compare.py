"""The benchmark regression gate: trips on a slowdown, passes clean."""

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "bench_compare.py"

ROWS = [
    {"n": 84000, "tflops": 1.12, "efficiency": 0.798, "paper_tflops": 1.2,
     "result": {"gflops": 1120.0, "time_s": 350.0}},
    {"n": 168000, "tflops": 4.36, "efficiency": 0.776},
]


def run_gate(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def dirs(tmp_path):
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    base.mkdir()
    cur.mkdir()
    (base / "table.json").write_text(json.dumps(ROWS))
    return base, cur


def test_clean_run_exits_zero(dirs):
    base, cur = dirs
    (cur / "table.json").write_text(json.dumps(ROWS))
    proc = run_gate(base, cur)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_injected_25pct_slowdown_exits_nonzero(dirs):
    base, cur = dirs
    slowed = json.loads(json.dumps(ROWS))
    for row in slowed:
        row["tflops"] *= 0.75
        if "result" in row:
            row["result"]["gflops"] *= 0.75
    (cur / "table.json").write_text(json.dumps(slowed))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stderr
    assert "tflops" in proc.stderr
    assert "result.gflops" in proc.stderr


def test_drop_within_threshold_passes(dirs):
    base, cur = dirs
    wobbled = json.loads(json.dumps(ROWS))
    for row in wobbled:
        row["tflops"] *= 0.85  # -15%, under the 20% gate
    (cur / "table.json").write_text(json.dumps(wobbled))
    assert run_gate(base, cur).returncode == 0


def test_tighter_threshold_trips(dirs):
    base, cur = dirs
    wobbled = json.loads(json.dumps(ROWS))
    for row in wobbled:
        row["tflops"] *= 0.85
    (cur / "table.json").write_text(json.dumps(wobbled))
    assert run_gate(base, cur, "--threshold", "0.1").returncode == 1


def test_improvements_and_times_are_not_regressions(dirs):
    base, cur = dirs
    changed = json.loads(json.dumps(ROWS))
    changed[0]["tflops"] *= 2.0  # faster: fine
    changed[0]["result"]["time_s"] *= 10.0  # not a gated key
    changed[0]["paper_tflops"] = 0.01  # reference values never gated
    (cur / "table.json").write_text(json.dumps(changed))
    proc = run_gate(base, cur)
    assert proc.returncode == 0, proc.stderr
    assert "improved" in proc.stdout


ALLOC_ROWS = [
    {"bench": "lu.factor", "mode": "pooled", "alloc_temp_bytes": 20000,
     "alloc_bytes_per_stage": 5000, "pool_reduction_efficiency": 0.88},
    {"bench": "lu.solve", "mode": "pooled", "alloc_temp_bytes": 23000},
]


@pytest.fixture
def alloc_dirs(tmp_path):
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    base.mkdir()
    cur.mkdir()
    (base / "alloc.json").write_text(json.dumps(ALLOC_ROWS))
    return base, cur


def test_alloc_bytes_increase_is_a_regression(alloc_dirs):
    base, cur = alloc_dirs
    grown = json.loads(json.dumps(ALLOC_ROWS))
    grown[0]["alloc_temp_bytes"] = int(grown[0]["alloc_temp_bytes"] * 1.5)
    (cur / "alloc.json").write_text(json.dumps(grown))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "alloc_temp_bytes" in proc.stderr
    assert "lower is better" in proc.stderr


def test_alloc_bytes_drop_is_an_improvement(alloc_dirs):
    base, cur = alloc_dirs
    shrunk = json.loads(json.dumps(ALLOC_ROWS))
    for row in shrunk:
        row["alloc_temp_bytes"] = int(row["alloc_temp_bytes"] * 0.5)
    (cur / "alloc.json").write_text(json.dumps(shrunk))
    proc = run_gate(base, cur)
    assert proc.returncode == 0, proc.stderr
    assert "improved" in proc.stdout


def test_alloc_increase_within_threshold_passes(alloc_dirs):
    base, cur = alloc_dirs
    wobbled = json.loads(json.dumps(ALLOC_ROWS))
    wobbled[1]["alloc_temp_bytes"] = int(
        wobbled[1]["alloc_temp_bytes"] * 1.15
    )  # +15%, under the 20% gate
    (cur / "alloc.json").write_text(json.dumps(wobbled))
    assert run_gate(base, cur).returncode == 0


def test_reduction_efficiency_drop_is_a_regression(alloc_dirs):
    """The efficiency figure stays higher-is-better even in alloc rows."""
    base, cur = alloc_dirs
    worse = json.loads(json.dumps(ALLOC_ROWS))
    worse[0]["pool_reduction_efficiency"] = 0.4
    (cur / "alloc.json").write_text(json.dumps(worse))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "pool_reduction_efficiency" in proc.stderr


def test_removed_row_fails_closed_on_row_identity(tmp_path):
    """Rows match by index: after a row is dropped, [0] names a
    different row, so its figures must not be compared silently."""
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    base.mkdir()
    cur.mkdir()
    alloc_row = {"bench": "lu.factor", "mode": "alloc",
                 "alloc_temp_bytes": 160000}
    (base / "alloc.json").write_text(json.dumps([alloc_row] + ALLOC_ROWS))
    (cur / "alloc.json").write_text(json.dumps(ALLOC_ROWS))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "row identity" in proc.stderr
    assert "'alloc' -> 'pooled'" in proc.stderr


LATENCY_ROWS = [
    {"bench": "service", "mode": "serving",
     "submit_p99_latency_s": 0.004, "queue_wait_p50_s": 0.001,
     "cache_hit_speedup": 500.0, "requests_per_s": 2000.0,
     "cold_run_s": 0.08},
]


@pytest.fixture
def latency_dirs(tmp_path):
    base = tmp_path / "baseline"
    cur = tmp_path / "current"
    base.mkdir()
    cur.mkdir()
    (base / "service.json").write_text(json.dumps(LATENCY_ROWS))
    return base, cur


def test_latency_increase_is_a_regression(latency_dirs):
    base, cur = latency_dirs
    slower = json.loads(json.dumps(LATENCY_ROWS))
    slower[0]["submit_p99_latency_s"] *= 2.0
    (cur / "service.json").write_text(json.dumps(slower))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "submit_p99_latency_s" in proc.stderr
    assert "lower is better" in proc.stderr


def test_queue_wait_increase_is_a_regression(latency_dirs):
    base, cur = latency_dirs
    slower = json.loads(json.dumps(LATENCY_ROWS))
    slower[0]["queue_wait_p50_s"] *= 3.0
    (cur / "service.json").write_text(json.dumps(slower))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "queue_wait_p50_s" in proc.stderr


def test_latency_drop_is_an_improvement(latency_dirs):
    base, cur = latency_dirs
    faster = json.loads(json.dumps(LATENCY_ROWS))
    faster[0]["submit_p99_latency_s"] *= 0.25
    faster[0]["queue_wait_p50_s"] *= 0.25
    (cur / "service.json").write_text(json.dumps(faster))
    proc = run_gate(base, cur)
    assert proc.returncode == 0, proc.stderr
    assert "improved" in proc.stdout


def test_speedup_and_throughput_drop_are_regressions(latency_dirs):
    """cache_hit_speedup / requests_per_s gate higher-is-better."""
    base, cur = latency_dirs
    worse = json.loads(json.dumps(LATENCY_ROWS))
    worse[0]["cache_hit_speedup"] = 100.0
    worse[0]["requests_per_s"] = 400.0
    (cur / "service.json").write_text(json.dumps(worse))
    proc = run_gate(base, cur)
    assert proc.returncode == 1
    assert "cache_hit_speedup" in proc.stderr
    assert "requests_per_s" in proc.stderr


def test_wall_clock_times_in_latency_rows_not_gated(latency_dirs):
    base, cur = latency_dirs
    changed = json.loads(json.dumps(LATENCY_ROWS))
    changed[0]["cold_run_s"] *= 50.0  # plain wall clock: never gated
    (cur / "service.json").write_text(json.dumps(changed))
    assert run_gate(base, cur).returncode == 0


def test_missing_current_file_is_a_note_not_a_failure(dirs):
    base, cur = dirs
    proc = run_gate(base, cur)
    assert proc.returncode == 0
    assert "missing from current" in proc.stdout


def test_single_file_arguments(dirs):
    base, cur = dirs
    (cur / "table.json").write_text(json.dumps(ROWS))
    proc = run_gate(base / "table.json", cur / "table.json")
    assert proc.returncode == 0


def test_missing_baseline_path_errors(tmp_path):
    proc = run_gate(tmp_path / "nope", tmp_path / "nope2")
    assert proc.returncode not in (0, 1) or "FileNotFoundError" in proc.stderr


def test_committed_baseline_gates_real_artifacts():
    """The acceptance wiring: the committed baseline compares clean
    against the repo's own current artifacts."""
    baseline = REPO / "benchmarks" / "out" / "baseline"
    assert baseline.is_dir() and list(baseline.glob("*.json"))
    proc = run_gate(baseline, REPO / "benchmarks" / "out")
    assert proc.returncode == 0, proc.stdout + proc.stderr
