"""Tests of the end-to-end benchmark (under a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke runs drive every workload through ``run.py --smoke`` (n=256,
at least two repeats, ten service requests and one eight-spec backlog
per service session).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import compare
import spans
import summary
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
BENCH = summary.load_benchmark()


def _run(out: pathlib.Path, *extra: str, cwd: pathlib.Path = summary.ROOT,
         script: pathlib.Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--smoke", "--seconds", "1",
         "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    return out, _run(out)


@pytest.fixture(scope="module")
def smoke_traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_traced")
    return out, _run(out, "--trace", "1")


def _printed(stdout: str, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[-1] == unit
               for line in stdout.splitlines())


def test_smoke_runs_every_workload_and_prints_every_metric(smoke):
    out, proc = smoke
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(WORKLOADS)
    for m in BENCH["end_to_end"]:
        assert _printed(proc.stdout, m["name"], m["unit"]), m["name"]
    for workload in WORKLOADS:
        doc = json.loads((out / f"{workload}.json").read_text())
        assert doc["environment"]["nproc"] >= 1
        for m in BENCH["end_to_end"]:
            entry = doc["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
        assert doc["metrics"]["ok_frac"]["value"] == 1.0
        assert doc["metrics"]["run_s"]["n"] >= 2


def test_single_workload_ends_with_one_json_result_line(tmp_path):
    proc = _run(tmp_path, "--workload", "native-dp")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(isinstance(v["value"], float) for v in last["metrics"].values())


def test_traced_smoke_writes_layers_and_chrome_trace(smoke_traced):
    out, proc = smoke_traced
    assert proc.returncode == 0, proc.stderr
    for m in BENCH["per_layer"]:
        assert _printed(proc.stdout, m["name"], m["unit"]), m["name"]
    for workload in WORKLOADS:
        doc = json.loads((out / f"{workload}.traced.json").read_text())
        service = workload == "service-mix"
        own = [m["name"] for m in BENCH["per_layer"]
               if m["name"].startswith("service.") == service]
        assert set(own) | {"trace.overhead_frac"} <= set(doc["layers"]), workload
        trace = json.loads((out / f"{workload}.trace.json").read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events and all(e["dur"] >= 0 for e in events)
    native = json.loads((out / "native-dp.traced.json").read_text())["layers"]
    assert native["blas.getrf_calls"] > 0 and native["blas.gemm_calls"] > 0
    elastic = json.loads((out / "dist-elastic.traced.json").read_text())["layers"]
    assert elastic["elastic.regrids"] == 1 and elastic["resilience.ckpt_saves"] > 0
    assert elastic["cluster.messages"] > 0


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.record("parent", 0.0, 10.0, track=0)
    parent = tracer.spans[0]
    for lo, hi in [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]:
        tracer.record("child", lo, hi, track=1)
        tracer.spans[-1].parent = parent.sid
    selfs = spans.self_times(tracer.spans)
    assert selfs[parent.sid] == pytest.approx(10.0 - 4.0 - 2.0)
    assert summary.interpolated([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)


def test_p90_needs_ten_samples_beyond_it(smoke):
    assert summary.tail_percentile(list(range(99)), 90) is None
    assert summary.tail_percentile(list(range(100)), 90) == 89
    out, _proc = smoke
    doc = json.loads((out / "service-mix.json").read_text())
    assert doc["metrics"]["latency_p90_s"]["n"] == 10
    assert doc["metrics"]["latency_p90_s"]["value"] is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(summary.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- compare.py -------------------------------------------------------------

def _write_runs(dir_: pathlib.Path, run_s: list, gflops: float):
    """One run subdirectory per ``run_s`` value."""
    for i, value in enumerate(run_s):
        (dir_ / str(i)).mkdir(parents=True)
        metrics = {"run_s": {"value": value, "unit": "s"},
                   "gflops": {"value": gflops, "unit": "GFLOP/s"}}
        (dir_ / str(i) / "native-dp.json").write_text(
            json.dumps({"workload": "native-dp", "metrics": metrics}))
    return dir_


def _cases():
    """(B's run_s per run, B's gflops, run_s verdict, gflops verdict);
    the changes are multiples of the metrics' own bounds."""
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    t, g = bounds["run_s"], bounds["gflops"]
    base = [1.00, 1.01, 1.02, 1.01]
    return [
        (base, 3.0, "same", "same"),
        ([v * (1 - 1.5 * t) for v in base], 3.0 * (1 + 1.5 * g), "better", "better"),
        ([v * (1 + 1.5 * t) for v in base], 3.0 * (1 - 1.5 * g), "worse", "worse"),
        ([1.0 - 3 * t, 1.0, 1.02, 1.0 + 3 * t], 3.0, "unresolved", "same"),
    ]


@pytest.mark.parametrize("b_run_s, b_gflops, run_s, gflops", _cases())
def test_compare_verdicts(tmp_path, b_run_s, b_gflops, run_s, gflops):
    a = _write_runs(tmp_path / "a", [1.00, 1.01, 1.02, 1.01], 3.0)
    b = _write_runs(tmp_path / "b", b_run_s, b_gflops)
    rows = {r["metric"]: r["verdict"] for r in compare.compare(a, b, BENCH)}
    assert (rows["run_s"], rows["gflops"]) == (run_s, gflops)
    assert compare.main([str(a), str(b)]) == (1 if run_s == "worse" else 0)


def test_compare_reads_a_single_run_directory(smoke, tmp_path):
    out, _proc = smoke
    rows = compare.compare(out, out, BENCH)
    assert {r["workload"] for r in rows} == set(WORKLOADS)
    assert {r["verdict"] for r in rows} <= {"same", "n/a"}


def test_wide_spread_resolved_when_one_side_wins_every_run():
    a = {"median": 1.0, "q1": 0.8, "q3": 1.2, "samples": [0.8, 1.0, 1.2]}
    b = {"median": 0.5, "q1": 0.4, "q3": 0.6, "samples": [0.4, 0.5, 0.6]}
    assert compare.verdict(a, b, "lower", 0.1) == "better"
    b = {"median": 0.75, "q1": 0.4, "q3": 0.9, "samples": [0.4, 0.75, 0.9]}
    assert compare.verdict(a, b, "lower", 0.1) == "unresolved"
