"""Self-tests of the benchmark: span accounting, patching, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.import_workloads()
from spans import Tracer, root_coverage, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_of_overlapping_spans_on_two_threads():
    # Thread 0: root 0 with child 1. Threads 1 and 2: children 2 and 3 of
    # span 0, overlapping each other and span 1 in wall time. Thread 3:
    # root 4, overlapping everything. Only span 1 is on span 0's thread, so
    # only its CPU time comes off span 0's.
    spans = {
        "name": np.zeros(5, dtype=np.int32),
        "parent": np.array([-1, 0, 0, 0, -1], dtype=np.int32),
        "thread": np.array([0, 0, 1, 2, 3], dtype=np.int32),
        "start": np.array([0.0, 1.0, 1.0, 4.0, 2.0]),
        "end": np.array([10.0, 3.0, 6.0, 8.0, 9.0]),
        "cpu_start": np.array([0.0, 0.5, 0.0, 0.0, 0.0]),
        "cpu_end": np.array([4.0, 1.5, 3.0, 2.5, 6.0]),
    }
    own = self_times(spans)
    assert own.tolist() == pytest.approx([3.0, 1.0, 3.0, 2.5, 6.0])
    assert root_coverage(spans) == pytest.approx(10.0)  # roots 0 and 4, in wall time


def _spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_with_real_threads_keeps_stacks_apart():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.06))

    def body():
        _spin(0.03)
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.arrays()
    own = self_times(spans)
    outers = np.flatnonzero(spans["name"] == tracer.names.index("outer"))
    assert len(outers) == 2
    for i in outers:
        kids = np.flatnonzero(spans["parent"] == i)
        assert len(kids) == 1 and spans["thread"][kids[0]] == spans["thread"][i]
        # The two threads overlap in wall time and contend for the GIL, yet
        # each outer span keeps only its own 0.03 s of CPU.
        assert 0.03 <= own[i] <= 0.045
        assert 0.06 <= own[kids[0]] <= 0.075


def test_patched_names_are_reached_on_ne_anchor(monkeypatch):
    T = 6
    monkeypatch.setattr(workloads, "NE_T", T)
    wl = workloads.WORKLOADS["ne-anchor"]
    tracer = Tracer()
    inputs = wl.build(wl.default_seed)
    with tracer:
        wl.run(inputs)
    spans = tracer.arrays()
    counts = {n: int(np.sum(spans["name"] == i)) for i, n in enumerate(tracer.names)}
    # One saddle point per ne-average task plus two per game for the
    # similarity report, reached through harness's import-time binding.
    assert counts["metrics.saddle_point"] == 3 * T
    # OMDLearner's Euclidean fast path calls learners.project_simplex.
    assert counts["geometry.project_simplex"] > 0
    # Arms run on pool threads but stay children of compare_arms.
    compare = np.flatnonzero(spans["name"] == tracer.names.index("harness.compare_arms"))
    runs = spans["name"] == tracer.names.index("harness.run_experiment")
    assert len(compare) == 1 and np.all(spans["parent"][runs] == compare[0])
    # Uninstalling restores the originals.
    from metagames import harness, metrics

    assert harness.saddle_point is metrics.saddle_point
    assert not hasattr(metrics.saddle_point, "__wrapped__")


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_injected_failing_check_is_counted_not_fatal(monkeypatch):
    monkeypatch.setattr(workloads, "NE_T", 4)
    real = workloads._identity_failures

    def one_more_failure(rows, m, op_prefix):
        return real(rows, m, op_prefix) | {f"{op_prefix}/0"}

    monkeypatch.setattr(workloads, "_identity_failures", one_more_failure)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "ne-anchor", "--seconds", "0.5"])
    result = _last_json(buf.getvalue())
    assert code == 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert result["failed"] * 4 == result["attempted"]  # one of four tasks per arm


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ne-anchor", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
