"""Self-test of the benchmark command, at a test-only small graph scale.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs for 2 s, traced and untraced, and must emit exactly the
metrics ``BENCHMARK.json`` declares, with their units.  A ``parhde`` that
perturbs its coordinates must trip every workload's correctness gate.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_build" / "e2e"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = 2


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_names_and_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.RUNNERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_declared_metric(workload, trace):
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"selftest-{workload}-{trace}.json"
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", str(SECONDS),
         "--trace", str(trace), "--scale", "small", "--out", str(out)],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if trace:
        health = json.loads(out.read_text())["health"]
        assert health["attributed_share"] >= 0.95, health
    else:
        assert all(m["value"] > 0 for m in summary["metrics"].values()), summary["metrics"]
    out.unlink()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_perturbed_layouts_trip_the_gate(workload, monkeypatch):
    original = repro.parhde
    calls = itertools.count()

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        result.coords = result.coords * (1.0 + 1e-6 * next(calls))
        return result

    # Worker processes and the engine's registry keep the real solver, so
    # the serving workloads see references that disagree with what is
    # served; the solve workloads see timed layouts that disagree.
    monkeypatch.setattr(repro, "parhde", perturbed)
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    run = workloads.Run(5, SECONDS, False, "small", work_dir)
    try:
        workloads.RUNNERS[workload](run)
    finally:
        run.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    assert run.failed > 0 and run.problems


def test_probe_waits_for_every_caller_and_a_leaving_caller_frees_the_rest():
    host = workloads.HostSpeed()
    host.open(2)
    waiting = threading.Thread(target=host.pause_point)
    waiting.start()
    waiting.join(0.2)
    assert waiting.is_alive() and not host.samples
    host.pause_point()
    waiting.join(5)
    assert not waiting.is_alive() and len(host.samples) == 1
    host.pause_point()  # the next probe is not due yet
    assert len(host.samples) == 1

    host.open(2)
    waiting = threading.Thread(target=host.pause_point)
    waiting.start()
    waiting.join(0.2)
    assert waiting.is_alive()
    host.leave()
    waiting.join(5)
    assert not waiting.is_alive() and len(host.samples) == 1


@pytest.mark.parametrize("q, need", [(50, 5), (50, 10), (80, 10), (95, 10)])
def test_min_ops_is_the_fewest_with_enough_beyond_the_tail(q, need):
    def beyond(n):
        times = np.arange(1.0, n + 1)
        return int((times > np.percentile(times, q)).sum())

    n = workloads.min_ops(q, need)
    assert beyond(n) >= need > beyond(n - 1)


def test_a_window_too_short_for_its_tail_runs_on():
    run = workloads.Run(0, 0.0, False, "full", WORK)
    try:
        def op():
            now = time.perf_counter()
            return workloads.Op(now, now, True, "layout")

        loops = [workloads._closed_loop(op, "layout") for _ in range(2)]
        windows = run.windows(loops, (50, 5))
    finally:
        run.close()
    assert len(windows[0].ops) == workloads.min_ops(50, 5)


def _window(run, durations):
    """Operations with the given durations, between two host probes."""
    run.host.probe()
    window = workloads.Window(time.perf_counter(), callers=1)
    for i, d in enumerate(durations):
        start = window.start + 0.002 * i
        window.ops.append(workloads.Op(start, start + d, True, "layout"))
    time.sleep(max(op.end for op in window.ops) - time.perf_counter() + 0.01)
    run.host.probe()
    window.end = time.perf_counter()
    return window


@pytest.mark.parametrize("need, failed", [(10, 1), (6, 0)])
def test_tail_gate_and_host_speed_scaling(need, failed):
    durations = [0.001 * (i + 1) for i in range(12)]
    run = workloads.Run(0, 1.0, False, "full", WORK)
    try:
        run.setup(lambda: None)
        result = run.result([_window(run, durations)], (50, need), [])
    finally:
        run.close()
    # Six of twelve operations lie beyond the median.
    assert result["notes"]["ops_beyond_tail"] == 6
    assert run.failed == failed
    window_probes = run.host.samples[-2:]
    factor = workloads.PROBE_REF_S / statistics.mean(cpu for _, _, cpu in window_probes)
    assert result["notes"]["latencies_s"] == pytest.approx([d * factor for d in durations])
    assert result["e2e"]["ops_per_s"] == pytest.approx(len(durations) / sum(durations) / factor)


#: Runs a command as a child subreaper (Linux ``PR_SET_CHILD_SUBREAPER``):
#: a process the command leaves behind is reparented to this one when the
#: command exits, so it is counted however soon it ends after that.
ORPHAN_COUNTER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(code, orphans)
"""


def test_no_process_outlives_a_run():
    # serve-hot spawns the cluster's workers and, with them, multiprocessing's
    # resource tracker.
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_COUNTER, sys.executable, "benchmarks/e2e/run.py",
         "--workload", "serve-hot", "--seed", "3", "--seconds", "1", "--trace", "0",
         "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout.split() == ["0", "0"], (proc.stdout, proc.stderr[-3000:])


def test_fails_without_the_sources():
    WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "solve-road", "--seed", "0", "--seconds", "1", "--trace", "0"],
                    bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
