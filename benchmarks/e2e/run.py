"""The repo benchmark: end-to-end and per-layer numbers for solving and serving.

One command runs the four workloads (``solve-road``, ``solve-kron``,
``serve-hot``, ``serve-edit``), each in a fresh child process, prints
every metric by name with its unit, and checks that the outputs are
correct::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0            # end to end
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --trace    # per layer

``--workload NAME`` runs one workload in this process.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names, units and
directions are declared in ``BENCHMARK.json`` at the repository root.
The exit status is non-zero when any operation or correctness gate
failed.  Every process a run starts has ended when it exits.  Work files (the serve-edit write-ahead logs, ``trace-*.json``)
go under ``.bench_build/e2e`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark builds nothing: it runs the checkout's own sources.
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402 — needs the source path above

WORK = ROOT / ".bench_build" / "e2e"
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(spec: dict, trace: bool, values: dict) -> dict:
    """The declared metrics with their units; every one must be measured."""
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics not as declared: missing {missing}, undeclared {extra}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
    }


def run_one(args, spec: dict) -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), args.scale, work_dir)
        try:
            result = workloads.RUNNERS[args.workload](run)
        finally:
            run.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.tracer is not None:
        run.tracer.dump(WORK / f"trace-{args.workload}.json")
        share = result["health"]["attributed_share"]
        if share < 0.95:
            print(f"warning: layers account for {share:.1%} of client time (< 95%)",
                  file=sys.stderr)
    metrics = declared_metrics(spec, bool(args.trace), result["layers" if args.trace else "e2e"])
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps({**result, **summary}, indent=1, default=float))
    notes = result["notes"]
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}"
          f"  trace={int(args.trace)}  ops={notes['ops']}"
          f"  tail=p{notes['tail_percentile']:g} ({notes['ops_beyond_tail']} ops beyond)")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh child process; one combined summary."""
    WORK.mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        out = WORK / f"result-{workload}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
            "--scale", args.scale, "--out", str(out),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, m in summary["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
        details[workload] = json.loads(out.read_text())
        out.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(details, indent=1))
    print(json.dumps(combined))
    return status


def parse_args(argv=None, spec: dict | None = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.RUNNERS),
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: graphs, pivots, cold requests, edit streams")
    parser.add_argument("--seconds", type=float, default=(spec or {}).get("run_seconds", 20),
                        help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced half-window")
    parser.add_argument("--out", help="also write the full result (notes, health) as JSON")
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="graph sizes; 'small' is for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # A SIGTERM unwinds like an error, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = load_spec()
        args = parse_args(argv, spec)
        if args.workload is None:
            return run_all(args, spec)
        return run_one(args, spec)
    finally:
        workloads.stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
