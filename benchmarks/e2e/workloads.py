"""The four benchmark workloads: set-up, closed-loop window, gates, metrics.

Every workload has the same shape:

1. **Set-up**, repeated :data:`SETUP_REPEATS` times and reported as the
   median (``setup_s``), so work moved into set-up shows.
2. **Measured window**: closed-loop callers, each sending its next
   operation only after the previous reply arrived.  A traced run splits
   the window in two: an untraced half (client-level numbers and the
   tracing-overhead baseline) and a traced half (per-layer numbers).
3. **Correctness gates** and **quality** (the Eq. 1 objective of a
   served or solved layout; sampled stress in traced runs), outside the
   window.

An *operation* is what a caller waits for: one layout (``solve-*``), one
HTTP request (``serve-hot``), one edit-and-drag cycle of four requests
(``serve-edit``).  Set-up and operation times are scaled to the
reference host's speed by :class:`HostSpeed`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

import numpy as np

import repro
from repro import datasets
from repro.cluster import ClusterRouter, make_cluster_server
from repro.core.kernels import KernelConfig
from repro.metrics import rayleigh_quotients, sampled_stress
from repro.service import LayoutEngine, LayoutServer
from repro.stream import DynamicGraph
from repro.stream.delta import edge_delta

from layers import Tracer, layer_metrics

SETUP_REPEATS = 3
STRESS_SAMPLES = 8
#: ``latency_ms_tail`` per workload: (percentile, operations that must lie
#: beyond it).  Each is the highest percentile that kept ten operations
#: beyond it in the measured 22 s windows, with the host up to 1.9x
#: slower than the reference: 198-466 hot requests, 60-122 edit cycles,
#: 19-43 road layouts and 8-21 kron layouts.  No percentile at or above
#: the median has ten kron layouts beyond it, so solve-kron's tail is its
#: median, resting on five.  A window too short for its tail runs on
#: (see :func:`min_ops`).
TAIL = {
    "solve-road": (50, 10),
    "solve-kron": (50, 5),
    "serve-hot": (95, 10),
    "serve-edit": (80, 10),
}
#: Every 10th hot body is decoded and compared in full; the others get a
#: cheap status check, which keeps client-side GIL contention low.
HOT_DECODE_EVERY = 10
#: Every 10th request of a serve-hot client is cold.
COLD_EVERY = 10
EDIT_INSERTS = 8
EDIT_DELETES = 8
PINS = 4
#: Relative tolerance between the served edited layout (warm-basis path)
#: and a cold reference solve of the replayed graph and pins.
EDIT_RTOL = 1e-8
JSON_HEADERS = {"Content-Type": "application/json"}
#: Seconds between host-speed probes in a window.
PROBE_EVERY = 2.0
#: A probe is the fastest of this many runs of its work, so a spike (an
#: interrupt, a neighbour's burst) in one run does not count.
PROBE_REPEATS = 3
#: CPU seconds of one probe on the reference host (2 vCPU Xeon at
#: 2.1 GHz, Python 3.11, NumPy 2.4) in its fast state.
PROBE_REF_S = 7.0e-3

#: Graph scale per role.  ``small`` exists for the self-test only.
SCALES = {
    "full": {"road": "large", "kron": "large", "hot": "medium", "cold": "small", "edit": "medium"},
    "small": {"road": "small", "kron": "small", "hot": "tiny", "cold": "tiny", "edit": "small"},
}

#: Client-side splits, taken from the untraced half of a traced run.
CLIENT_METRICS = (
    "client.hot_ms_p50",
    "client.cold_ms_p50",
    "client.edit_to_layout_ms_p50",
    "client.edit_to_layout_ms_p90",
    "client.drag_to_layout_ms_p50",
    "client.drag_to_layout_ms_p90",
)


@dataclass
class Op:
    start: float
    end: float
    ok: bool
    kind: str
    nbytes: int = 0
    #: serve-edit: (edit-to-layout seconds, drag-to-layout seconds).
    parts: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Window:
    start: float
    callers: int
    end: float = 0.0
    ops: list[Op] = field(default_factory=list)


class HostSpeed:
    """Scales measured times to the reference host's speed.

    A shared virtual machine runs at the speed its neighbours leave it: on
    the 2 vCPU Xeon VM the numbers in README.md come from, speed flips
    between a fast state and one about 1.5x slower for seconds to minutes
    at a time, whatever the workload does, and raw timings of unchanged
    code spread by 10-44% across runs.  A probe is a fixed mix of
    interpreter and NumPy work that calls none of the repository's code.
    It runs while every caller is paused at an operation boundary, so the
    workload's own threads do not slow it, and its CPU time tracks the
    host's state.  A time measured between two probes is scaled by
    ``PROBE_REF_S`` over their mean.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.random(100_000)
        self._table = rng.random(1_000_000)
        self._gather = rng.integers(0, len(self._table), 100_000)
        #: (start, end, CPU seconds) of every probe, in time order.
        self.samples: list[tuple[float, float, float]] = []
        self._barrier: threading.Barrier | None = None
        self._next_at = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        cpu = min(self._kernel() for _ in range(PROBE_REPEATS))
        end = time.perf_counter()
        self.samples.append((start, end, cpu))
        self._next_at = end + PROBE_EVERY

    def _kernel(self) -> float:
        """CPU seconds of the fixed probe work."""
        c0 = time.thread_time()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(self._keys)
        self._table[self._gather].sum()
        return time.thread_time() - c0

    # -- inside a window ---------------------------------------------------
    def open(self, callers: int) -> None:
        """Probe when all ``callers`` first reach :meth:`pause_point`."""
        self._barrier = threading.Barrier(callers, action=self.probe)
        self._next_at = 0.0

    def pause_point(self) -> None:
        """Called by each caller between operations; waits while a probe runs."""
        if time.perf_counter() < self._next_at:
            return
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another caller has left the window

    def leave(self) -> None:
        """A caller is done: nobody waits for it at a pause point any more."""
        self._barrier.abort()

    # -- scaling -----------------------------------------------------------
    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed around ``[start, end]``."""
        before = [cpu for _, e, cpu in self.samples if e <= start][-1:]
        after = [cpu for s, _, cpu in self.samples if s >= end][:1]
        near = before + after
        return PROBE_REF_S / float(np.mean(near))

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time over ``[start, end]`` relative to the reference."""
        cpus = [cpu for s, e, cpu in self.samples if start <= s and e <= end]
        return float(median(cpus)) / PROBE_REF_S if cpus else 0.0


class PeakRss:
    """Peak summed RSS of this process and its descendants.

    Sampled from ``/proc`` every ``interval`` seconds, so spawned cluster
    workers count.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss", daemon=True)

    def start(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        if not self._stop.is_set():
            self._stop.set()
            self._thread.join()
            self._sample()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        total = 0
        for pid in process_tree(os.getpid()):
            try:
                with open(f"/proc/{pid}/statm") as fh:
                    total += int(fh.read().split()[1]) * self._page
            except OSError:
                continue
        self.peak_bytes = max(self.peak_bytes, total)


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, from the state
    on (``None`` once the process is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()
    except OSError:
        return None


def process_tree(root: int) -> list[int]:
    """``root`` and every live process descended from it, from ``/proc``."""
    children: dict[int, list[int]] = {}
    with os.scandir("/proc") as entries:
        for entry in entries:
            if entry.name.isdigit() and (stat := _stat_fields(int(entry.name))):
                children.setdefault(int(stat[1]), []).append(int(entry.name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def stop_descendants() -> None:
    """Kill every process this one started, and wait until each has ended.

    ``ClusterRouter.close`` stops the cluster's workers; this also stops
    the resource-tracker process that ``multiprocessing`` starts with the
    first spawned worker, which would otherwise outlive this process for a
    moment, and whatever a failed run left behind.
    """
    me = os.getpid()
    pids = [pid for pid in process_tree(me) if pid != me]
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in pids:
        try:
            os.waitpid(pid, 0)
            continue
        except ChildProcessError:
            pass  # not this process's child: wait until it is gone or a zombie
        while time.monotonic() < deadline:
            stat = _stat_fields(pid)
            if stat is None or stat[0] in "ZX":
                break
            time.sleep(0.01)


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if values else 0.0


def min_ops(q: float, need: int) -> int:
    """Fewest distinct operation times with ``need`` beyond their ``q``-th percentile.

    ``np.percentile`` interpolates between sorted ranks ``k`` and ``k + 1``
    for ``k = floor(q (n - 1) / 100)``, so ``n - 1 - k`` times lie beyond it.
    """
    n = need + 1
    while n - 1 - int(q * (n - 1) // 100) < need:
        n += 1
    return n


def _mean(values: list[float]) -> float:
    """Mean of the quality figures (0 when a failed gate left none)."""
    return float(np.mean(values)) if values else 0.0


class Run:
    """State of one workload run: seed, clock, gates, tracer, work files."""

    def __init__(self, seed: int, seconds: float, trace: bool, scale: str, work_dir):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.scales = SCALES[scale]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.work_dir = work_dir
        self.host = HostSpeed()
        # Wrappers go in before any engine is built (the engine copies its
        # algorithm registry); they record nothing until a traced window.
        self.tracer = Tracer().install() if trace else None
        # Set-up and windows only: the gates (strict validation keeps an
        # nnz x s edge-scatter copy) are not the workload's footprint.
        self.rss = PeakRss().start()

    def close(self) -> None:
        self.rss.stop()
        if self.tracer is not None:
            self.tracer.uninstall()

    # -- gates -------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def gate(self, what: str, fn: Callable):
        """Run a correctness gate, failed by an exception or a ``False``.

        Returns ``fn()``'s result, or ``None`` when it raised.
        """
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 — a failed gate, reported
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.check(result is not False, what)
        return result

    # -- set-up ------------------------------------------------------------
    def setup(self, build: Callable, teardown: Callable | None = None):
        """Time ``build`` SETUP_REPEATS times; keep the last result."""
        result = None
        self.host.probe()
        for _ in range(SETUP_REPEATS):
            if result is not None and teardown is not None:
                teardown(result)
            t0 = time.perf_counter()
            result = build()
            t1 = time.perf_counter()
            self.host.probe()
            self.setup_times.append((t1 - t0) * self.host.factor(t0, t1))
        return result

    # -- measured windows --------------------------------------------------
    def gates_tail(self) -> bool:
        """Whether the untraced window must hold enough operations for its tail.

        A traced run reports no end-to-end metrics, and the self-test's
        2 s windows at small scale are too short for a tail.
        """
        return self.tracer is None and self.scale == "full"

    def windows(
        self,
        loops: list[Callable],
        tail: tuple[float, int],
        before_traced: Callable[[], None] | None = None,
    ) -> list[Window]:
        """The untraced window, then (traced runs) the traced half.

        On a host slow enough that the window would end with too few
        operations for the ``tail`` percentile, the window runs on until
        it holds :func:`min_ops` of them.
        """
        if self.tracer is None:
            fewest = min_ops(*tail) if self.gates_tail() else 0
            out = [self._window(loops, self.seconds, traced=False, fewest=fewest)]
        else:
            half = self.seconds / 2
            first = self._window(loops, half, traced=False)
            if before_traced is not None:
                before_traced()
            out = [first, self._window(loops, half, traced=True)]
        self.rss.stop()
        return out

    def _window(self, loops, seconds: float, traced: bool, fewest: int = 0) -> Window:
        if traced:
            self.tracer.spans.clear()
            self.tracer.recording = True
        window = Window(time.perf_counter(), len(loops))
        deadline = window.start + seconds
        results: list[list[Op]] = [[] for _ in loops]
        lock = threading.Lock()
        started = 0

        def more() -> bool:
            """Whether a caller starts another operation."""
            nonlocal started
            with lock:
                if time.perf_counter() < deadline or started < fewest:
                    started += 1
                    return True
                return False

        self.host.open(len(loops))

        def drive(i: int) -> None:
            try:
                results[i] = loops[i](more, self.host.pause_point)
            finally:
                self.host.leave()

        threads = [
            threading.Thread(target=drive, args=(i,), name=f"client-{i}")
            for i in range(len(loops))
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            if traced:
                self.tracer.recording = False
        self.host.probe()  # every operation now lies between two probes
        window.end = time.perf_counter()
        for ops in results:
            window.ops.extend(ops)
        window.ops.sort(key=lambda op: op.start)
        for op in window.ops:
            self.check(op.ok, f"{op.kind} operation at t={op.start - window.start:.2f}s")
        return window

    def record(self, name: str, start: float, end: float, **extra) -> None:
        if self.tracer is not None:
            self.tracer.record(name, start, end, **extra)

    # -- metrics -----------------------------------------------------------
    def scaled(
        self, window: Window, kind: str | None = None, part: int | None = None
    ) -> list[float]:
        """Operation times (or one ``part`` of each) at the reference speed."""
        return [
            (op.seconds if part is None else op.parts[part]) * self.host.factor(op.start, op.end)
            for op in window.ops
            if (kind is None or op.kind == kind) and (part is None or op.parts)
        ]

    def result(
        self,
        windows: list[Window],
        tail: tuple[float, int],
        layouts: list[tuple],
        service: Callable[[], dict] | None = None,
        client: dict | None = None,
    ) -> dict:
        """Metrics of a finished run.

        ``tail`` is the workload's tail percentile and the number of
        operations that must lie beyond it; ``layouts`` the
        ``(graph, coords)`` pairs whose quality is reported.
        """
        first = windows[0]
        lat = self.scaled(first)
        q, need = tail
        tail_ms = percentile_ms(lat, q)
        beyond = sum(1e3 * x > tail_ms for x in lat)
        if self.gates_tail():
            self.check(beyond >= need, f"{beyond} operations beyond the p{q:g} tail, {need} needed")
        e2e = {
            "setup_s": median(self.setup_times),
            "peak_rss_mb": self.rss.peak_bytes / 2**20,
            # Closed loop: callers over the mean latency (Little's law),
            # so the probe pauses do not count as idle time.
            "ops_per_s": first.callers * len(lat) / sum(lat) if lat else 0.0,
            "latency_ms_p50": percentile_ms(lat, 50),
            "latency_ms_tail": tail_ms,
            # The Eq. 1 objective ParHDE minimizes: steady across seeds,
            # where sampled stress moves with the pivots drawn.
            "layout_energy": _mean([rayleigh_quotients(g, x).sum() for g, x in layouts]),
        }
        notes = {
            "ops": len(lat),
            "tail_percentile": q,
            "ops_beyond_tail": beyond,
            "host_slowdown": self.host.slowdown(first.start, first.end),
            "setup_times_s": self.setup_times,
            "latencies_s": lat,
            "raw_latencies_s": [op.seconds for op in first.ops],
        }
        out = {"e2e": e2e, "notes": notes}
        if self.tracer is not None:
            traced = windows[1]
            svc = service() if service is not None else {}
            svc["response_bytes"] = sum(op.nbytes for op in traced.ops)
            layers, health = layer_metrics(self.tracer, len(traced.ops), svc)
            layers["host.slowdown"] = self.host.slowdown(traced.start, traced.end)
            traced_p50 = percentile_ms(self.scaled(traced), 50)
            layers["trace.overhead_pct"] = (
                (traced_p50 / e2e["latency_ms_p50"] - 1.0) * 100.0
                if e2e["latency_ms_p50"]
                else 0.0
            )
            layers["quality.sampled_stress"] = _mean([
                sampled_stress(g, x, samples=STRESS_SAMPLES, seed=self.seed) for g, x in layouts
            ])
            for name in CLIENT_METRICS:
                layers[name] = (client or {}).get(name, 0.0)
            out["layers"] = layers
            out["health"] = health
        return out


class Connection:
    """One persistent HTTP/1.1 connection (a closed-loop client's socket)."""

    def __init__(self, address: tuple[str, int]):
        self._conn = http.client.HTTPConnection(*address, timeout=120)
        self._conn.connect()
        self.port = self._conn.sock.getsockname()[1]

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self._conn.request("POST", path, body=body, headers=JSON_HEADERS)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def _encode(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _closed_loop(op: Callable[[], Op], kind: str):
    """A caller: ``op`` back to back while ``more()``, pausing between."""

    def loop(more: Callable[[], bool], pause_point: Callable[[], None]) -> list[Op]:
        ops = []
        while True:
            pause_point()
            if not more():
                break
            t0 = time.perf_counter()
            try:
                ops.append(op())
            except Exception:  # noqa: BLE001 — counted as a failed op
                traceback.print_exc(file=sys.stderr)
                ops.append(Op(t0, time.perf_counter(), False, kind))
        return ops

    return loop


# -- solve-road / solve-kron ----------------------------------------------
def _solve(run: Run, workload: str, s: int, kernels: KernelConfig | None) -> dict:
    graph = workload.removeprefix("solve-")
    seed = run.seed

    def layout(g, **extra):
        # Looked up per call: the traced run and the self-test replace it.
        return repro.parhde(g, s, seed=seed, kernels=kernels, **extra)

    def build():
        g = datasets.load(graph, run.scales[graph], seed=seed)
        layout(g)  # warm-up: per-graph memos (BFS locality estimate)
        return g

    g = run.setup(build)
    # One more untimed layout lets the allocator's heap settle (the first
    # layout after the warm-up runs up to 1.5x slower).
    settled = layout(g).coords

    def op() -> Op:
        t0 = time.perf_counter()
        coords = layout(g).coords
        t1 = time.perf_counter()
        run.record("client.request", t0, t1)
        return Op(t0, t1, np.array_equal(coords, settled), "layout (bitwise vs the settled one)")

    windows = run.windows([_closed_loop(op, "layout")], TAIL[workload])
    # With every timed layout equal to the settled one, one comparison with
    # a strict-validated layout covers them all.
    run.gate(
        "timed layouts bitwise-equal to a strict-validated layout",
        lambda: np.array_equal(layout(g, validate="strict").coords, settled),
    )
    return run.result(windows, TAIL[workload], [(g, settled)])


def solve_road(run: Run) -> dict:
    return _solve(run, "solve-road", 10, None)


def solve_kron(run: Run) -> dict:
    return _solve(run, "solve-kron", 50, KernelConfig(traversal="batched"))


# -- serve-hot ------------------------------------------------------------
def _hot_keys(router: ClusterRouter, scale: str, seed: int) -> list[tuple[str, int]]:
    """``barth`` at the run's seed, ``ecology`` at the first seed from there
    that the other worker owns.

    The owning worker follows from a hash of a graph's name, scale and
    seed.  Left to the run's seed, both hot graphs share one worker for
    half of the seeds, and that worker's queue raises the tail by 10-20%.
    """
    first = router.owner_of("barth", scale, seed)
    other = next(s for s in itertools.count(seed) if router.owner_of("ecology", scale, s) != first)
    return [("barth", seed), ("ecology", other)]


def serve_hot(run: Run) -> dict:
    seed = run.seed
    scale = run.scales["hot"]
    cold_scale = run.scales["cold"]
    cold_n = datasets.load("barth", cold_scale, seed=seed).n
    #: (graph, seed) of the two hot layouts, one per worker.
    hot: list[tuple[str, int]] = []

    def hot_body(name: str, s: int) -> bytes:
        return _encode({"graph": name, "scale": scale, "s": 10, "seed": s, "include_coords": True})

    def start():
        router = ClusterRouter(2, compute_threads=1, timeout=120.0).start()
        server = make_cluster_server(router, port=0).start()
        if not hot:
            hot.extend(_hot_keys(router, scale, seed))
        conn = Connection(server.address)
        fingerprints = []
        for name, s in hot:
            status, reply = conn.post("/layout", hot_body(name, s))
            if status != 200:
                raise RuntimeError(f"first hot layout failed: HTTP {status}")
            fingerprints.append(json.loads(reply)["fingerprint"])
        conn.close()
        return router, server, fingerprints

    def stop(cluster) -> None:
        router, server, _ = cluster
        server.shutdown()
        router.close()

    router, server, fingerprints = run.setup(start, stop)
    try:
        hot_bodies = [hot_body(name, s) for name, s in hot]
        graphs = [datasets.load(name, scale, seed=s) for name, s in hot]
        refs = [
            run.gate(f"reference layout {g.name}", lambda g=g, s=s: repro.parhde(g, 10, seed=s).coords)
            for g, (_, s) in zip(graphs, hot)
        ]
        markers = [f'"fingerprint": "{fp}"'.encode() for fp in fingerprints]
        conns = [Connection(server.address) for _ in range(2)]

        def client(cid: int) -> Callable:
            conn = conns[cid]
            rng = np.random.default_rng([seed, cid])
            sent = {"hot": 0, "cold": 0}

            def op() -> Op:
                # A fixed mix: a random share of cold requests would move
                # every latency percentile from run to run.
                cold = (sent["hot"] + sent["cold"]) % COLD_EVERY == COLD_EVERY - 1
                key = int(rng.integers(len(hot)))
                kind = "cold" if cold else "hot"
                sent[kind] += 1
                if cold:
                    # A seed no other request uses: a guaranteed compute.
                    body = _encode({
                        "graph": "barth", "scale": cold_scale, "s": 10,
                        "seed": (seed + 1) * 1_000_000 + cid * 100_000 + sent["cold"],
                        "include_coords": False,
                    })
                else:
                    body = hot_bodies[key]
                t0 = time.perf_counter()
                status, reply = conn.post("/layout", body)
                t1 = time.perf_counter()
                run.record("client.request", t0, t1, port=conn.port)
                if status != 200:
                    ok = False
                elif cold:
                    payload = json.loads(reply)
                    ok = payload["status"] == "computed" and payload["n"] == cold_n
                elif sent["hot"] % HOT_DECODE_EVERY == 0:
                    coords = np.asarray(json.loads(reply)["coords"], dtype=np.float64)
                    ok = refs[key] is not None and np.array_equal(coords, refs[key])
                else:
                    head = reply[:512]
                    ok = markers[key] in head and (
                        b'"status": "memory-hit"' in head or b'"status": "coalesced"' in head
                    )
                return Op(t0, t1, ok, kind, nbytes=len(reply))

            return _closed_loop(op, "layout request")

        before: dict = {}
        windows = run.windows(
            [client(0), client(1)], TAIL["serve-hot"],
            before_traced=lambda: before.update(router.stats()),
        )
        for conn in conns:
            conn.close()
        first = windows[0]
        client_metrics = {
            "client.hot_ms_p50": percentile_ms(run.scaled(first, "hot"), 50),
            "client.cold_ms_p50": percentile_ms(run.scaled(first, "cold"), 50),
        }
        return run.result(
            windows,
            TAIL["serve-hot"],
            [(g, ref) for g, ref in zip(graphs, refs) if ref is not None],
            lambda: _cluster_service(before, router.stats()),
            client_metrics,
        )
    finally:
        stop((router, server, None))


def _histogram_p50(snapshots: list[dict], name: str) -> float:
    """Median of per-engine p50s of a telemetry histogram (0 if unused)."""
    values = [
        snap["histograms"][name]["p50"]
        for snap in snapshots
        if snap.get("histograms", {}).get(name, {}).get("count")
    ]
    return float(median(values)) if values else 0.0


def _cluster_service(before: dict, after: dict) -> dict:
    def cache(snap, key):
        return snap.get("aggregate", {}).get("cache", {}).get(key, 0)

    def router_counter(snap, key):
        return snap.get("router", {}).get("counters", {}).get(key, 0)

    hits = cache(after, "hits") - cache(before, "hits")
    misses = cache(after, "misses") - cache(before, "misses")
    engines = [w for w in after.get("workers", {}).values() if w.get("state") == "up"]
    return {
        "coalesced": router_counter(after, "router.coalesced")
        - router_counter(before, "router.coalesced"),
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "queue_wait_s_p50": _histogram_p50(engines, "queue_wait_seconds"),
        "compute_s_p50": _histogram_p50(engines, "compute_seconds"),
    }


# -- serve-edit -----------------------------------------------------------
class _Editor:
    """One editing client: owns a graph, its edit stream and its pins."""

    def __init__(self, run: Run, cid: int, name: str, scale: str):
        self.run = run
        self.name = name
        self.base = datasets.load(name, scale, seed=run.seed)
        u, v = self.base.edge_list()
        self.base_edges = set(zip(u.tolist(), v.tolist()))
        self.cid = cid
        self.ident = {"graph": name, "scale": scale, "seed": run.seed}
        self.layout_body = _encode({**self.ident, "s": 10, "include_coords": False})

    def prime(self, conn: Connection) -> None:
        """Fresh edit stream; first layout; pin the fixed vertices there."""
        self.conn = conn
        self.rng = np.random.default_rng([self.run.seed, self.cid, 1])
        self.inserted: list[tuple[int, int]] = []
        self.deltas: list[tuple[list, list]] = []
        self.cycles = 0
        self.reply_bytes = 0
        status, reply = conn.post(
            "/layout", _encode({**self.ident, "s": 10, "include_coords": True})
        )
        if status != 200:
            raise RuntimeError(f"first layout of {self.name} failed: HTTP {status}")
        coords = np.asarray(json.loads(reply)["coords"])
        self.first_coords = coords
        self.extent = float(coords.std())
        pin_vertices = self.rng.choice(self.base.n, PINS, replace=False)
        self.home = {int(v): coords[v] for v in pin_vertices}
        self.pins = {v: [float(c) for c in pos] for v, pos in self.home.items()}
        status1, _, _, _ = self._post(
            "/update", {**self.ident, "pins": [[v, p] for v, p in self.pins.items()]}
        )
        status2, _, _, _ = self._post("/layout", None)
        if (status1, status2) != (200, 200):
            raise RuntimeError(f"pinning {self.name} failed: HTTP {status1}/{status2}")

    def _post(self, path: str, doc: dict | None) -> tuple[int, dict, float, float]:
        body = self.layout_body if doc is None else _encode(doc)
        t0 = time.perf_counter()
        status, reply = self.conn.post(path, body)
        t1 = time.perf_counter()
        self.run.record("client.request", t0, t1, port=self.conn.port)
        self.reply_bytes += len(reply)
        return status, json.loads(reply), t0, t1

    def _new_edges(self) -> list[tuple[int, int]]:
        # Random vertex pairs that are not edges yet.
        present = set(self.inserted)
        out: list[tuple[int, int]] = []
        while len(out) < EDIT_INSERTS:
            u, v = sorted(int(x) for x in self.rng.integers(self.base.n, size=2))
            if u == v or (u, v) in self.base_edges or (u, v) in present:
                continue
            present.add((u, v))
            out.append((u, v))
        return out

    def cycle(self) -> Op:
        # Deletes only remove edges this client inserted, so the base
        # graph's edges stay and the graph stays connected.
        self.reply_bytes = 0
        inserts = self._new_edges()
        k = min(EDIT_DELETES, len(self.inserted))
        picks = set(self.rng.choice(len(self.inserted), k, replace=False).tolist()) if k else set()
        deletes = [e for i, e in enumerate(self.inserted) if i in picks]
        self.inserted = [e for i, e in enumerate(self.inserted) if i not in picks] + inserts
        edit = {"inserts": [list(e) for e in inserts], "deletes": [list(e) for e in deletes]}
        self.deltas.append((edit["inserts"], edit["deletes"]))
        status1, upd, t0, _ = self._post("/update", {**self.ident, **edit})
        status2, lay, _, t1 = self._post("/layout", None)
        v = list(self.home)[self.cycles % PINS]
        self.cycles += 1
        pos = self.home[v] + self.rng.normal(0.0, 0.05 * self.extent, size=len(self.home[v]))
        self.pins[v] = [float(c) for c in pos]
        status3, drag, t2, _ = self._post("/update", {**self.ident, "pins": [[v, self.pins[v]]]})
        status4, lay2, _, t3 = self._post("/layout", None)
        ok = (
            (status1, status2, status3, status4) == (200, 200, 200, 200)
            and (upd["inserted"], upd["deleted"], upd["skipped"]) == (len(inserts), len(deletes), 0)
            and drag["pinned"] == 1
            and lay["status"] == "computed"
            and lay2["status"] == "computed"
        )
        return Op(
            t0, t3, ok, f"{self.name} edit-and-drag cycle",
            nbytes=self.reply_bytes, parts=(t1 - t0, t3 - t2),
        )

    def check_final(self) -> None:
        """The served layout against a cold solve of the replayed edits."""
        status, reply = self.conn.post(
            "/layout", _encode({**self.ident, "s": 10, "include_coords": True})
        )
        if status != 200:
            raise RuntimeError(f"final layout HTTP {status}")
        served = np.asarray(json.loads(reply)["coords"], dtype=np.float64)
        dyn = DynamicGraph(self.base)
        for inserts, deletes in self.deltas:
            dyn.apply(edge_delta(inserts=inserts, deletes=deletes), strict=True)
            dyn.maybe_compact()
        ref = repro.parhde(
            dyn.to_csr(), 10, seed=self.run.seed, constraints={"pins": self.pins}
        ).coords
        err = float(np.abs(served - ref).max() / np.abs(ref).max())
        if not err <= EDIT_RTOL:
            raise RuntimeError(f"off by {err:.3g} relative (tolerance {EDIT_RTOL:g})")


def serve_edit(run: Run) -> dict:
    scale = run.scales["edit"]
    editors = [_Editor(run, 0, "barth", scale), _Editor(run, 1, "ecology", scale)]

    def start():
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=run.work_dir)
        engine = LayoutEngine(workers=2, wal_dir=wal_dir, wal_fsync="batch")
        server = LayoutServer(engine, port=0).start()
        conns = [Connection(server.address) for _ in editors]
        for editor, conn in zip(editors, conns):
            editor.prime(conn)
        return engine, server, conns, wal_dir

    def stop(state) -> None:
        engine, server, conns, wal_dir = state
        for conn in conns:
            conn.close()
        server.shutdown()
        engine.close()
        shutil.rmtree(wal_dir, ignore_errors=True)

    state = run.setup(start, stop)
    engine = state[0]
    try:
        before: dict = {}
        windows = run.windows(
            [_closed_loop(e.cycle, "edit-and-drag cycle") for e in editors],
            TAIL["serve-edit"],
            before_traced=lambda: before.update(engine.stats()),
        )
        service = _engine_service(before, engine.stats())
        for editor in editors:
            run.gate(f"{editor.name} served layout vs replayed reference", editor.check_final)
    finally:
        stop(state)
    first = windows[0]
    edit_s, drag_s = run.scaled(first, part=0), run.scaled(first, part=1)
    client_metrics = {
        "client.edit_to_layout_ms_p50": percentile_ms(edit_s, 50),
        "client.edit_to_layout_ms_p90": percentile_ms(edit_s, 90),
        "client.drag_to_layout_ms_p50": percentile_ms(drag_s, 50),
        "client.drag_to_layout_ms_p90": percentile_ms(drag_s, 90),
    }
    # Quality of the unconstrained first layouts: a pinned layout's energy
    # moves up to 4x with the pivot seed, so it cannot guard quality
    # across seeds (the pinned layouts are gated against a replay above).
    layouts = [(e.base, e.first_coords) for e in editors]
    return run.result(windows, TAIL["serve-edit"], layouts, lambda: service, client_metrics)


def _engine_service(before: dict, after: dict) -> dict:
    def counter(snap, key):
        return snap.get("counters", {}).get(key, 0)

    def delta(key):
        return counter(after, key) - counter(before, key)

    def wal(snap, key):
        return snap.get("wal", {}).get(key, 0)

    hits, misses = delta("cache_hits"), delta("cache_misses")
    warm_hits = delta("constraints.warm_hits")
    warm_misses = delta("constraints.warm_misses")
    return {
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "warm_hit_ratio": warm_hits / (warm_hits + warm_misses) if warm_hits + warm_misses else 0.0,
        "wal_appends": wal(after, "appends") - wal(before, "appends"),
        "wal_fsyncs": wal(after, "fsyncs") - wal(before, "fsyncs"),
        "queue_wait_s_p50": _histogram_p50([after], "queue_wait_seconds"),
        "compute_s_p50": _histogram_p50([after], "compute_seconds"),
    }


RUNNERS = {
    "solve-road": solve_road,
    "solve-kron": solve_kron,
    "serve-hot": serve_hot,
    "serve-edit": serve_edit,
}
