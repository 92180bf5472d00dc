"""Fault-injection tests for :mod:`repro.resilience`.

Every test injects a specific fault (via the chaos failpoint harness or
file corruption) and asserts the documented recovery: a degraded-but-
on-time layout, a retried success, a tripped breaker, a quarantined
archive — and never an unhandled exception escaping the serving path.
"""

from __future__ import annotations

import ast
import itertools
import json
import logging
import random
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import parhde, phde, pivotmds
from repro.parallel import Ledger
from repro.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    PhaseOverrun,
    RetryPolicy,
    TransientError,
    baseline_layout,
    chaos,
    resilient_layout,
    split_budget,
    with_retry,
)
from repro.resilience.chaos import ChaosError
from repro.service import (
    LayoutCache,
    LayoutEngine,
    LayoutRequest,
    Overloaded,
    ResilienceConfig,
    Telemetry,
    make_server,
)


@pytest.fixture(autouse=True)
def _disarm_chaos():
    """Failpoint arming is process-global: always clean up."""
    yield
    chaos.reset()


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_elapsed_remaining_expired(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.t += 4.0
        assert d.elapsed() == pytest.approx(4.0)
        assert d.remaining() == pytest.approx(6.0)
        assert not d.expired()
        clock.t += 7.0
        assert d.expired()
        with pytest.raises(DeadlineExceeded):
            d.check("unit test")

    def test_phase_budget_overrun(self):
        clock = FakeClock()
        d = Deadline(10.0, phase_budgets={"BFS": 2.0}, clock=clock)
        with d.phase("BFS"):
            clock.t += 1.0  # within budget
        with pytest.raises(PhaseOverrun):
            with d.phase("BFS"):
                clock.t += 3.0  # over the phase budget, total still fine
        assert not d.expired()

    def test_unbudgeted_phase_only_checks_total(self):
        clock = FakeClock()
        d = Deadline(10.0, phase_budgets={"BFS": 2.0}, clock=clock)
        with d.phase("DOrtho"):
            clock.t += 5.0  # no phase budget: fine
        with pytest.raises(DeadlineExceeded):
            with d.phase("DOrtho"):
                clock.t += 6.0  # total blown

    def test_sub_deadline_takes_fraction_of_remaining(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        clock.t += 4.0
        sub = d.sub(0.5)
        assert sub.seconds == pytest.approx(3.0)
        clock.t += 9.0
        with pytest.raises(DeadlineExceeded):
            d.sub(0.5)

    def test_split_budget_normalizes(self):
        budgets = split_budget(10.0, {"A": 3.0, "B": 1.0})
        assert budgets == {"A": pytest.approx(7.5), "B": pytest.approx(2.5)}

    def test_ledger_phase_enforces_the_deadline(self):
        led = Ledger()
        with led.phase("BFS", None):
            assert led.current_phase == "BFS"
        assert led.current_phase == "Other"
        clock = FakeClock()
        d = Deadline(10.0, phase_budgets={"BFS": 2.0}, clock=clock)
        with pytest.raises(PhaseOverrun):
            with led.phase("BFS", d):
                clock.t += 3.0  # over the phase budget, total still fine
        assert led.current_phase == "Other"


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------
class TestRetry:
    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(attempt: int) -> str:
            attempts.append(attempt)
            if attempt < 2:
                raise TransientError("flake")
            return "ok"

        sleeps: list[float] = []
        out = with_retry(flaky, sleep=sleeps.append)
        assert out == "ok"
        assert attempts == [0, 1, 2]
        assert len(sleeps) == 2 and all(s > 0 for s in sleeps)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def broken(attempt: int):
            calls.append(attempt)
            raise ValueError("malformed")

        with pytest.raises(ValueError):
            with_retry(broken, sleep=lambda _: None)
        assert calls == [0]

    def test_should_retry_predicate_extends_types(self):
        policy = RetryPolicy(
            should_retry=lambda exc: isinstance(exc, ValueError)
        )
        calls = []

        def broken(attempt: int):
            calls.append(attempt)
            raise ValueError("transient after all")

        with pytest.raises(ValueError):
            with_retry(broken, policy=policy, sleep=lambda _: None)
        assert calls == [0, 1, 2]

    def test_deadline_exceeded_is_never_retryable(self):
        calls = []

        def overran(attempt: int):
            calls.append(attempt)
            raise DeadlineExceeded("too slow")

        with pytest.raises(DeadlineExceeded):
            with_retry(overran, sleep=lambda _: None)
        assert calls == [0]

    def test_backoff_never_sleeps_past_the_deadline(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        policy = RetryPolicy(base_delay=5.0, jitter=0.0)
        calls = []

        def flaky(attempt: int):
            calls.append(attempt)
            raise TransientError("flake")

        with pytest.raises(TransientError):
            with_retry(
                flaky, policy=policy, deadline=deadline, sleep=lambda _: None
            )
        assert calls == [0]  # 5s backoff cannot fit in a 1s budget

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        a = policy.delay(2, random.Random(7))
        b = policy.delay(2, random.Random(7))
        assert a == b
        assert 0.2 <= a <= 0.4  # raw 0.4, jittered down by at most half


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=3, reset_timeout=30, clock=clock)
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open" and not br.allow()

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=2, reset_timeout=30, clock=clock)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=30, clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.t += 31.0
        assert br.state == "half-open"
        assert br.allow()  # the probe
        assert not br.allow()  # concurrent arrival during the probe
        br.record_success()
        assert br.state == "closed" and br.allow()

    def test_failed_probe_reopens_for_a_full_window(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=30, clock=clock)
        br.record_failure()
        clock.t += 31.0
        assert br.allow()
        br.record_failure()
        assert br.state == "open" and not br.allow()
        clock.t += 29.0
        assert not br.allow()  # window restarted at the probe failure

    def test_transitions_are_reported(self):
        clock = FakeClock()
        seen: list[tuple[str, str]] = []
        br = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=30,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        br.record_failure()
        clock.t += 31.0
        br.allow()
        br.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_registry_keys_are_independent(self):
        clock = FakeClock()
        reg = BreakerRegistry(1, 30, clock=clock)
        reg.record("bad-graph:parhde", False)
        assert not reg.allow("bad-graph:parhde")
        assert reg.allow("good-graph:parhde")
        snap = reg.snapshot()
        assert snap["open"] == 1
        assert snap["tripped"] == {"bad-graph:parhde": "open"}


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------
class TestChaos:
    def test_unarmed_failpoint_is_a_noop(self):
        chaos.failpoint("parhde.bfs")

    def test_times_and_skip_control_firing(self):
        with chaos.inject("parhde.bfs", error=True, times=1, skip=1) as fp:
            chaos.failpoint("parhde.bfs")  # skipped
            with pytest.raises(ChaosError):
                chaos.failpoint("parhde.bfs")  # fires
            chaos.failpoint("parhde.bfs")  # budget spent
        assert fp.calls == 3 and fp.hits == 1
        chaos.failpoint("parhde.bfs")  # disarmed again

    def test_nested_arming_restores_the_outer_fault(self):
        with chaos.inject("parhde.bfs", error=True, times=10):
            with chaos.inject("parhde.bfs", times=10):  # benign inner fault
                chaos.failpoint("parhde.bfs")
            with pytest.raises(ChaosError):
                chaos.failpoint("parhde.bfs")

    def test_sites_match_the_failpoint_calls(self):
        # SITES is the injection matrix the chaos smoke walks: every
        # instrumented call must be registered, and every registered
        # name must still be instrumented somewhere.
        called = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                arg = node.args[0]
                if name == "failpoint" and isinstance(arg, ast.Constant):
                    called.add(arg.value)
        assert set(chaos.SITES) == called

    def test_chaos_error_is_transient(self):
        assert RetryPolicy().is_retryable(ChaosError("injected"))

    def test_corrupt_file_flips_payload_bytes(self, tmp_path):
        p = tmp_path / "archive.bin"
        p.write_bytes(bytes(range(256)))
        flipped = chaos.corrupt_file(p, seed=1, nbytes=3)
        assert flipped == 3
        data = p.read_bytes()
        assert len(data) == 256
        assert data[:128] == bytes(range(128))  # front (magic) untouched
        assert data != bytes(range(256))


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------
class TestLadder:
    def test_clean_run_is_full_tier_and_bitwise_equal(self, small_grid):
        res = resilient_layout(small_grid, 8, seed=3)
        ref = parhde(small_grid, 8, seed=3)
        assert res.quality_tier == "full"
        assert np.array_equal(res.coords, ref.coords)
        rungs = res.params["resilience"]["rungs"]
        assert [r["outcome"] for r in rungs] == ["ok"]

    def test_transient_kernel_fault_is_retried_within_the_rung(
        self, small_grid
    ):
        telemetry = Telemetry()
        with chaos.inject("parhde.eigensolve", error=True, times=1):
            res = resilient_layout(
                small_grid,
                8,
                seed=3,
                retry=RetryPolicy(base_delay=0.0, jitter=0.0),
                telemetry=telemetry,
            )
        assert res.quality_tier == "full"
        assert res.params["resilience"]["retries"] == 1
        assert telemetry.snapshot()["counters"]["resilience.retries"] == 1

    def test_persistent_kernel_fault_descends_to_baseline(self, small_grid):
        telemetry = Telemetry()
        with chaos.inject("parhde.dortho", error=True):
            res = resilient_layout(
                small_grid,
                8,
                seed=3,
                retry=RetryPolicy(max_attempts=1),
                telemetry=telemetry,
            )
        assert res.quality_tier == "baseline"
        outcomes = [r["outcome"] for r in res.params["resilience"]["rungs"]]
        assert outcomes == ["failed", "failed", "failed", "ok"]
        counters = telemetry.snapshot()["counters"]
        assert counters["resilience.degraded.baseline"] == 1
        # Baseline is deterministic: same seed, same floor.
        again = baseline_layout(small_grid, seed=3)
        assert np.array_equal(res.coords, again.coords)

    def test_stalled_phase_degrades_instead_of_blowing_the_deadline(
        self, small_grid
    ):
        t0 = time.perf_counter()
        with chaos.inject("parhde.bfs", sleep=0.35, times=2):
            res = resilient_layout(small_grid, 8, seed=3, deadline=1.0)
        elapsed = time.perf_counter() - t0
        assert res.quality_tier in ("reduced", "coarse", "baseline")
        assert elapsed < 2.0
        overruns = [
            r
            for r in res.params["resilience"]["rungs"]
            if r["outcome"] == "overrun"
        ]
        assert overruns, "the stalled rung should be recorded as an overrun"

    @pytest.mark.parametrize(
        "algorithm", [parhde, phde, pivotmds], ids=lambda f: f.__name__
    )
    def test_every_solver_honours_the_rung_deadline(
        self, small_grid, algorithm
    ):
        # Every clock read advances 300 s, so the full rung's phases
        # outlast its sub-deadline whichever solver runs them, and so do
        # the coarse rung's multilevel parhde phases.
        deadline = Deadline(10000, clock=itertools.count(0, 300.0).__next__)
        res = resilient_layout(
            small_grid, 8, algorithm=algorithm, deadline=deadline
        )
        full, _reduced, coarse = res.params["resilience"]["rungs"][:3]
        assert (full["rung"], full["outcome"]) == (algorithm.__name__, "overrun")
        assert (coarse["rung"], coarse["outcome"]) == (
            "multilevel-coarse",
            "overrun",
        )

    def test_rank_deficiency_is_retried_with_a_larger_subspace(self):
        calls: list[int] = []

        def needy(g, s, **kwargs):
            calls.append(s)
            if len(calls) < 2:
                raise ValueError(
                    f"only 1 independent distance vectors survived (s={s})"
                )
            return baseline_layout(g, dims=kwargs.get("dims", 2))

        from repro.graph import grid2d

        g = grid2d(5, 5)
        res = resilient_layout(
            g,
            6,
            algorithm=needy,
            retry=RetryPolicy(base_delay=0.0, jitter=0.0),
        )
        assert res.params["resilience"]["retries"] == 1
        assert calls == [6, 10]  # restarted with s + 4


# ---------------------------------------------------------------------------
# Disk-cache corruption
# ---------------------------------------------------------------------------
class TestCacheCorruption:
    def _seed_cache(self, g, tmp_path):
        cache = LayoutCache(disk_dir=tmp_path / "cache")
        result = parhde(g, 8, seed=0)
        cache.put("deadbeef", result)
        return cache, tmp_path / "cache" / "deadbeef.npz"

    def test_corrupt_entry_quarantined_and_logged_once(
        self, small_grid, tmp_path, caplog
    ):
        cache, payload = self._seed_cache(small_grid, tmp_path)
        cache.clear()
        chaos.corrupt_file(payload, seed=5)
        with caplog.at_level(logging.WARNING, logger="repro.service.cache"):
            assert cache.get("deadbeef") is None
            assert cache.get("deadbeef") is None  # clean miss, no re-read
        warnings = [
            r for r in caplog.records if "corrupt" in r.getMessage()
        ]
        assert len(warnings) == 1
        assert cache.stats()["disk_corrupt"] == 1
        qdir = payload.parent / "quarantine"
        assert (qdir / payload.name).exists()
        assert (qdir / (payload.name + ".sha256")).exists()

    def test_missing_sidecar_adopts_prewarmed_entry(self, small_grid, tmp_path):
        # A payload without a sidecar is what a CLI-saved archive
        # dropped into the cache dir looks like: adopted, not corrupt.
        cache, payload = self._seed_cache(small_grid, tmp_path)
        cache.clear()
        sidecar = payload.with_name(payload.name + ".sha256")
        sidecar.unlink()
        hit = cache.get("deadbeef")
        assert hit is not None
        assert cache.stats()["disk_adopted"] == 1
        assert cache.stats()["disk_corrupt"] == 0
        assert sidecar.exists()  # re-published for checksummed reloads

    def test_corrupt_prewarmed_entry_still_quarantined(
        self, small_grid, tmp_path
    ):
        cache, payload = self._seed_cache(small_grid, tmp_path)
        cache.clear()
        payload.with_name(payload.name + ".sha256").unlink()
        chaos.corrupt_file(payload, seed=9, nbytes=64)
        assert cache.get("deadbeef") is None
        assert (payload.parent / "quarantine" / payload.name).exists()

    def test_failed_disk_write_is_absorbed_and_flush_recovers(
        self, small_grid, tmp_path
    ):
        cache = LayoutCache(disk_dir=tmp_path / "cache")
        result = parhde(small_grid, 8, seed=0)
        with chaos.inject("cache.disk_store", error=True):
            cache.put("cafe", result)
        payload = tmp_path / "cache" / "cafe.npz"
        assert not payload.exists()
        assert cache.stats()["disk_errors"] == 1
        assert cache.flush() == 1
        assert payload.exists()
        assert payload.with_name(payload.name + ".sha256").exists()
        # And the flushed archive round-trips.
        cache.clear()
        hit = cache.get("cafe")
        assert hit is not None and hit[1] == "disk"


# ---------------------------------------------------------------------------
# Engine: the resilience acceptance path
# ---------------------------------------------------------------------------
class TestEngineResilience:
    def test_stalled_bfs_and_corrupt_cache_still_answer_in_time(
        self, small_grid, tmp_path
    ):
        """The headline scenario: chaos stalls BFS *and* the cached disk
        entry is corrupt — submit() must still answer within the request
        deadline with a degraded (non-"full") layout, no exception."""
        cache = LayoutCache(disk_dir=tmp_path / "cache")
        engine = LayoutEngine(
            cache=cache, workers=2, timeout=30.0, resilience=True
        )
        try:
            req = LayoutRequest(graph=small_grid, s=8, seed=0)
            first = engine.submit(req)
            assert first.quality_tier == "full"
            # Rot the disk copy, drop the memory copy.
            cache.clear()
            chaos.corrupt_file(
                tmp_path / "cache" / f"{first.fingerprint}.npz", seed=4
            )
            timeout = 3.0
            with chaos.inject("parhde.bfs", sleep=0.8, times=2):
                t0 = time.perf_counter()
                resp = engine.submit(
                    LayoutRequest(
                        graph=small_grid, s=8, seed=0, timeout=timeout
                    )
                )
                elapsed = time.perf_counter() - t0
            assert elapsed < timeout
            assert resp.quality_tier != "full"
            assert resp.result.coords.shape == (small_grid.n, 2)
            assert cache.stats()["disk_corrupt"] == 1
            counters = engine.stats()["counters"]
            degraded = [
                k for k in counters if k.startswith("resilience.degraded.")
            ]
            assert degraded, "degradation must be visible in telemetry"
        finally:
            engine.close()

    def test_degraded_results_are_never_cached(self, small_grid):
        cache = LayoutCache()
        engine = LayoutEngine(
            cache=cache,
            workers=1,
            timeout=10.0,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
        )
        try:
            with chaos.inject("parhde.dortho", error=True):
                resp = engine.submit(
                    LayoutRequest(graph=small_grid, s=8, seed=0)
                )
            assert resp.quality_tier == "baseline"
            assert cache.stats()["stores"] == 0
            assert engine.stats()["counters"]["uncached_degraded"] == 1
        finally:
            engine.close()

    def test_breaker_trips_and_short_circuits(self, small_grid):
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            breaker_threshold=2,
            breaker_reset=60.0,
        )
        engine = LayoutEngine(workers=1, timeout=10.0, resilience=cfg)
        try:
            req = LayoutRequest(graph=small_grid, s=8, seed=0)
            with chaos.inject("parhde.bfs", error=True):
                for _ in range(2):
                    assert engine.submit(req).quality_tier == "baseline"
                t0 = time.perf_counter()
                resp = engine.submit(req)
                short_elapsed = time.perf_counter() - t0
            assert resp.status == "degraded"
            assert resp.quality_tier == "baseline"
            assert resp.result.params["degraded_reason"] == "circuit_open"
            assert short_elapsed < 0.5  # served inline, no worker burned
            stats = engine.stats()
            assert stats["breakers"]["open"] == 1
            assert stats["counters"]["breaker.short_circuits"] == 1
            assert stats["counters"]["breaker.to_open"] == 1
            assert stats["gauges"]["breakers_open"] == 1
        finally:
            engine.close()

    def test_resilience_off_keeps_fail_fast_semantics(self, small_grid):
        engine = LayoutEngine(workers=1, timeout=10.0)
        try:
            with chaos.inject("parhde.bfs", error=True):
                from repro.service import ServiceError

                with pytest.raises(ServiceError):
                    engine.submit(
                        LayoutRequest(graph=small_grid, s=8, seed=0)
                    )
        finally:
            engine.close()

    def test_drain_refuses_new_work(self, small_grid):
        engine = LayoutEngine(workers=1, timeout=10.0)
        try:
            assert engine.drain(0.2) is True
            assert engine.draining
            with pytest.raises(Overloaded):
                engine.submit(LayoutRequest(graph=small_grid, s=8, seed=0))
            assert engine.stats()["draining"] is True
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# HTTP graceful shutdown
# ---------------------------------------------------------------------------
class TestServerDrain:
    def test_draining_server_answers_503(self):
        engine = LayoutEngine(workers=1, timeout=10.0)
        server = make_server(engine, port=0).start()
        try:
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                assert json.loads(resp.read()) == {"status": "ok", "workers": 1}
            assert server.drain(0.5) is True
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/healthz")
            assert err.value.code == 503
            assert json.loads(err.value.read())["status"] == "draining"
            post = urllib.request.Request(
                server.url + "/layout",
                data=b'{"graph": "barth"}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(post)
            assert err.value.code == 503
            assert json.loads(err.value.read())["error"] == "overloaded"
        finally:
            server.shutdown()
            engine.close()


# ---------------------------------------------------------------------------
# Telemetry gauges
# ---------------------------------------------------------------------------
class TestGauges:
    def test_gauge_moves_both_ways_and_snapshots(self):
        t = Telemetry()
        assert "gauges" not in t.snapshot()
        t.gauge("breakers_open").add(2)
        t.gauge("breakers_open").add(-1)
        t.set_gauge("depth", 7)
        snap = t.snapshot()
        assert snap["gauges"] == {"breakers_open": 1.0, "depth": 7.0}


# ---------------------------------------------------------------------------
# Stream crash recovery through the WAL
# ---------------------------------------------------------------------------
class TestStreamWalResume:
    def test_resume_wal_restores_the_last_frame(self, small_grid, tmp_path):
        from repro.stream import StreamSession
        from repro.stream.delta import edge_delta

        wal = tmp_path / "wal"
        s1 = StreamSession(small_grid, 8, seed=3, wal=wal)
        s1.update(edge_delta(inserts=[(0, small_grid.n // 2)]))
        s1.close()

        # resume_wal takes the stream's initial graph and replays.
        s2 = StreamSession.resume_wal(small_grid, wal, s=8, seed=3)
        assert s2.epoch == 1
        assert np.array_equal(s2.coords, s1.coords)
        s2.close()

    def test_corrupt_checkpoint_falls_back_to_fresh(
        self, small_grid, tmp_path, caplog
    ):
        from repro.stream import StreamSession
        from repro.stream.delta import edge_delta

        wal = tmp_path / "wal"
        s1 = StreamSession(
            small_grid, 8, seed=3, wal=wal, wal_snapshot_every=1
        )
        s1.update(edge_delta(inserts=[(0, small_grid.n // 2)]))
        s1.close()
        (frame,) = wal.glob("frame-*.npz")
        frame.write_bytes(b"not an archive")

        with caplog.at_level("WARNING", logger="repro.stream.session"):
            session = StreamSession.resume_wal(small_grid, wal, s=8, seed=3)
        assert session.epoch == 0
        assert "cannot restore stream checkpoint" in caplog.text
        fresh = StreamSession(small_grid, 8, seed=3)
        assert np.array_equal(session.coords, fresh.coords)
        session.close()
        # The fresh session checkpointed over the corpse.
        again = StreamSession.resume_wal(small_grid, wal, s=8, seed=3)
        assert again.epoch == 0
        assert np.array_equal(again.coords, fresh.coords)
        again.close()

    def test_corrupt_snapshot_after_compaction_starts_fresh(
        self, small_grid, tmp_path, caplog
    ):
        # The journal below the checkpoint is compacted away, so the
        # records after it must not replay onto the initial graph.
        from repro.stream import StreamSession
        from repro.stream.delta import edge_delta

        wal = tmp_path / "wal"
        s1 = StreamSession(
            small_grid, 8, seed=3, wal=wal, wal_snapshot_every=2
        )
        for v in (5, 6, 7):
            s1.update(edge_delta(inserts=[(0, small_grid.n // 2 + v)]))
        s1.close()
        (snapshot,) = wal.glob("snapshot-*.json")
        snapshot.write_bytes(b"garbage")

        with caplog.at_level("WARNING", logger="repro.stream.session"):
            session = StreamSession.resume_wal(small_grid, wal, s=8, seed=3)
        assert session.epoch == 0
        assert "no readable checkpoint" in caplog.text
        fresh = StreamSession(small_grid, 8, seed=3)
        assert np.array_equal(session.coords, fresh.coords)
        session.close()
