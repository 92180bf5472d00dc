"""Analytic routing-policy comparison for the sharded serving tier.

The router ships with consistent-hash routing because it needs *graph
affinity* (updates and layouts must share a shard) and *minimal
movement* on worker death.  But hash placement ignores request cost: a
handful of expensive graphs can pile onto one shard.  Before changing a
production routing policy you want to know how much that costs — and
the machine model can answer analytically, the same way it answers
thread-scaling questions for the kernels.

Given a workload (request key → cost ledger), this module builds the
per-shard assignment each policy would produce and prices it with
:func:`repro.parallel.machine.shard_times` (compute on ``p`` threads
per worker + α-β communication per request, the Buluç/Madduri
1D-partition accounting).  The makespan — the slowest shard — is the
cluster's modeled completion time; the makespan ratio between policies
is the analytic answer to "is size-balanced routing worth losing cheap
resharding for?".

``compare_policies`` is exercised by ``benchmarks/
bench_cluster_scaling.py`` and the examples in ``docs/cluster.md``.

The comparison is analytic only: the live router routes on the ring
alone.  A key must return to its owner when that worker respawns — the
respawned worker replays its write-ahead log and holds the graph's
post-update epochs (``docs/wal.md``) — and a size-balanced table that
moves keys off a dead worker for good would serve them from a shard
that never saw the updates.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..parallel.costs import Ledger
from ..parallel.machine import MachineSpec, shard_times
from .ring import HashRing

__all__ = [
    "balanced_assignment",
    "compare_policies",
    "hash_assignment",
]


def _cost_time(machine: MachineSpec, p: int, cost) -> float:
    nbytes = 0.0
    if isinstance(cost, tuple):
        cost, nbytes = cost
    totals = cost.total() if isinstance(cost, Ledger) else cost
    if isinstance(totals, (int, float)):
        compute = float(totals)  # already seconds
    else:
        compute = machine.time_totals(totals, p)
    return compute + machine.message_time(nbytes)


def hash_assignment(
    costs: Mapping[str, Any], shards: int, *, vnodes: int = 64
) -> dict[int, list]:
    """The consistent-hash ring's placement of ``costs`` over ``shards``.

    Uses the same :class:`~repro.cluster.ring.HashRing` the live router
    uses, so the modeled placement is the deployed placement.
    """
    ring = HashRing(vnodes)
    for shard in range(shards):
        ring.add(shard)
    assignment: dict[int, list] = {shard: [] for shard in range(shards)}
    for key, cost in costs.items():
        assignment[ring.owner(str(key))].append(cost)
    return assignment


def balanced_assignment(
    costs: Mapping[str, Any],
    shards: int,
    machine: MachineSpec,
    p: int,
) -> dict[int, list]:
    """Size-balanced (LPT greedy) placement: heaviest request first onto
    the currently lightest shard.

    The classic longest-processing-time heuristic — within 4/3 of the
    optimal makespan — standing in for an omniscient cost-aware router.
    It ignores graph affinity, which is why the live router does not use
    it; the point is to price what affinity costs.
    """
    order = sorted(
        costs.items(),
        key=lambda kv: _cost_time(machine, p, kv[1]),
        reverse=True,
    )
    assignment: dict[int, list] = {shard: [] for shard in range(shards)}
    loads = dict.fromkeys(range(shards), 0.0)
    for _key, cost in order:
        shard = min(loads, key=loads.get)
        assignment[shard].append(cost)
        loads[shard] += _cost_time(machine, p, cost)
    return assignment


def compare_policies(
    costs: Mapping[str, Any],
    machine: MachineSpec,
    p: int = 1,
    shards: int | None = None,
) -> dict:
    """Model both routing policies over one workload.

    Returns makespan (slowest shard), mean shard time and imbalance
    (makespan / mean — 1.0 is perfect) per policy, plus the makespan
    ratio ``hash / balanced`` (how much the hash policy's affinity
    guarantee costs on this workload).
    """
    shards = shards if shards is not None else machine.shards
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")

    def _summary(assignment: dict[int, list]) -> dict:
        times = shard_times(assignment, machine, p)
        makespan = max(times.values())
        mean = sum(times.values()) / len(times)
        return {
            "per_shard": times,
            "makespan": makespan,
            "mean": mean,
            "imbalance": makespan / mean if mean > 0 else 1.0,
        }

    hashed = _summary(hash_assignment(costs, shards))
    balanced = _summary(balanced_assignment(costs, shards, machine, p))
    return {
        "shards": shards,
        "requests": len(costs),
        "hash": hashed,
        "balanced": balanced,
        "hash_over_balanced": (
            hashed["makespan"] / balanced["makespan"]
            if balanced["makespan"] > 0
            else 1.0
        ),
    }
