"""Multi-process sharded serving tier (``parhde serve --workers N``).

Everything below :mod:`repro.service` runs in one Python process, so
real request throughput is GIL-bound no matter how many threads the
engine's pool holds.  This package is the horizontal layer above it:

* :mod:`~repro.cluster.protocol` — length-prefixed JSON frames over
  loopback sockets (inspectable, restart-safe, no pickle), with raw
  attachments for pre-encoded coordinates;
* :mod:`~repro.cluster.ring` — a consistent-hash ring mapping graph
  identities to worker shards: updates and layouts for one graph share
  a shard (epoch invalidation stays correct) and worker death moves
  only the dead shard's keys;
* :mod:`~repro.cluster.worker` — spawned worker processes, each a full
  shared-nothing :class:`~repro.service.engine.LayoutEngine` +
  :class:`~repro.service.cache.LayoutCache` behind the socket protocol;
* :mod:`~repro.cluster.router` — the frontend brain: cluster-wide
  coalescing of identical in-flight requests, heartbeat health checks
  feeding :class:`~repro.resilience.breaker.BreakerRegistry` circuit
  breakers, automatic worker restart with live resharding (in-flight
  requests retry on the ring successor), aggregated ``/stats``, and
  whole-cluster graceful drain fanning out the per-engine drain.  It
  has the same serving surface as the in-process
  :class:`~repro.service.http.EngineBackend`, so the HTTP face is the
  one :class:`~repro.service.http.LayoutServer`: ``make_cluster_server``
  is :func:`repro.service.http.make_server`, re-exported here;
* :mod:`~repro.cluster.policy` — analytic routing-policy comparison
  (consistent-hash vs size-balanced) priced by the machine model's
  distributed dimension (:func:`repro.parallel.machine.shard_times`).
  It prices what affinity costs; the live router places on the ring
  alone.

See ``docs/cluster.md`` for the architecture diagram, ring semantics,
failure modes and tuning guidance.
"""

from ..service.http import make_server as make_cluster_server
from .policy import balanced_assignment, compare_policies, hash_assignment
from .protocol import MAX_FRAME, ProtocolError, recv_msg, send_msg
from .ring import HashRing, graph_key
from .router import ClusterRouter, RemoteError, WorkerUnavailable
from .worker import WorkerConfig, worker_main

__all__ = [
    "MAX_FRAME",
    "ClusterRouter",
    "HashRing",
    "ProtocolError",
    "RemoteError",
    "WorkerConfig",
    "WorkerUnavailable",
    "balanced_assignment",
    "compare_policies",
    "graph_key",
    "hash_assignment",
    "make_cluster_server",
    "recv_msg",
    "send_msg",
    "worker_main",
]
