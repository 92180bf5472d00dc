"""Content-addressed identity for layout requests.

A layout is a pure function of the graph structure and the algorithm
parameters, so a request can be identified by a digest over both.  Two
requests with the same fingerprint are *the same request* — the cache
and the engine's single-flight dedup both key on it.

The digest is deliberately computed from the canonical CSR arrays, not
from the input edge list: :func:`repro.graph.build.from_edges` sorts
adjacency lists and deduplicates edges, so any construction order of the
same graph produces byte-identical ``indptr``/``indices`` and therefore
the same digest.  Graph names and other labels are excluded — they do
not affect coordinates.

``FINGERPRINT_VERSION`` is folded into every digest; bump it whenever
the layout algorithms change in a coordinate-visible way so stale disk
caches miss instead of serving wrong answers.

Dynamic graphs additionally fold a *graph epoch* into the fingerprint
(v2): the engine bumps the epoch on every ``POST /update``, so layouts
cached for an earlier version of a graph can never be served for the
edited one — including from the disk tier, whose filenames are the
fingerprints themselves.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "FINGERPRINT_VERSION",
    "canonical_params",
    "graph_digest",
    "layout_fingerprint",
]

#: Format version folded into every digest (graph and request alike).
#: v2 added the graph-epoch component for dynamic graphs.  v3: the small
#: eigensolve fixes each eigenvector's sign (largest entry positive),
#: which mirrors an axis of some pinned layouts.
FINGERPRINT_VERSION = 3


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays so params hash independently of dtype."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def canonical_params(params: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding of a parameter mapping.

    Keys are sorted, numpy scalars are normalized to Python numbers
    (``np.int64(10)`` and ``10`` are the same parameter), and the
    encoding is whitespace-free — equal mappings always produce equal
    strings.
    """
    return json.dumps(
        _json_safe(dict(params)),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )


def graph_digest(g: CSRGraph) -> str:
    """Stable content digest of a graph's structure (hex sha256).

    Covers ``indptr``, ``indices`` and ``weights`` after normalizing to
    fixed dtypes, so equal graphs digest equally regardless of the dtype
    the builder happened to use.  The graph's ``name`` is ignored.
    """
    h = hashlib.sha256()
    h.update(f"repro-graph-v{FINGERPRINT_VERSION}".encode())
    h.update(np.ascontiguousarray(g.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.indices, dtype=np.int64).tobytes())
    if g.weights is None:
        h.update(b"|unweighted")
    else:
        h.update(b"|weights")
        h.update(np.ascontiguousarray(g.weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def layout_fingerprint(
    graph: CSRGraph | str,
    algorithm: str,
    params: Mapping[str, Any] | None = None,
    *,
    epoch: int = 0,
) -> str:
    """Fingerprint of one layout request (hex sha256).

    Parameters
    ----------
    graph:
        The graph itself, or a precomputed :func:`graph_digest` (the
        engine caches digests so repeated requests do not rehash large
        arrays).
    algorithm:
        Algorithm name (``"parhde"``, ``"phde"``, ``"pivotmds"``).
    params:
        Algorithm parameters; ``None`` means ``{}``.
    epoch:
        Graph epoch — the number of update batches applied to the graph
        since it was registered (0 for static graphs).  Folded into the
        digest so every update invalidates all cached layouts of the
        pre-update graph, memory and disk tier alike.
    """
    gd = graph if isinstance(graph, str) else graph_digest(graph)
    payload = "\x1f".join(
        (
            f"repro-layout-v{FINGERPRINT_VERSION}",
            gd,
            f"epoch={int(epoch)}",
            algorithm,
            canonical_params(params or {}),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()
