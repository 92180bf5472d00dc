"""Per-level BFS tracing — the GAP verbose mode, structured.

The direction-optimizing heuristic's behaviour (when it flips to
bottom-up, how big the frontiers get, how much work each level does) is
what Figures 4 and 5's BFS analysis hinges on.  This tracer runs the
traversal's own level loop and turns the per-level rows it keeps into
one :class:`LevelTrace` each, giving the benchmarks and any curious user
the same per-level view GAP prints with ``-v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from .direction_optimizing import ALPHA, BETA, _traverse, graph_miss_rate

__all__ = ["LevelTrace", "trace_bfs", "format_trace"]


@dataclass(frozen=True)
class LevelTrace:
    """One level of a traced traversal."""

    level: int
    direction: str  # "td" | "bu"
    frontier_size: int
    frontier_edges: int
    edges_examined: int
    discovered: int


def trace_bfs(
    g: CSRGraph,
    source: int,
    *,
    alpha: float = ALPHA,
    beta: float = BETA,
) -> tuple[np.ndarray, list[LevelTrace]]:
    """Run a direction-optimizing BFS and record one trace per level.

    Returns ``(dist, traces)``; the traversal is the level loop of
    :func:`repro.bfs.bfs_distances`, so the distances are identical for
    the same parameters.
    """
    if not 0 <= source < g.n:
        raise ValueError("source out of range")
    dist, levels, _ = _traverse(g, source, graph_miss_rate(g), alpha, beta)
    traces = [
        LevelTrace(
            level=i + 1,
            direction=direction,
            frontier_size=size,
            frontier_edges=frontier_edges,
            edges_examined=edges,
            discovered=found,
        )
        for i, (direction, size, frontier_edges, edges, found) in enumerate(levels)
    ]
    return dist, traces


def format_trace(traces: list[LevelTrace]) -> str:
    """Render a trace as the familiar per-level table."""
    lines = [
        f"{'lvl':>4} {'dir':>4} {'frontier':>9} {'f-edges':>9}"
        f" {'examined':>9} {'found':>7}",
        "-" * 48,
    ]
    for t in traces:
        lines.append(
            f"{t.level:>4} {t.direction:>4} {t.frontier_size:>9}"
            f" {t.frontier_edges:>9} {t.edges_examined:>9} {t.discovered:>7}"
        )
    total = sum(t.edges_examined for t in traces)
    lines.append(f"{'':>23} total examined: {total}")
    return "\n".join(lines)
