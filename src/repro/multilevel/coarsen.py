"""Graph coarsening: heavy-edge matching and spectrum-preserving matching.

The multilevel paradigm (paper section 2.3 and future work; the prior
Kirmani-Madduri system ran HDE "in a multilevel setup"): repeatedly
contract a matching to get a hierarchy of smaller graphs, lay out the
coarsest, and prolong + refine back up.  Two matching rules live here:

* :func:`heavy_edge_matching` — the classic sequential rule: match each
  vertex with the unmatched neighbor sharing the heaviest edge, so
  contraction absorbs as much edge weight (similarity) as possible.
* :func:`spectral_matching` — spectrum-preserving coarsening after
  Brissette, Huang & Slota ("Parallel coarsening of graph data with
  spectral guarantees"): edges are scored by an effective-resistance
  proxy ``w_uv * (1/wdeg(u) + 1/wdeg(v))`` — the leading term of the
  inverse-Laplacian diagonal estimate — and *low*-score (low-leverage,
  spectrally redundant) edges are contracted first.  The matching itself
  is a vectorized parallel handshake (each free vertex proposes its
  best free neighbor; mutual proposals match).  The CSR already groups
  edges by source, so a proposal is a row minimum and a round is a few
  O(m) NumPy passes with no sort and no loop over vertices — the
  property that makes million-vertex hierarchies buildable inside a
  serving request (:mod:`repro.lod`).

Contracting a matching with :func:`contract` produces exactly the
Galerkin coarse operator ``L_c = P^T L_f P`` for the 0/1 partition
prolongator ``P`` (parallel coarse edges sum their weights and
intra-group edges drop — self-loops do not enter a Laplacian), which is
what gives the coarse spectrum its one-sided interlacing guarantee
``mu_i >= lambda_i`` (Courant-Fischer on the range of ``P``); see
:mod:`repro.lod.hierarchy` for the measured distortion bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "CoarseLevel",
    "heavy_edge_matching",
    "spectral_matching",
    "absorb_singletons",
    "contract",
    "coarsen",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the coarse graph and the fine->coarse map."""

    graph: CSRGraph
    mapping: np.ndarray  # int64[n_fine] -> coarse vertex id
    vertex_weights: np.ndarray  # int64[n_coarse]: fine vertices absorbed

    @property
    def n_fine(self) -> int:
        return len(self.mapping)


def heavy_edge_matching(g: CSRGraph, seed: int = 0) -> np.ndarray:
    """A maximal matching preferring heavy edges.

    Returns ``match`` with ``match[v]`` the partner of ``v`` (or ``v``
    itself if unmatched).  Vertices are visited in random order; each
    unmatched vertex grabs its heaviest-edge unmatched neighbor.
    """
    rng = np.random.default_rng(seed)
    match = np.arange(g.n, dtype=np.int64)
    matched = np.zeros(g.n, dtype=bool)
    order = rng.permutation(g.n)
    indptr, indices = g.indptr, g.indices
    weights = g.weights
    for v in order:
        if matched[v]:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        if len(nbrs) == 0:
            continue
        free = ~matched[nbrs]
        if not free.any():
            continue
        cand = nbrs[free]
        if weights is None:
            # Unweighted: prefer the lowest-degree free neighbor, a
            # common tie-break that avoids starving sparse regions.
            u = int(cand[np.argmin(g.degrees[cand])])
        else:
            w = weights[lo:hi][free]
            u = int(cand[np.argmax(w)])
        match[v], match[u] = u, v
        matched[v] = matched[u] = True
    return match


def _edge_scores(g: CSRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every directed CSR edge as ``(src, dst, score)``, in CSR order.

    ``score`` is the effective-resistance proxy
    ``w_uv * (1/wdeg(u) + 1/wdeg(v))``; ``src`` is nondecreasing (the
    CSR's row grouping), which :func:`_row_argmin` relies on.
    """
    n = g.n
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    dst = g.indices.astype(np.int64)
    wdeg = g.weighted_degrees
    inv = np.zeros(n)
    np.divide(1.0, wdeg, out=inv, where=wdeg > 0)
    score = np.repeat(inv, g.degrees)
    score += inv[dst]
    if g.weights is not None:
        score *= g.weights
    return src, dst, score


def _row_argmin(src: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Position of each row's lowest-score edge, rows ascending.

    ``src`` must be nonempty and nondecreasing (CSR order, or a subset
    of it).  Ties go to the first edge in CSR order, as in a stable
    ``lexsort((score, src))``, but without the sort.
    """
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    row_min = np.minimum.reduceat(score, starts)
    lengths = np.diff(starts, append=len(src))
    hit = np.flatnonzero(score == np.repeat(row_min, lengths))
    return hit[np.r_[True, src[hit[1:]] != src[hit[:-1]]]]


def spectral_matching(
    g: CSRGraph, seed: int = 0, *, rounds: int = 6
) -> np.ndarray:
    """A matching of spectrally redundant edges (Brissette et al. scheme).

    Scores every edge with the effective-resistance proxy
    ``w_uv * (1/wdeg(u) + 1/wdeg(v))`` and runs ``rounds`` of a
    vectorized handshake: each free vertex proposes its lowest-score
    free neighbor, and mutual proposals become matched pairs.  Low
    scores mark edges whose endpoints are tightly embedded in the graph
    (low leverage in the inverse Laplacian), so contracting them
    perturbs the small eigenvalues least.  Returns the same ``match``
    encoding as :func:`heavy_edge_matching` (``match[v]`` is the partner
    of ``v``, or ``v`` itself when unmatched).

    A vertex proposes the first edge of its own CSR row, among edges to
    free neighbors, that attains the row's minimum score; after each
    round only edges between still-free vertices are kept.  So a round
    is O(m) NumPy passes — no sort, no per-vertex Python loop — because
    :mod:`repro.lod` builds hierarchies over graphs far beyond what the
    sequential matcher can visit interactively.
    """
    n = g.n
    match = np.arange(n, dtype=np.int64)
    if n == 0 or g.nnz == 0:
        return match
    src, dst, score = _edge_scores(g)
    # Symmetric deterministic jitter breaks score ties (regular graphs
    # would otherwise all propose the same neighbor and starve the
    # handshake).  Keyed by the undirected edge so both directions agree.
    key = np.minimum(src, dst).view(np.uint64)
    key *= np.uint64(2654435761)
    key += np.maximum(src, dst).view(np.uint64) * np.uint64(40503)
    key += np.uint64(seed)
    key ^= key >> np.uint64(15)
    key *= np.uint64(0x9E3779B97F4A7C15)
    key >>= np.uint64(11)
    u01 = key.astype(np.float64) / float(1 << 53)
    score *= 1.0 + 1e-3 * u01
    score += 1e-12 * u01

    free = np.ones(n, dtype=bool)
    for _ in range(max(1, int(rounds))):
        # Index, not mask: NumPy compresses by an irregular mask far slower.
        live = np.flatnonzero(free[src] & free[dst])
        if len(live) == 0:
            break
        if len(live) < len(src):
            src, dst, score = src[live], dst[live], score[live]
        pos = _row_argmin(src, score)
        v = src[pos]
        best = np.full(n, -1, dtype=np.int64)
        best[v] = dst[pos]
        # Handshake: v and best[v] matched iff each proposed the other.
        mutual = v[np.flatnonzero((best[best[v]] == v) & (v < best[v]))]
        if len(mutual) == 0:
            break
        partner = best[mutual]
        match[mutual] = partner
        match[partner] = mutual
        free[mutual] = False
        free[partner] = False
    return match


def absorb_singletons(
    g: CSRGraph, match: np.ndarray, *, cap: int = 3
) -> np.ndarray:
    """Aggregate unmatched vertices into an adjacent matched group.

    A maximal matching on a coarse weighted graph can still cover few
    vertices: contraction concentrates weight into hubs whose light
    satellite neighbors form a large independent set, and a 1-1 matching
    can pair at most one satellite per hub — the hierarchy stalls with
    shrink factors near 1 long before its target size.  The standard
    multilevel remedy is aggregation: each unmatched vertex joins the
    group of its *lowest-score* (most spectrally redundant, same
    effective-resistance proxy as :func:`spectral_matching`) matched
    neighbor, the first such edge of its CSR row on ties.  The result is
    a partition with groups of size 1..2+cap, still an exact Galerkin
    coarsening (``L_c = P^T L_f P`` for the 0/1 partition prolongator),
    so the one-sided interlacing guarantee is untouched.

    ``cap`` bounds how many singletons one group may absorb per level
    (tightest-coupled first), preventing a hub from swallowing its whole
    neighborhood in a single step and wrecking the coarse geometry.

    Returns an idempotent representative array ``rep`` (``rep[rep[v]] ==
    rep[v]``) accepted by :func:`contract`.
    """
    n = g.n
    match = np.asarray(match, dtype=np.int64)
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    free = match == np.arange(n)
    if not free.any() or g.nnz == 0 or cap <= 0:
        return rep
    src, dst, score = _edge_scores(g)
    sel = np.flatnonzero(free[src] & ~free[dst])  # singleton -> matched
    if len(sel) == 0:
        return rep
    fs, fd, fsc = src[sel], dst[sel], score[sel]
    # Lowest-score matched neighbor per singleton.
    pos = _row_argmin(fs, fsc)
    cand, target, best_score = fs[pos], rep[fd[pos]], fsc[pos]
    # Enforce the per-group cap, admitting the tightest-coupled
    # singletons first: rank candidates within each target group by
    # score and keep the first ``cap``.  Groups are keyed by target,
    # which the CSR's row order does not give, so this ranking sorts.
    o2 = np.lexsort((best_score, target))
    tgt_s, cand_s = target[o2], cand[o2]
    starts = np.flatnonzero(np.r_[True, tgt_s[1:] != tgt_s[:-1]])
    lengths = np.diff(starts, append=len(tgt_s))
    pos = np.arange(len(tgt_s)) - np.repeat(starts, lengths)
    keep = pos < int(cap)
    rep[cand_s[keep]] = tgt_s[keep]
    return rep


def contract(g: CSRGraph, match: np.ndarray) -> CoarseLevel:
    """Contract a matching (or aggregation) into a coarse weighted graph.

    Accepts either a pairwise matching involution (``match[match[v]] ==
    v``, from :func:`heavy_edge_matching` / :func:`spectral_matching`)
    or an idempotent group-representative array (``match[match[v]] ==
    match[v]``, from :func:`absorb_singletons`).  Grouped vertices merge
    into one coarse vertex; parallel coarse edges sum their weights
    (similarity accumulates).  Coarse ids follow the order of each
    group's representative fine id.

    The coarse CSR is built here: each ``u < v`` coarse pair sums its
    fine edges once, in CSR order (so both directions carry the same
    bits), then the pairs are mirrored and their keys sorted once.
    """
    match = np.asarray(match, dtype=np.int64)
    n = g.n
    if len(match) != n:
        raise ValueError("matching length must equal n")
    if np.array_equal(match[match], match):
        group_rep = match  # already an idempotent representative map
    else:
        group_rep = np.minimum(np.arange(n), match)
    # Coarse id = rank of the group's representative among all of them.
    is_rep = np.zeros(n, dtype=bool)
    is_rep[group_rep] = True
    mapping = (np.cumsum(is_rep) - 1)[group_rep]
    n_coarse = int(is_rep.sum())

    src = np.repeat(mapping, g.degrees)
    dst = mapping[g.indices]
    keep = np.flatnonzero(src < dst)  # one direction, no intra-group edges
    w = g.weights[keep] if g.weights is not None else np.ones(len(keep))
    # Sum parallel edges: the stable sort keeps each pair's fine edges
    # in CSR order, and bincount adds them in that order.
    key = src[keep] * n_coarse + dst[keep]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0
    wsum = np.bincount(np.cumsum(new) - 1, weights=w[order])
    # Mirror each pair into both adjacency lists; the keys are unique.
    eu, ev = np.divmod(key[new], n_coarse)
    both_src, both_dst = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    order = np.argsort(both_src * n_coarse + both_dst)
    indptr = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(np.bincount(both_src, minlength=n_coarse), out=indptr[1:])
    weights = np.concatenate([wsum, wsum])[order] if len(key) else None
    coarse = CSRGraph(indptr, both_dst[order].astype(np.int32), weights)
    vweights = np.bincount(mapping, minlength=n_coarse)
    return CoarseLevel(
        graph=coarse.with_name(f"{g.name or 'g'}-c{n_coarse}"),
        mapping=mapping,
        vertex_weights=vweights,
    )


def coarsen(g: CSRGraph, seed: int = 0) -> CoarseLevel:
    """One heavy-edge-matching coarsening step."""
    return contract(g, heavy_edge_matching(g, seed))
