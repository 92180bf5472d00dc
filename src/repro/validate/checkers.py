"""Per-phase invariant checkers for the ParHDE pipeline.

Each checker is a pure function returning a
:class:`~repro.validate.policy.CheckResult`; none of them raises on a
violation — escalation (warn vs. raise) is the caller's policy decision.
Checkers deliberately recompute their reference quantities through a
*different* code path than the kernel they guard (per-edge scatters
instead of the SpMM, per-vertex adjacency merges instead of the overlay
edge-list merge, fresh traversals instead of the incremental repair), so
a bug in the guarded kernel cannot hide itself in the check.

Checker catalogue (see docs/validate.md):

=====================  ======  ==========================================
check                  phase   invariant
=====================  ======  ==========================================
``bfs.levels``         BFS     pivot rows are 0; levels are finite,
                               non-negative (integral when unweighted)
                               and 1-Lipschitz along every edge
``dortho.residual``    DOrtho  ``max |S' D S - I|`` and ``S' D 1 = 0``
``tripleprod.lap``     Triple  SpMM ``L S`` equals the per-edge scatter
                       Prod    of ``sum w (e_u - e_v)(e_u - e_v)' S``
``eigen.residual``     Other   ``||Z Y - Y diag(evals)||`` small; the
                               eigenvalues are sorted ascending
``stream.overlay``     Stream  overlay-materialized CSR digest equals a
                               rebuild from per-vertex adjacency merges
``stream.repair``      Stream  repaired ``B`` exactly equals fresh
                               traversals from the same pivots
``cache.consistency``  Cache   a cached layout's own parameters echo the
                               request that keyed it (shape included)
=====================  ======  ==========================================
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

import numpy as np

from ..bfs.runner import run_sources
from ..graph.csr import CSRGraph
from ..linalg.laplacian import laplacian_spmm
from ..linalg.spmv import _GATHER_BLOCK_BYTES
from .policy import CheckResult

__all__ = [
    "check_bfs_levels",
    "check_cache_consistency",
    "check_constraints",
    "check_d_orthogonality",
    "check_eigenpairs",
    "check_laplacian_identity",
    "check_lod_distortion",
    "check_overlay_digest",
    "check_repair_equivalence",
]


def _directed_edges(g: CSRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All stored (directed) adjacency entries as ``(src, dst, w)``."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    dst = g.indices.astype(np.int64)
    w = (
        g.weights.astype(np.float64)
        if g.weights is not None
        else np.ones(g.nnz, dtype=np.float64)
    )
    return src, dst, w


def _edge_blocks(nnz: int, k: int) -> Iterator[slice]:
    """Consecutive slices of the stored edges, each small enough that a
    ``(len, k)`` float gather holds about ``_GATHER_BLOCK_BYTES``, so the
    edge checks never build an ``nnz x k`` array."""
    step = max(1, _GATHER_BLOCK_BYTES // (8 * max(1, k)))
    return (slice(a, a + step) for a in range(0, nnz, step))


def check_bfs_levels(
    g: CSRGraph,
    B: np.ndarray,
    pivots: np.ndarray,
    *,
    weighted: bool = False,
) -> CheckResult:
    """BFS/SSSP level sanity for every column of the distance matrix.

    A valid column ``i`` satisfies ``B[pivots[i], i] == 0``, every entry
    finite and non-negative (and integral for hop counts), and the
    triangle inequality along every edge: ``|d[u] - d[v]| <= w(u, v)``
    (1 for unweighted traversals) — distance levels cannot jump across
    an edge, which is exactly the frontier-monotonicity of a level-
    synchronous BFS.  Hop counts are checked exactly; weighted distances
    get a relative epsilon since SSSP accumulates floating-point sums.
    """
    B = np.asarray(B, dtype=np.float64)
    pivots = np.asarray(pivots, dtype=np.int64)
    residual = 0.0
    detail = ""
    if B.ndim != 2 or B.shape[0] != g.n or B.shape[1] != len(pivots):
        return CheckResult(
            "bfs.levels", "BFS", np.inf, 0.0,
            f"B shape {B.shape} does not match (n={g.n}, s={len(pivots)})",
        )
    if not np.all(np.isfinite(B)):
        return CheckResult(
            "bfs.levels", "BFS", np.inf, 0.0, "non-finite distance entries"
        )
    neg = float(np.maximum(-B.min(), 0.0))
    if neg > residual:
        residual = neg
        detail = "negative distance level"
    root = float(np.abs(B[pivots, np.arange(len(pivots))]).max()) if len(pivots) else 0.0
    if root > residual:
        residual = root
        detail = "pivot row is not zero"
    if not weighted:
        frac = float(np.abs(B - np.round(B)).max())
        if frac > residual:
            residual = frac
            detail = "non-integral hop count"
    src, dst, w = _directed_edges(g)
    jump = 0.0
    for e in _edge_blocks(g.nnz, B.shape[1]):
        bound = w[e, None] if weighted else 1.0
        gap = np.abs(B[src[e]] - B[dst[e]]) - bound
        jump = max(jump, float(np.maximum(gap, 0.0).max()))
    if jump > residual:
        residual = jump
        detail = "levels jump by more than the edge length"
    threshold = 1e-9 * (1.0 + float(np.abs(B).max())) if weighted else 0.0
    return CheckResult("bfs.levels", "BFS", residual, threshold, detail)


def check_d_orthogonality(
    S: np.ndarray,
    d: np.ndarray | None,
    *,
    tol: float = 1e-6,
    centered: bool = True,
) -> CheckResult:
    """Residual of ``S' D S = I`` plus ``S' D 1 = 0`` (Algorithm 3).

    ``d`` is the degree diagonal; ``None`` means plain orthogonality
    (``d = 1``), the section 4.5.1 variant.  Mass-weighted layouts pass
    ``d = m·d`` so this is the ``‖SᵀMDS − I‖`` invariant.

    ``centered=False`` skips the constant-vector term: pin-deflated
    bases are D-orthogonal to the *free-vertex indicator*, not to the
    all-ones vector, so only the Gram residual applies.
    """
    S = np.asarray(S, dtype=np.float64)
    n, k = S.shape
    dd = np.ones(n, dtype=np.float64) if d is None else np.asarray(d, dtype=np.float64)
    G = S.T @ (dd[:, None] * S)
    resid = float(np.abs(G - np.eye(k)).max()) if k else 0.0
    # D-orthogonality to the constant vector, normalized like column 0 of
    # Algorithm 3 (1 / sqrt(sum d)).
    total = float(dd.sum())
    if centered and total > 0 and k:
        center_resid = float(np.abs(S.T @ dd).max()) / np.sqrt(total)
        resid = max(resid, center_resid)
    return CheckResult("dortho.residual", "DOrtho", resid, tol)


def check_laplacian_identity(
    g: CSRGraph,
    S: np.ndarray,
    P: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
) -> CheckResult:
    """``L S = D S - A S``: SpMM output vs. an independent edge scatter.

    The pipeline computes ``P = L S`` through :func:`laplacian_spmm`
    (degree scaling minus one SpMM).  The reference here accumulates the
    factored form ``sum over edges of w (e_u - e_v)(e_u - e_v)' S`` with
    ``np.add.at`` scatters, a disjoint code path: a corrupted SpMM,
    degree array or overlay correction shows up as a mismatch.
    """
    S = np.asarray(S, dtype=np.float64)
    if P is None:
        P = laplacian_spmm(g, S)
    src, dst, w = _directed_edges(g)
    ref = np.zeros_like(S)
    # Each stored direction (u -> v) contributes w * (S[u] - S[v]) to row
    # u; summing over both directions covers the symmetric factor.
    # np.add.at accumulates every row in edge order, block after block.
    for e in _edge_blocks(g.nnz, S.shape[-1]):
        u, v = src[e], dst[e]
        np.add.at(ref, u, w[e, None] * (S[u] - S[v]))
    scale = 1.0 + float(np.abs(ref).max()) if ref.size else 1.0
    resid = float(np.abs(P - ref).max()) / scale if ref.size else 0.0
    return CheckResult("tripleprod.laplacian", "TripleProd", resid, tol)


def check_eigenpairs(
    Z: np.ndarray,
    evals: np.ndarray,
    Y: np.ndarray,
    *,
    tol: float = 1e-6,
) -> CheckResult:
    """Eigenpair residual ``||Z Y - Y diag(evals)|| / (1 + ||Z||)``.

    Also verifies the eigenvalues come back sorted ascending — the
    projection step takes ``Y``'s leading columns as the smallest axes.
    """
    Z = np.asarray(Z, dtype=np.float64)
    evals = np.asarray(evals, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[0] != Z.shape[0] or Y.shape[1] != len(evals):
        return CheckResult(
            "eigen.residual", "Other", np.inf, tol,
            f"Y shape {Y.shape} does not match Z {Z.shape} / {len(evals)} evals",
        )
    scale = 1.0 + float(np.linalg.norm(Z))
    resid = float(np.linalg.norm(Z @ Y - Y * evals)) / scale
    detail = ""
    if len(evals) > 1:
        disorder = float(np.maximum(evals[:-1] - evals[1:], 0.0).max())
        if disorder > 0:
            resid = max(resid, disorder / scale)
            detail = "eigenvalues out of ascending order"
    return CheckResult("eigen.residual", "Other", resid, tol, detail)


def check_overlay_digest(dyn) -> CheckResult:
    """Overlay-materialized CSR equals a per-vertex adjacency rebuild.

    ``DynamicGraph.to_csr`` merges the base *edge list* with the overlay
    (and caches the snapshot); this check rebuilds the graph from the
    *per-vertex* merged ``neighbors(v)`` views instead and compares
    content digests.  Divergence means the two read paths disagree —
    e.g. a stale snapshot or an overlay entry missing its mirror.
    """
    from ..graph.build import from_edges
    from ..service.fingerprint import graph_digest

    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for u in range(dyn.n):
        for v in dyn.neighbors(u):
            v = int(v)
            if u < v:
                us.append(u)
                vs.append(v)
                if dyn.is_weighted:
                    ws.append(dyn.edge_weight(u, v))
    rebuilt = from_edges(
        dyn.n,
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ws, dtype=np.float64) if dyn.is_weighted else None,
    )
    snapshot = dyn.to_csr()
    same = graph_digest(snapshot) == graph_digest(rebuilt)
    detail = "" if same else (
        f"snapshot has {snapshot.m} edges, adjacency rebuild has {rebuilt.m}"
    )
    return CheckResult(
        "stream.overlay", "Stream", 0.0 if same else 1.0, 0.0, detail
    )


def check_repair_equivalence(
    g: CSRGraph,
    B: np.ndarray,
    pivots: np.ndarray,
) -> CheckResult:
    """Repaired distances exactly equal fresh traversals (PR 2 contract).

    The incremental repair (Ramalingam-Reps deletions + decrease-only
    insertions) promises *exact* hop distances, not approximations — so
    the check is equality, not a tolerance.
    """
    pivots = np.asarray(pivots, dtype=np.int64)
    fresh = run_sources(g, pivots).distances
    B = np.asarray(B, dtype=np.float64)
    if B.shape != fresh.shape:
        return CheckResult(
            "stream.repair", "Stream", np.inf, 0.0,
            f"B shape {B.shape} vs fresh {fresh.shape}",
        )
    diff = B != fresh
    bad = int(diff.sum())
    resid = float(np.abs(B - fresh)[diff].max()) if bad else 0.0
    detail = f"{bad} of {B.size} entries diverge" if bad else ""
    return CheckResult("stream.repair", "Stream", resid, 0.0, detail)


def check_cache_consistency(
    result,
    g: CSRGraph,
    algorithm: str,
    params: Mapping[str, Any],
) -> CheckResult:
    """A cached layout must echo the request that keyed it.

    The cache keys on the full request fingerprint, so a hit whose
    *result* disagrees with the request parameters (different ``s`` or
    ``seed``, wrong vertex count, wrong algorithm) means the fingerprint
    pipeline broke — e.g. an epoch that failed to bump, or a disk
    archive renamed under a foreign key.
    """
    mismatches: list[str] = []
    if result.coords.shape[0] != g.n:
        mismatches.append(
            f"coords rows {result.coords.shape[0]} != n {g.n}"
        )
    if result.algorithm != algorithm:
        mismatches.append(
            f"algorithm {result.algorithm!r} != {algorithm!r}"
        )
    for key, expected in params.items():
        if key not in result.params:
            continue
        got = result.params[key]
        try:
            same = bool(got == expected)
        except Exception:
            same = got is expected
        if not same:
            mismatches.append(f"params[{key!r}] {got!r} != {expected!r}")
    return CheckResult(
        "cache.consistency",
        "Cache",
        float(len(mismatches)),
        0.0,
        "; ".join(mismatches),
    )


def check_constraints(
    coords: np.ndarray,
    spec,
    *,
    S: np.ndarray | None = None,
    w: np.ndarray | None = None,
    tol: float = 1e-8,
) -> CheckResult:
    """Constrained-layout invariants (pins, region, mass-orthogonality).

    ``spec`` is a :class:`repro.core.constraints.ConstraintSpec` (duck-
    typed to avoid a circular import).  Three facets:

    * every pinned vertex sits *exactly* at its pin position (the
      pipeline writes the positions back verbatim, so the check is
      equality — any drift means a kernel overwrote a pin);
    * every coordinate lies inside the bounding region;
    * when the basis ``S`` and weight ``w = m·d`` are supplied, the
      mass-weighted Gram residual ``‖SᵀWS − I‖`` is within ``tol``
      (the centering term is omitted: a pin-deflated basis is
      W-orthogonal to the free-vertex indicator, not to all-ones).
    """
    coords = np.asarray(coords, dtype=np.float64)
    residual = 0.0
    detail = ""
    pins = getattr(spec, "pins", ())
    if pins:
        idx = np.array([v for v, _ in pins], dtype=np.int64)
        pos = np.array([list(p) for _, p in pins], dtype=np.float64)
        if idx.max() >= coords.shape[0] or pos.shape[1] != coords.shape[1]:
            return CheckResult(
                "constraints", "Other", np.inf, tol,
                "pin indices/coords do not fit the layout shape",
            )
        if np.any(coords[idx] != pos):
            drift = float(np.abs(coords[idx] - pos).max())
            residual = max(residual, drift, np.finfo(np.float64).tiny)
            detail = "pinned coordinates drifted"
    region = getattr(spec, "region", None)
    if region is not None:
        lo = np.array([b[0] for b in region], dtype=np.float64)
        hi = np.array([b[1] for b in region], dtype=np.float64)
        overflow = float(
            np.maximum(
                np.maximum(lo[None, :] - coords, coords - hi[None, :]), 0.0
            ).max()
        )
        if overflow > residual:
            residual = overflow
            detail = "coordinates escape the bounding region"
    if S is not None:
        gram = check_d_orthogonality(S, w, tol=tol, centered=False)
        if gram.residual > residual:
            residual = gram.residual
            detail = "mass-weighted Gram residual out of tolerance"
    return CheckResult("constraints", "Other", residual, tol, detail)


def check_lod_distortion(hierarchy, *, bound: float = 3.0) -> CheckResult:
    """A LOD hierarchy's measured eigenvalue distortion must stay bounded.

    Galerkin coarsening guarantees one-sided interlacing (coarse
    generalized eigenvalues dominate fine ones), but not by how much; a
    hierarchy whose measured worst per-step ratio ``mu_i / lambda_i``
    exceeds ``bound`` has drifted too far from the fine spectrum to be a
    trustworthy coarse-tier answer.  Levels too large for an exact dense
    solve report no measurement and are exempt (the residual covers the
    measured levels only).
    """
    measured = [
        (i + 1, lvl.distortion)
        for i, lvl in enumerate(hierarchy.levels)
        if lvl.distortion is not None
    ]
    if not measured:
        return CheckResult(
            "lod.distortion", "Lod", 0.0, float(bound), "no level measured"
        )
    worst_depth, worst = max(measured, key=lambda t: t[1])
    detail = (
        f"worst step -> depth {worst_depth} of {len(hierarchy.levels)}"
        f" ({len(measured)} measured)"
    )
    return CheckResult("lod.distortion", "Lod", float(worst), float(bound), detail)
