"""ParHDE: parallel High-Dimensional Embedding (paper Algorithm 3).

The pipeline (see DESIGN.md for the phase inventory):

1. **BFS phase** — ``s`` traversals from pivots (farthest-first by
   default) produce the distance matrix ``B``; weighted graphs use
   Delta-stepping SSSP instead of BFS (section 3.3).
2. **DOrtho phase** — D-orthonormalize ``[1 | B]`` and drop the constant
   column and any near-dependent columns, giving ``S`` with
   ``S' D S = I`` and ``S' D 1 = 0``.
3. **TripleProd phase** — ``P = L S`` (s SpMVs, Laplacian never
   materialized) then ``Z = S' P`` (dense gemm).
4. **Eigensolve + projection** ("Other") — the two smallest eigenpairs
   of the tiny ``Z`` give the axes ``Y``; coordinates are ``S Y``
   (or ``B Y``; see DESIGN.md section 5 on the paper's pseudocode).

Variants reachable through ``kernels=`` (a
:class:`~repro.core.kernels.KernelConfig` or equivalent dict):

* ``{"ortho": "plain"}`` — plain orthogonalization instead of
  D-orthogonalization: approximates Laplacian eigenvectors (Hall's
  eigen-projection), the section 4.5.1 variant.
* ``{"gs_method": "cgs"}`` — Classical Gram-Schmidt DOrtho (Table 7).
* ``{"pivots": "random-concurrent"}`` — random pivots with concurrent
  traversals (Table 6).

``weighted=True`` runs Delta-stepping distances on the weighted graph.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..linalg.blas import dense_gemm
from ..linalg.eigen import extreme_eigenpairs
from ..linalg.gram_schmidt import d_orthogonalize
from ..linalg.laplacian import laplacian_spmm
from ..parallel.costs import KernelCost, Ledger
from ..parallel.primitives import F64, map_cost
from ..resilience.chaos import failpoint
from ..resilience.deadline import Deadline
from ..validate import (
    ValidationPolicy,
    check_bfs_levels,
    check_constraints,
    check_d_orthogonality,
    check_eigenpairs,
    check_laplacian_identity,
)
from .constrained import carrier_field, deflate_basis
from .constraints import ConstraintSpec
from .kernels import KernelConfig
from .pivots import select_and_traverse
from .result import LayoutResult

__all__ = ["parhde"]


def _params_echo(
    cfg: KernelConfig,
    spec: ConstraintSpec,
    *,
    s: int,
    dims: int,
    seed: int,
    weighted: bool,
    weight_interpretation: str,
    delta: float | None,
) -> dict:
    """The canonical params echo shared by cold and warm ParHDE runs."""
    params = dict(
        s=s,
        dims=dims,
        seed=seed,
        pivots=cfg.pivots,
        ortho=cfg.ortho,
        gs_method=cfg.gs_method,
        project_basis=cfg.project_basis,
        drop_tol=cfg.drop_tol,
        traversal=cfg.traversal,
        subspace=cfg.subspace,
        rounds=cfg.rounds,
        weighted=weighted,
        weight_interpretation=weight_interpretation,
        delta=delta,
    )
    if not spec.is_trivial:
        params["constraints"] = spec.to_params()
    return params


def parhde(
    g: CSRGraph,
    s: int = 10,
    *,
    dims: int = 2,
    seed: int = 0,
    kernels: KernelConfig | dict | None = None,
    constraints: ConstraintSpec | dict | None = None,
    warm_base: dict | None = None,
    weighted: bool = False,
    weight_interpretation: str = "distance",
    delta: float | None = None,
    ledger: Ledger | None = None,
    validate: ValidationPolicy | str | None = None,
    deadline: Deadline | None = None,
) -> LayoutResult:
    """Compute a ``dims``-dimensional spectral layout of ``g``.

    Parameters
    ----------
    g:
        A connected simple undirected graph (use
        :func:`repro.graph.preprocess` to extract the largest component
        first, as the paper does).
    s:
        Subspace dimension = number of pivot traversals.  The paper uses
        10 for timing tables and notes 50 is a common quality choice.
    dims:
        Number of layout axes (2 for screen drawings).
    kernels:
        A :class:`~repro.core.kernels.KernelConfig` (or an equivalent
        dict) selecting every kernel of the pipeline — pivot strategy,
        orthogonalization, Gram-Schmidt variant, projection basis, drop
        tolerance, BFS traversal and subspace refinement; its attributes
        document each choice.  ``rounds > 0`` requires ``ortho="D"`` and
        ``project_basis="S"`` (the refinement lives in D-geometry).
    constraints:
        A :class:`~repro.core.constraints.ConstraintSpec` (or an
        equivalent dict) of pinned vertices (``{vertex: coords}``),
        per-vertex masses (``{vertex: mass}``) and a bounding region
        (``[(lo, hi), ...]`` per dimension).  Masses turn the
        orthogonalization weight into ``m·d`` (invariant
        ``‖SᵀMDS − I‖``); pins hold the named coordinates bitwise fixed
        while free vertices relax around the energy-minimizing carrier
        field; the region is clamped during back-projection
        (idempotently).  Constraints require ``rounds == 0``, and pins
        additionally require ``project_basis="S"``.
    warm_base:
        Internal warm-restart carrier (used by the serving engine and
        the stream session), in one of two shapes:

        * ``{"B", "pivots"}`` — a distance matrix and its pivots for
          *this* graph (a stream's repaired or re-traversed ``B``).
          Only the BFS phase is skipped; DOrtho, TripleProd, the
          eigensolve, pins, region and validation run as in a cold
          layout, and ``result.B`` is that ``B``.
        * ``{"S", "kept", "pivots"}`` — ``result.warm`` of a previous
          run on the *same graph content and non-pin parameters*: the
          pre-deflation basis, optionally with the cached deflation
          products ``deflated`` or the unconstrained Gram ``Z``.  The
          BFS and base-DOrtho phases are skipped entirely (and, on a
          pin-set match, deflation and TripleProd too), which is what
          makes a drag ≥3× cheaper than a cold constrained layout.
          Requires ``rounds == 0`` and ``project_basis="S"``; the
          returned ``result.warm`` carries the products it reused or
          computed (the caller's dict is not mutated).
    weighted:
        Use Delta-stepping SSSP distances; requires ``g.is_weighted``.
    weight_interpretation:
        ``"distance"`` (default) feeds the edge weights to SSSP as path
        lengths, the paper's implicit convention.  ``"similarity"``
        follows HDE's own semantics (section 2.1: heavier = more
        similar = *closer*): traversals run on inverted weights
        ``max_w / w`` while the D matrix and Laplacian keep the original
        similarities.
    delta:
        Bucket width for Delta-stepping (default: a standard heuristic).
    ledger:
        Optional existing ledger to record costs into (a fresh one is
        created otherwise and attached to the result).
    validate:
        Invariant-checking policy (:mod:`repro.validate`): ``None`` /
        ``"off"`` (default, no checks), ``"warn"`` (check each phase,
        warn on violation), ``"strict"`` (raise
        :class:`~repro.validate.InvariantViolation`), or a configured
        :class:`~repro.validate.ValidationPolicy`.
    deadline:
        Optional :class:`~repro.resilience.Deadline`.  Checked after
        each phase (the kernels are uninterruptible); a phase running
        past its budget, or the total budget expiring, raises
        :class:`~repro.resilience.DeadlineExceeded` so callers (the
        degradation ladder, the serving engine) can fall back instead
        of blocking.

    Returns
    -------
    LayoutResult
        ``coords`` is ``(n, dims)``; the ledger yields simulated phase
        times on any :class:`~repro.parallel.MachineSpec`.
    """
    if g.n < 3:
        raise ValueError("layout needs at least 3 vertices")
    if s < dims:
        raise ValueError(f"s={s} must be at least dims={dims}")
    if weighted and not g.is_weighted:
        raise ValueError("weighted=True requires an edge-weighted graph")
    if weight_interpretation not in ("distance", "similarity"):
        raise ValueError(
            "weight_interpretation must be 'distance' or 'similarity'"
        )
    cfg = KernelConfig.coerce(kernels)
    if cfg.rounds > 0 and (cfg.ortho != "D" or cfg.project_basis != "S"):
        raise ValueError(
            "subspace refinement (rounds > 0) requires ortho='D' and"
            " project_basis='S' — the refinement operates in D-geometry"
        )
    spec = ConstraintSpec.coerce(constraints)
    spec.validate_for(g.n, dims)
    if not spec.is_trivial and cfg.rounds > 0:
        raise ValueError(
            "constrained layouts do not compose with subspace refinement"
            " (rounds > 0) — drop the constraints or set rounds=0"
        )
    if spec.has_pins and cfg.project_basis == "B":
        raise ValueError(
            "pinned vertices require project_basis='S' — pin deflation"
            " operates on the orthonormal basis"
        )
    warm_basis = warm_base is not None and "S" in warm_base
    if warm_basis and (cfg.rounds > 0 or cfg.project_basis != "S"):
        raise ValueError("warm_base requires rounds=0 and project_basis='S'")
    policy = ValidationPolicy.coerce(validate)
    led = ledger if ledger is not None else Ledger()

    # Mass weighting: per-vertex masses fold into the orthogonalization
    # weight (W = M·D, or just M under ortho="plain"), so the invariant
    # the basis satisfies becomes ‖SᵀMDS − I‖.
    d = g.weighted_degrees if cfg.ortho == "D" else None
    if spec.has_masses:
        mvec = spec.mass_vector(g.n)
        d_eff = mvec * d if d is not None else mvec
    else:
        d_eff = d

    if warm_basis:
        # Warm restart: the basis comes from a previous run on the same
        # graph content, masses and kernel choices — skip the BFS and
        # base-DOrtho phases outright (that skipped work is the warm
        # path's entire advantage; the ledger records none of it).
        S = np.asarray(warm_base["S"], dtype=np.float64)
        kept = [int(i) for i in warm_base["kept"]]
        sources = np.asarray(warm_base["pivots"])
        B = np.zeros((g.n, 0), dtype=np.float64)
        bfs_stats = []
        dropped = []
        if S.shape[0] != g.n:
            raise ValueError("warm_base basis does not match the graph")
        if S.shape[1] < dims:
            raise ValueError(
                f"warm_base basis has only {S.shape[1]} columns; need dims={dims}"
            )
    elif warm_base is not None:
        # Warm restart from distances: the caller already holds B
        # for this graph (a stream's repaired matrix), so only the
        # BFS phase is skipped.
        B = np.asarray(warm_base["B"])
        sources = np.asarray(warm_base["pivots"])
        bfs_stats = []
        if B.shape != (g.n, len(sources)):
            raise ValueError(
                "warm_base distances do not match the graph and pivots"
            )
    else:
        # Phase 1: BFS (or SSSP) traversals.  Under the similarity
        # reading, traversal lengths are the inverted weights;
        # everything spectral (D, L) keeps the original similarities.
        g_traverse = g
        if weighted and weight_interpretation == "similarity":
            g_traverse = g.with_weights(float(g.weights.max()) / g.weights)
        with led.phase("BFS", deadline):
            failpoint("parhde.bfs")
            ms = select_and_traverse(
                g_traverse,
                s,
                strategy=cfg.pivots,
                traversal=cfg.traversal,
                seed=seed,
                ledger=led,
                weighted=weighted,
                delta=delta,
            )
        B = ms.distances
        sources = ms.sources
        bfs_stats = ms.stats
        if weighted:
            if not np.all(np.isfinite(B)):
                raise ValueError(
                    "graph must be connected (infinite distances found)"
                )
        elif B.min() < 0:
            raise ValueError("graph must be connected (unreached vertices found)")
        if policy.enabled:
            # Levels are checked against the graph actually traversed (the
            # similarity reading inverts the weights before SSSP).
            policy.handle(
                check_bfs_levels(g_traverse, B, sources, weighted=weighted)
            )

    if not warm_basis:
        # Phase 2: D-orthogonalization (mass-weighted when masses exist).
        with led.phase("DOrtho", deadline):
            failpoint("parhde.dortho")
            ores = d_orthogonalize(
                B,
                d_eff,
                method=cfg.gs_method,
                drop_tol=cfg.drop_tol,
                ledger=led,
            )
        S, kept, dropped = ores.S, ores.kept, ores.dropped
        if S.shape[1] < dims:
            raise ValueError(
                f"only {S.shape[1]} independent distance vectors survived; "
                f"increase s (got s={s}) or check the graph"
            )
        if policy.enabled:
            policy.handle(check_d_orthogonality(S, d_eff, tol=policy.ortho_tol))

    # Optional subspace refinement (kernels.rounds > 0): rotate the basis
    # toward the walk operator's dominant eigenvectors before projecting.
    if cfg.rounds > 0:
        from .subspace_iteration import subspace_iterate

        with led.phase("SubspaceIter", deadline):
            S = subspace_iterate(
                g, S, cfg.rounds, method=cfg.subspace, ledger=led
            )
        if S.shape[1] < dims:
            raise ValueError(
                f"subspace refinement left only {S.shape[1]} independent"
                f" columns; reduce rounds or increase s (got s={s})"
            )
        if policy.enabled:
            policy.handle(check_d_orthogonality(S, d_eff, tol=policy.ortho_tol))

    # Pin deflation: restrict the basis to the free subspace (every
    # column bitwise zero on pinned rows, the quasi-constant free mode
    # deflated).  The deflated products depend only on *which* vertices
    # are pinned, so a warm restart whose pin set matches the cached one
    # (a drag: same pins, new position) reuses S_c and Z_c and skips
    # deflation and TripleProd entirely.
    base_S = S
    pin_idx, pin_pos = spec.pin_arrays()
    pin_set = tuple(int(v) for v in pin_idx)
    P = None
    cached = warm_base.get("deflated") if warm_basis else None
    if spec.has_pins:
        if cached is not None and cached[0] == pin_set:
            S, Z = cached[1], cached[2]
        else:
            with led.phase("DOrtho", deadline):
                dres = deflate_basis(
                    base_S,
                    d_eff,
                    pin_idx,
                    gs_method=cfg.gs_method,
                    drop_tol=cfg.drop_tol,
                    ledger=led,
                )
            S = dres.S
            if S.shape[1] < dims:
                raise ValueError(
                    f"pin deflation left only {S.shape[1]} independent"
                    f" columns; increase s (got s={s}) or pin fewer vertices"
                )
            if policy.enabled:
                policy.handle(
                    check_d_orthogonality(
                        S, d_eff, tol=policy.ortho_tol, centered=False
                    )
                )
            with led.phase("TripleProd", deadline):
                failpoint("parhde.tripleprod")
                P = laplacian_spmm(g, S, ledger=led, subphase="LS")
                Z = dense_gemm(S.T, P, ledger=led, subphase="S'(LS)")
    elif warm_basis and "Z" in warm_base:
        Z = warm_base["Z"]
    else:
        # Phase 3: TripleProd — P = L S, then Z = S' P.
        with led.phase("TripleProd", deadline):
            failpoint("parhde.tripleprod")
            P = laplacian_spmm(g, S, ledger=led, subphase="LS")
            Z = dense_gemm(S.T, P, ledger=led, subphase="S'(LS)")
    if P is not None and policy.enabled and policy.run_deep:
        # The edge-scatter reference costs another SpMM's worth of work,
        # so it only runs at strict (or deep=True) level.
        policy.handle(
            check_laplacian_identity(g, S, P, tol=policy.laplacian_tol)
        )

    # Phase 4 ("Other"): eigensolve on the tiny matrix + back-projection
    # (plus carrier field and region clamp for constrained runs).
    with led.phase("Other", deadline):
        failpoint("parhde.eigensolve")
        evals, Y = extreme_eigenpairs(Z, dims, which="smallest")
        basis = S if cfg.project_basis == "S" else B[:, kept]
        coords = basis @ Y
        led.add(
            map_cost(
                g.n * S.shape[1] * dims,
                flops_per_elem=2.0,
                bytes_per_elem=F64,
            )
        )
        if spec.has_pins:
            coords = coords + carrier_field(
                g, S, Z, pin_idx, pin_pos, ledger=led
            )
            coords[pin_idx] = pin_pos
        coords = spec.clamp(coords)
    if policy.enabled:
        policy.handle(check_eigenpairs(Z, evals, Y, tol=policy.eigen_tol))
    if policy.enabled and not spec.is_trivial:
        policy.handle(
            check_constraints(coords, spec, S=S, w=d_eff, tol=policy.ortho_tol)
        )

    result = LayoutResult(
        coords=coords,
        algorithm="parhde",
        B=B,
        S=S,
        eigenvalues=evals,
        pivots=sources,
        bfs_stats=bfs_stats,
        dropped=dropped,
        ledger=led,
        params=_params_echo(
            cfg,
            spec,
            s=s,
            dims=dims,
            seed=seed,
            weighted=weighted,
            weight_interpretation=weight_interpretation,
            delta=delta,
        ),
    )
    if cfg.rounds == 0 and cfg.project_basis == "S":
        # Warm-restart carrier for the serving engine / stream session:
        # the pre-deflation basis plus whichever Gram products this run
        # produced (a fresh dict — never mutate the caller's).
        warm: dict = dict(warm_base) if warm_basis else {}
        warm.update(S=base_S, kept=list(kept), pivots=sources)
        if spec.has_pins:
            warm["deflated"] = (pin_set, S, Z)
        else:
            warm["Z"] = Z
        result.warm = warm
    return result
