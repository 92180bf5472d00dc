"""PHDE: PCA-based high-dimensional embedding (paper Algorithm 2).

Harel & Koren's original HDE — the algorithm most papers mean when they
say "HDE" (section 4.5.1 discusses the naming).  Same BFS phase as
ParHDE, but instead of a Laplacian product it column-centers the distance
matrix and projects onto the two dominant principal components:

1. BFS phase: ``B in R^{n x s}`` of pivot distances;
2. ColCenter: ``C = B - column_means(B)`` — two-phase (means pass, then
   subtraction pass) exactly as parallelized in section 3.2;
3. MatMul: ``M = C' C`` (dense gemm);
4. Other: top-2 eigenpairs of ``M``; coordinates ``[x, y] = C Y``.

Maximizes node scatter (the denominator of Eq. 1, without the
D-normalization).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..linalg.blas import center_columns, dense_gemm
from ..linalg.eigen import extreme_eigenpairs
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, map_cost
from ..resilience.deadline import Deadline
from ..validate import ValidationPolicy, check_bfs_levels, check_constraints
from .constraints import ConstraintSpec
from .kernels import PCA_KERNEL_FIELDS, KernelConfig
from .pivots import select_and_traverse
from .result import LayoutResult

__all__ = ["phde"]


def phde(
    g: CSRGraph,
    s: int = 10,
    *,
    dims: int = 2,
    seed: int = 0,
    kernels: KernelConfig | dict | None = None,
    constraints: ConstraintSpec | dict | None = None,
    weighted: bool = False,
    delta: float | None = None,
    ledger: Ledger | None = None,
    validate: ValidationPolicy | str | None = None,
    deadline: Deadline | None = None,
) -> LayoutResult:
    """PCA-based HDE layout.  Parameters as in :func:`repro.core.parhde`.

    ``kernels`` may set only ``pivots`` and ``traversal``
    (:data:`~repro.core.kernels.PCA_KERNEL_FIELDS`); any other
    non-default field raises ``ValueError``.

    Constraints get the PCA-appropriate treatment: masses weight the
    Gram matrix (``M = Cᵀ diag(m) C``, mass-weighted principal axes);
    pins translate the layout onto the pinned centroid and are then
    written back bitwise; the region clamp is identical to ParHDE's.

    ``validate`` checks the BFS levels and, for constrained runs, the
    pins and region (the PCA axes come back largest-first, so there is
    no D-orthogonality or eigenpair check); ``deadline`` bounds every
    phase, as in ParHDE.
    """
    if g.n < 3:
        raise ValueError("layout needs at least 3 vertices")
    if s < dims:
        raise ValueError(f"s={s} must be at least dims={dims}")
    cfg = KernelConfig.coerce(kernels)
    cfg.require_only(phde.honoured_kernels, "phde")
    spec = ConstraintSpec.coerce(constraints)
    spec.validate_for(g.n, dims)
    policy = ValidationPolicy.coerce(validate)
    led = ledger if ledger is not None else Ledger()

    with led.phase("BFS", deadline):
        ms = select_and_traverse(
            g, s, strategy=cfg.pivots, traversal=cfg.traversal, seed=seed,
            ledger=led, weighted=weighted, delta=delta,
        )
    B = ms.distances
    if (weighted and not np.all(np.isfinite(B))) or (
        not weighted and B.min() < 0
    ):
        raise ValueError("graph must be connected")
    if policy.enabled:
        policy.handle(check_bfs_levels(g, B, ms.sources, weighted=weighted))

    with led.phase("ColCenter", deadline):
        C = center_columns(B, led)

    with led.phase("MatMul", deadline):
        if spec.has_masses:
            mvec = spec.mass_vector(g.n)
            led.add(
                map_cost(g.n * s, flops_per_elem=1.0, bytes_per_elem=2 * F64)
            )
            M = dense_gemm(C.T, mvec[:, None] * C, led)
        else:
            M = dense_gemm(C.T, C, led)

    with led.phase("Other", deadline):
        evals, Y = extreme_eigenpairs(M, dims, which="largest")
        coords = C @ Y
        led.add(
            map_cost(g.n * s * dims, flops_per_elem=2.0, bytes_per_elem=F64)
        )
        if spec.has_pins:
            pin_idx, pin_pos = spec.pin_arrays()
            coords = coords + (
                pin_pos.mean(axis=0) - coords[pin_idx].mean(axis=0)
            )
            coords[pin_idx] = pin_pos
        coords = spec.clamp(coords)
    if policy.enabled and not spec.is_trivial:
        policy.handle(check_constraints(coords, spec, tol=policy.ortho_tol))

    params = dict(
        s=s, dims=dims, seed=seed, pivots=cfg.pivots,
        traversal=cfg.traversal, weighted=weighted, delta=delta,
    )
    if not spec.is_trivial:
        params["constraints"] = spec.to_params()
    return LayoutResult(
        coords=coords,
        algorithm="phde",
        B=B,
        S=C,
        eigenvalues=evals,
        pivots=ms.sources,
        bfs_stats=ms.stats,
        ledger=led,
        params=params,
    )


#: Kernel fields this solver honours (read by the layout engine, too).
phde.honoured_kernels = PCA_KERNEL_FIELDS
