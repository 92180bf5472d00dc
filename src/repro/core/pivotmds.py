"""PivotMDS (Brandes & Pich 2007): sampled classical MDS.

Computationally a sibling of PHDE (section 3.2): the same BFS phase,
then *double centering* of the squared pivot-distance matrix instead of
column centering, the same small gemm and eigensolve.  Classical MDS
recovers coordinates from the doubly centered squared-distance Gram
matrix; PivotMDS restricts the columns to the ``s`` pivots.

Phases follow Figure 6's labels: BFS, DblCntr, MatMul, Other.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..linalg.blas import dense_gemm
from ..linalg.eigen import extreme_eigenpairs
from ..parallel.costs import Ledger
from ..parallel.primitives import F64, map_cost, reduce_cost
from ..resilience.deadline import Deadline
from ..validate import ValidationPolicy, check_bfs_levels, check_constraints
from .constraints import ConstraintSpec
from .kernels import PCA_KERNEL_FIELDS, KernelConfig
from .pivots import select_and_traverse
from .result import LayoutResult

__all__ = ["pivotmds", "double_center"]


def double_center(B: np.ndarray, ledger: Ledger | None = None) -> np.ndarray:
    """Doubly centered squared-distance matrix ``C``.

    ``C_ij = -1/2 (d_ij^2 - rowmean_i - colmean_j + grandmean)`` where the
    means are over the squared distances.  Like PHDE's column centering
    this is a reduction pass followed by an elementwise pass; the row
    means add a second reduction of the same size.
    """
    n, s = B.shape
    D2 = B * B
    col = D2.mean(axis=0)
    row = D2.mean(axis=1)
    grand = col.mean()
    if ledger is not None:
        # squared-distance pass + two mean reductions + final combine
        ledger.add(map_cost(n * s, flops_per_elem=1.0, bytes_per_elem=2 * F64))
        ledger.add(reduce_cost(n * s, flops_per_elem=2.0, bytes_per_elem=F64))
        ledger.add(map_cost(n * s, flops_per_elem=4.0, bytes_per_elem=2 * F64))
    return -0.5 * (D2 - row[:, None] - col[None, :] + grand)


def pivotmds(
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
    """PivotMDS layout.  Parameters as in :func:`repro.core.parhde`.

    ``kernels`` may set only ``pivots`` and ``traversal``
    (:data:`~repro.core.kernels.PCA_KERNEL_FIELDS`); any other
    non-default field raises ``ValueError``.

    Constraints follow the PHDE treatment: mass-weighted Gram, pinned
    centroid translation + bitwise pin write-back, idempotent region
    clamp.

    ``validate`` and ``deadline`` behave as in :func:`repro.core.phde`.
    """
    if g.n < 3:
        raise ValueError("layout needs at least 3 vertices")
    if s < dims:
        raise ValueError(f"s={s} must be at least dims={dims}")
    cfg = KernelConfig.coerce(kernels)
    cfg.require_only(pivotmds.honoured_kernels, "pivotmds")
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

    with led.phase("DblCntr", deadline):
        C = double_center(B, led)

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
        algorithm="pivotmds",
        B=B,
        S=C,
        eigenvalues=evals,
        pivots=ms.sources,
        bfs_stats=ms.stats,
        ledger=led,
        params=params,
    )


#: Kernel fields this solver honours (read by the layout engine, too).
pivotmds.honoured_kernels = PCA_KERNEL_FIELDS
