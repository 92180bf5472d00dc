"""Core layout algorithms: ParHDE, PHDE, PivotMDS, and extensions."""

from .constrained import carrier_field, deflate_basis, free_indicator
from .constraints import ConstraintSpec
from .hde import parhde
from .kernels import SUBSPACE_METHODS, KernelConfig
from .phde import phde
from .pivotmds import double_center, pivotmds
from .pivots import TRAVERSALS, STRATEGIES, random_pivots, select_and_traverse
from .refine import RefineResult, centroid_sweep, refine, residual
from .serialize import load_layout, save_layout
from .subspace_iteration import subspace_iterate
from .result import LayoutResult
from .stress_majorization import (
    MajorizationResult,
    build_terms,
    stress_majorization,
)
from .zoom import ZoomResult, khop_subgraph, khop_vertices, zoom_layout

__all__ = [
    "parhde",
    "phde",
    "pivotmds",
    "double_center",
    "KernelConfig",
    "ConstraintSpec",
    "carrier_field",
    "deflate_basis",
    "free_indicator",
    "STRATEGIES",
    "TRAVERSALS",
    "SUBSPACE_METHODS",
    "random_pivots",
    "select_and_traverse",
    "LayoutResult",
    "MajorizationResult",
    "build_terms",
    "stress_majorization",
    "RefineResult",
    "centroid_sweep",
    "refine",
    "residual",
    "save_layout",
    "load_layout",
    "subspace_iterate",
    "ZoomResult",
    "khop_vertices",
    "khop_subgraph",
    "zoom_layout",
]
