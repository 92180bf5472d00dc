"""Multilevel layout: coarsening + ParHDE + centroid refinement.

Two coarsening rules: heavy-edge matching (layout quality) and
spectrum-preserving matching (scale, :mod:`repro.lod`)."""

from .coarsen import (
    CoarseLevel,
    absorb_singletons,
    coarsen,
    contract,
    heavy_edge_matching,
    spectral_matching,
)
from .layout import (
    MultilevelResult,
    build_hierarchy,
    multilevel_layout,
    prolong,
)

__all__ = [
    "CoarseLevel",
    "heavy_edge_matching",
    "spectral_matching",
    "absorb_singletons",
    "contract",
    "coarsen",
    "MultilevelResult",
    "build_hierarchy",
    "prolong",
    "multilevel_layout",
]
