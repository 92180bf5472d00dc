"""repro.lod — spectrum-preserving coarsening + progressive serving.

Million-vertex graphs pay the full ParHDE pipeline before the first
response; this package turns first paint into a coarse-tier answer:

* :mod:`~repro.lod.hierarchy` — :class:`LodHierarchy`: a chain of
  spectrally coarsened CSR levels (effective-resistance-scored matching,
  :func:`repro.multilevel.spectral_matching`) with per-level mass
  vectors, prolongation maps and a measured eigenvalue-distortion bound
  (:func:`repro.validate.check_lod_distortion`).
* :mod:`~repro.lod.progressive` — :func:`progressive_layout`, a
  generator of progressively finer full-coverage layouts, and
  :class:`LodServing`, the progressive state every
  :class:`~repro.service.LayoutEngine` owns: it answers a request with
  LOD on from the coarsest servable level (``quality_tier="lod-k"``),
  refines asynchronously on the engine's pool and publishes every
  refinement through an epoch bump so polling clients converge on
  ``"full"`` without ever seeing a stale cache entry.  The dependency
  runs one way: the engine calls into this package, never the reverse.

See docs/lod.md for tier semantics and the refinement protocol.
"""

from .hierarchy import (
    LodHierarchy,
    LodLevel,
    build_lod_hierarchy,
    measure_distortion,
    tier_name,
)
from .progressive import (
    LodConfig,
    LodServing,
    ProgressiveFrame,
    progressive_layout,
)

__all__ = [
    "LodConfig",
    "LodHierarchy",
    "LodLevel",
    "LodServing",
    "ProgressiveFrame",
    "build_lod_hierarchy",
    "measure_distortion",
    "progressive_layout",
    "tier_name",
]
