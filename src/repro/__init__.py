"""ParHDE — fast spectral graph layout on multicore platforms.

A full reproduction of Mishra, Kirmani & Madduri, *Fast Spectral Graph
Layout on Multicore Platforms*, ICPP 2020.  See README.md for a tour and
DESIGN.md for the system inventory and the experiment index.

Quick start::

    from repro import datasets, parhde, save_drawing

    g = datasets.load("barth", scale="small")
    layout = parhde(g, s=10, seed=0)
    save_drawing(g, layout.coords, "barth.png")

Performance questions go through the machine model::

    from repro.parallel import BRIDGES_RSM

    layout.phase_seconds(BRIDGES_RSM, p=28)   # simulated phase times
    layout.speedup(BRIDGES_RSM, p=28)         # relative speedup
"""

from . import (
    baselines,
    bfs,
    datasets,
    drawing,
    graph,
    linalg,
    metrics,
    multilevel,
    parallel,
    partition,
    sssp,
    stream,
)
from .core import (
    KernelConfig,
    LayoutResult,
    parhde,
    phde,
    pivotmds,
    refine,
    stress_majorization,
    zoom_layout,
)
from .multilevel import multilevel_layout
from .drawing import save_drawing
from .graph import CSRGraph, from_edges, preprocess

__version__ = "1.0.0"

__all__ = [
    "parhde",
    "phde",
    "pivotmds",
    "refine",
    "zoom_layout",
    "stress_majorization",
    "multilevel_layout",
    "KernelConfig",
    "LayoutResult",
    "CSRGraph",
    "from_edges",
    "preprocess",
    "save_drawing",
    "graph",
    "bfs",
    "sssp",
    "linalg",
    "parallel",
    "partition",
    "multilevel",
    "baselines",
    "drawing",
    "metrics",
    "datasets",
    "stream",
    "__version__",
]
