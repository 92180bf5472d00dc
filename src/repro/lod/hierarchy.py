"""Spectrum-preserving level-of-detail hierarchies.

A :class:`LodHierarchy` is a chain of coarse CSR graphs built with
:func:`repro.multilevel.spectral_matching` (edge contraction scored by
the effective-resistance proxy of Brissette, Huang & Slota), together
with everything progressive serving needs:

* a per-level **mass vector** — each coarse vertex carries the total
  mass of the fine vertices it absorbed (``m_c = P^T m_f`` for the 0/1
  partition prolongator ``P``), so the coarse generalized eigenproblem
  ``L_c x = mu M_c x`` is the exact Galerkin restriction of the fine
  one;
* the **prolongation maps** — composing the per-step fine->coarse
  mappings yields, for any depth, the map from finest vertex ids to
  that level's coarse ids, so a coarse layout can be pushed back to
  finest coordinates (`prolong_to_finest`) and a fine vector can be
  mass-averaged down (`restrict_to`);
* a **measured eigenvalue-distortion bound** — for levels small enough
  to afford a dense solve, the first nonzero generalized eigenvalues of
  the fine and coarse pencils are computed exactly and their worst
  ratio ``max_i mu_i / lambda_i`` recorded.  Galerkin restriction
  guarantees one-sided interlacing (``mu_i >= lambda_i``); the measured
  ratio quantifies how much the spectrum drifted and is checked against
  a configured bound by :func:`repro.validate.check_lod_distortion`.

Tier naming: depth ``0`` is the finest graph (quality tier ``"full"``);
depth ``k >= 1`` serves tier ``"lod-k"`` — larger ``k``, coarser
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graph.csr import CSRGraph
from ..multilevel.coarsen import absorb_singletons, contract, spectral_matching
from ..multilevel.layout import prolong

__all__ = [
    "LodHierarchy",
    "LodLevel",
    "build_lod_hierarchy",
    "measure_distortion",
    "tier_name",
]


def tier_name(depth: int) -> str:
    """Quality-tier label for a hierarchy depth (0 = ``"full"``)."""
    return "full" if depth <= 0 else f"lod-{int(depth)}"


@dataclass(frozen=True)
class LodLevel:
    """One coarsening step of the hierarchy.

    ``mapping`` sends the *previous* (finer) level's vertex ids to this
    level's coarse ids; ``mass`` is the total fine mass absorbed per
    coarse vertex; ``distortion`` is the measured worst eigenvalue
    ratio ``mu_i / lambda_i`` against the previous level, or ``None``
    when the previous level was too large for an exact dense solve.
    """

    graph: CSRGraph
    mapping: np.ndarray  # int64[n_finer] -> coarse vertex id
    mass: np.ndarray  # float64[n_coarse]
    distortion: float | None = None

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class LodHierarchy:
    """The finest graph plus its chain of spectral coarsenings."""

    graph: CSRGraph
    mass: np.ndarray  # float64[n] finest-level mass (ones by default)
    levels: tuple[LodLevel, ...]  # finest-first coarsening steps

    @property
    def depth(self) -> int:
        """Number of coarsening steps below the finest graph."""
        return len(self.levels)

    def graph_at(self, depth: int) -> CSRGraph:
        """The CSR graph at ``depth`` (0 = finest)."""
        return self.graph if depth <= 0 else self.levels[depth - 1].graph

    def mass_at(self, depth: int) -> np.ndarray:
        return self.mass if depth <= 0 else self.levels[depth - 1].mass

    def sizes(self) -> list[int]:
        """Vertex counts finest-first, e.g. ``[100000, 51200, ..., 512]``."""
        return [self.graph.n] + [lvl.n for lvl in self.levels]

    @property
    def max_distortion(self) -> float | None:
        """Worst measured per-step eigenvalue distortion, if any step
        was small enough to measure."""
        measured = [
            lvl.distortion for lvl in self.levels if lvl.distortion is not None
        ]
        return max(measured) if measured else None

    def mapping_to_finest(self, depth: int) -> np.ndarray:
        """Composed map from finest vertex ids to depth-``depth`` ids."""
        mapping = np.arange(self.graph.n, dtype=np.int64)
        for lvl in self.levels[:depth]:
            mapping = lvl.mapping[mapping]
        return mapping

    def prolong_to_finest(
        self,
        coords: np.ndarray,
        depth: int,
        *,
        jitter: float = 1e-4,
        seed: int = 0,
    ) -> np.ndarray:
        """Push depth-``depth`` coordinates back to finest vertex ids.

        One :func:`repro.multilevel.prolong` through the composed map:
        finest vertices inherit their coarse representative's position
        plus a deterministic micro-jitter scaled to the layout spread,
        so vertices merged into one supernode do not coincide exactly
        (the refinement operator could never separate them).
        """
        coords = np.asarray(coords, dtype=np.float64)
        if depth <= 0:
            return coords
        to_finest = replace(
            self.levels[depth - 1], mapping=self.mapping_to_finest(depth)
        )
        return prolong(coords, to_finest, jitter=jitter, seed=seed + depth)

    def restrict_to(self, x: np.ndarray, depth: int) -> np.ndarray:
        """Mass-weighted average of a finest-level vector at ``depth``.

        Left inverse of (jitter-free) prolongation: restricting a
        prolonged vector returns it to within roundoff (each coarse
        vertex averages copies of its own value).
        """
        x = np.asarray(x, dtype=np.float64)
        if depth <= 0:
            return x
        mapping = self.mapping_to_finest(depth)
        n_c = self.graph_at(depth).n
        mass = np.bincount(mapping, weights=self.mass, minlength=n_c)
        if x.ndim == 1:
            acc = np.bincount(mapping, weights=self.mass * x, minlength=n_c)
            return acc / mass
        out = np.empty((n_c, x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = np.bincount(
                mapping, weights=self.mass * x[:, j], minlength=n_c
            )
        return out / mass[:, None]


def _laplacian_dense(g: CSRGraph) -> np.ndarray:
    """Dense weighted Laplacian (exact reference; small graphs only)."""
    n = g.n
    a = np.zeros((n, n))
    src = np.repeat(np.arange(n), g.degrees)
    w = g.weights if g.weights is not None else np.ones(g.nnz)
    a[src, g.indices] = w
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return np.diag(a.sum(axis=1)) - a


def _pencil_eigvals(g: CSRGraph, mass: np.ndarray) -> np.ndarray:
    """Exact ascending eigenvalues of ``L x = lambda M x``, ``M = diag(mass)``."""
    lap = _laplacian_dense(g)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(np.asarray(mass, dtype=np.float64), 1e-300))
    sym = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def measure_distortion(
    fine: CSRGraph,
    fine_mass: np.ndarray,
    coarse: CSRGraph,
    coarse_mass: np.ndarray,
    *,
    k: int = 8,
    zero_tol: float = 1e-9,
) -> float:
    """Worst ratio ``mu_i / lambda_i`` over the first ``k`` nonzero
    generalized eigenvalues of the fine and coarse ``(L, diag(mass))``
    pencils, computed exactly (dense).

    Galerkin coarsening guarantees ``mu_i >= lambda_i`` (the coarse
    pencil is the fine one restricted to the prolongator's range), so
    the ratio is >= 1 up to roundoff; 1.0 means the low spectrum — the
    part a spectral layout draws with — survived coarsening untouched.
    """
    lam = _pencil_eigvals(fine, fine_mass)
    mu = _pencil_eigvals(coarse, coarse_mass)
    # Drop the zero modes (one per connected component) from both ends:
    # the pencils share their component structure under contraction.
    scale = max(abs(lam[-1]), abs(mu[-1]), 1.0)
    lam_nz = lam[lam > zero_tol * scale]
    mu_nz = mu[mu > zero_tol * scale]
    k = min(int(k), len(lam_nz), len(mu_nz))
    if k <= 0:
        return 1.0
    return float(np.max(mu_nz[:k] / lam_nz[:k]))


# A step keeping more than this fraction of its vertices triggers
# singleton aggregation (absorb_singletons); pure matching steps below
# it keep the lower measured distortion of pairwise contraction.
_ABSORB_ABOVE = 0.7


def build_lod_hierarchy(
    g: CSRGraph,
    *,
    coarsest_size: int = 512,
    max_levels: int = 12,
    shrink_floor: float = 0.9,
    seed: int = 0,
    mass: np.ndarray | None = None,
    measure_limit: int = 600,
    measure_k: int = 8,
) -> LodHierarchy:
    """Coarsen ``g`` spectrally until ``coarsest_size`` vertices.

    A step whose 1-1 matching starves (would keep more than 70% of its
    vertices — hub-dominated coarse graphs cap a matching at one
    satellite per hub) aggregates singletons instead
    (:func:`repro.multilevel.absorb_singletons`), so the hierarchy
    shrinks geometrically instead of stalling.  Stops early when even
    the aggregated step would keep more than ``shrink_floor`` of its
    vertices or after ``max_levels`` steps.  A step's coarse size is
    known from its matching, so each kept step is contracted once.
    Per-step eigenvalue distortion is measured exactly whenever the
    finer level has at most ``measure_limit`` vertices (a dense solve;
    beyond that the bound is inherited from the construction's
    interlacing guarantee rather than measured).
    """
    if mass is None:
        mass = np.ones(g.n)
    else:
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (g.n,):
            raise ValueError(f"mass must have shape ({g.n},), got {mass.shape}")
    levels: list[LodLevel] = []
    current, current_mass = g, mass
    for i in range(int(max_levels)):
        if current.n <= coarsest_size:
            break
        ids = np.arange(current.n)
        match = spectral_matching(current, seed + i)
        n_coarse = current.n - int(np.count_nonzero(match > ids))
        if n_coarse > _ABSORB_ABOVE * current.n:
            # The 1-1 matching starved (hub-dominated coarse graph whose
            # singleton satellites form an independent set).
            match = absorb_singletons(current, match)
            n_coarse = int(np.count_nonzero(match == ids))
        if n_coarse > shrink_floor * current.n:
            break
        step = contract(current, match)
        coarse_mass = np.bincount(
            step.mapping, weights=current_mass, minlength=step.graph.n
        )
        distortion = None
        if current.n <= measure_limit:
            distortion = measure_distortion(
                current, current_mass, step.graph, coarse_mass, k=measure_k
            )
        levels.append(
            LodLevel(
                graph=step.graph,
                mapping=step.mapping,
                mass=coarse_mass,
                distortion=distortion,
            )
        )
        current, current_mass = step.graph, coarse_mass
    return LodHierarchy(graph=g, mass=mass, levels=tuple(levels))
