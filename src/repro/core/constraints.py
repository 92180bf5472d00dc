"""ConstraintSpec: pins, per-vertex masses and bounding regions, typed.

Interactive layout needs three constraint families on top of the plain
ParHDE pipeline (ROADMAP item 4):

* **pins** — vertices whose coordinates the user fixed (a drag, an
  anchor).  Pinned coordinates are held *bitwise* through the solve:
  the subspace basis is deflated so every basis vector vanishes on the
  pinned rows, free vertices relax around a carrier field that
  interpolates the pinned values, and the final assembly writes the pin
  positions back verbatim.
* **masses** — per-vertex multiplicities (supernodes from coarsening,
  collapsed clusters).  The orthogonalization weight becomes ``M·D`` so
  the invariant is ``‖SᵀMDS − I‖`` and heavy vertices anchor the
  spectral axes proportionally to the vertices they stand for.
* **region** — a per-dimension bounding box applied to the free
  vertices during back-projection (clamping is idempotent, so re-running
  it is a no-op).

Like :class:`repro.core.kernels.KernelConfig`, the spec is frozen,
canonicalizes every accepted spelling (mappings, pair lists, tuples,
JSON round-trips) to one normal form, and serializes minimally via
:meth:`to_params` using **nested lists** so the echoed params survive
JSON round-trips (HTTP bodies, ``.npz`` archives) with equality intact
— that is what keeps one cache fingerprint per distinct constraint set.

Conflicting constraints (the same vertex pinned at two positions, a pin
outside the region) raise ``ValueError`` here; the serving layer maps
that to HTTP 400 exactly like kernel-config conflicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = ["ConstraintSpec"]


def _canon_pins(value: Any) -> tuple[tuple[int, tuple[float, ...]], ...]:
    """Normalize any accepted pin spelling to a sorted pair tuple."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items: Iterable[tuple[Any, Any]] = value.items()
    else:
        items = list(value)
    out: dict[int, tuple[float, ...]] = {}
    for entry in items:
        try:
            vertex, pos = entry
        except (TypeError, ValueError):
            raise ValueError(
                "pins must be a mapping {vertex: coords} or (vertex, coords)"
                f" pairs, got entry {entry!r}"
            ) from None
        v = _canon_vertex(vertex, "pin")
        try:
            coords = tuple(float(c) for c in pos)
        except (TypeError, ValueError):
            raise ValueError(
                f"pin for vertex {v} needs a coordinate sequence, got {pos!r}"
            ) from None
        if not coords or not all(math.isfinite(c) for c in coords):
            raise ValueError(
                f"pin for vertex {v} must be finite and non-empty, got {pos!r}"
            )
        if v in out and out[v] != coords:
            raise ValueError(
                f"conflicting constraints: vertex {v} pinned at both"
                f" {out[v]} and {coords}"
            )
        out[v] = coords
    return tuple(sorted(out.items()))


def _canon_masses(value: Any) -> tuple[tuple[int, float], ...]:
    """Normalize masses; unit masses are dropped (they are the default)."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items: Iterable[tuple[Any, Any]] = value.items()
    else:
        items = list(value)
    out: dict[int, float] = {}
    for entry in items:
        try:
            vertex, mass = entry
        except (TypeError, ValueError):
            raise ValueError(
                "masses must be a mapping {vertex: mass} or (vertex, mass)"
                f" pairs, got entry {entry!r}"
            ) from None
        v = _canon_vertex(vertex, "mass")
        m = float(mass)
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"mass for vertex {v} must be finite and > 0, got {mass!r}")
        if v in out and out[v] != m:
            raise ValueError(
                f"conflicting constraints: vertex {v} given masses"
                f" {out[v]} and {m}"
            )
        out[v] = m
    return tuple(sorted((v, m) for v, m in out.items() if m != 1.0))


def _canon_region(value: Any) -> tuple[tuple[float, float], ...] | None:
    if value is None:
        return None
    try:
        bounds = tuple((float(lo), float(hi)) for lo, hi in value)
    except (TypeError, ValueError):
        raise ValueError(
            "region must be a sequence of (lo, hi) bounds per dimension,"
            f" got {value!r}"
        ) from None
    if not bounds:
        return None
    for axis, (lo, hi) in enumerate(bounds):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"region axis {axis} bounds must be finite, got ({lo}, {hi})")
        if lo >= hi:
            raise ValueError(
                f"region axis {axis} needs lo < hi, got ({lo}, {hi})"
            )
    return bounds


def _canon_vertex(vertex: Any, what: str) -> int:
    if isinstance(vertex, bool):
        raise ValueError(f"{what} vertex must be an integer, got {vertex!r}")
    if isinstance(vertex, float):
        if not vertex.is_integer():
            raise ValueError(f"{what} vertex must be an integer, got {vertex!r}")
        vertex = int(vertex)
    elif isinstance(vertex, str):
        # HTTP/JSON mappings force string keys; accept decimal spellings.
        try:
            vertex = int(vertex, 10)
        except ValueError:
            raise ValueError(f"{what} vertex must be an integer, got {vertex!r}") from None
    try:
        v = int(vertex)
    except (TypeError, ValueError):
        raise ValueError(f"{what} vertex must be an integer, got {vertex!r}") from None
    if v < 0:
        raise ValueError(f"{what} vertex must be >= 0, got {v}")
    return v


@dataclass(frozen=True)
class ConstraintSpec:
    """Pins, masses and bounding region of one constrained layout.

    Attributes
    ----------
    pins:
        Sorted ``((vertex, (x, y, ...)), ...)`` pairs.  Construction
        accepts a mapping ``{vertex: coords}`` or any iterable of pairs.
    masses:
        Sorted ``((vertex, mass), ...)`` pairs of non-unit positive
        masses; vertices absent here weigh 1.  Accepts a mapping or
        pair iterable.
    region:
        ``((lo, hi), ...)`` per layout dimension, or ``None`` for
        unbounded.
    """

    pins: tuple[tuple[int, tuple[float, ...]], ...] = ()
    masses: tuple[tuple[int, float], ...] = ()
    region: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pins", _canon_pins(self.pins))
        object.__setattr__(self, "masses", _canon_masses(self.masses))
        object.__setattr__(self, "region", _canon_region(self.region))
        if self.region is not None:
            ndim = len(self.region)
            for v, pos in self.pins:
                if len(pos) != ndim:
                    raise ValueError(
                        f"conflicting constraints: pin for vertex {v} has"
                        f" {len(pos)} coordinates but region has {ndim} axes"
                    )
                for (lo, hi), c in zip(self.region, pos):
                    if not (lo <= c <= hi):
                        raise ValueError(
                            f"conflicting constraints: vertex {v} pinned at"
                            f" {pos}, outside region {self.region}"
                        )

    # -- construction ------------------------------------------------------
    @classmethod
    def coerce(
        cls, value: "ConstraintSpec | Mapping[str, Any] | None"
    ) -> "ConstraintSpec":
        """Accept a spec, an equivalent mapping, or ``None`` (no constraints)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            unknown = set(value) - known
            if unknown:
                raise ValueError(
                    f"unknown constraints keys {sorted(unknown)}; known:"
                    f" {sorted(known)}"
                )
            return cls(**dict(value))
        raise ValueError(
            "constraints must be a ConstraintSpec or a mapping,"
            f" got {type(value).__name__}"
        )

    # -- predicates --------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        return not self.pins and not self.masses and self.region is None

    @property
    def has_pins(self) -> bool:
        return bool(self.pins)

    @property
    def has_masses(self) -> bool:
        return bool(self.masses)

    @property
    def has_region(self) -> bool:
        return self.region is not None

    # -- derived views -----------------------------------------------------
    def validate_for(self, n: int, dims: int) -> None:
        """Check the spec fits an ``n``-vertex, ``dims``-D layout."""
        for v, pos in self.pins:
            if v >= n:
                raise ValueError(f"pin vertex {v} out of range for n={n}")
            if len(pos) != dims:
                raise ValueError(
                    f"pin for vertex {v} has {len(pos)} coordinates,"
                    f" expected dims={dims}"
                )
        for v, _m in self.masses:
            if v >= n:
                raise ValueError(f"mass vertex {v} out of range for n={n}")
        if self.region is not None and len(self.region) != dims:
            raise ValueError(
                f"region has {len(self.region)} axes, expected dims={dims}"
            )

    def mass_vector(self, n: int) -> np.ndarray:
        """Dense ``(n,)`` mass vector (ones where no mass was given)."""
        m = np.ones(n, dtype=np.float64)
        for v, mass in self.masses:
            m[v] = mass
        return m

    def pin_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, pos)`` arrays: pinned vertex ids and their coordinates."""
        if not self.pins:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, 0), dtype=np.float64),
            )
        idx = np.array([v for v, _ in self.pins], dtype=np.int64)
        pos = np.array([list(p) for _, p in self.pins], dtype=np.float64)
        return idx, pos

    def clamp(self, coords: np.ndarray) -> np.ndarray:
        """Clamp free coordinates into the region (idempotent).

        Values already inside the bounds are returned bitwise-unchanged
        (``np.clip`` only replaces out-of-range entries), so applying the
        clamp twice equals applying it once.
        """
        if self.region is None:
            return coords
        lo = np.array([b[0] for b in self.region], dtype=np.float64)
        hi = np.array([b[1] for b in self.region], dtype=np.float64)
        return np.clip(coords, lo[None, :], hi[None, :])

    def warm_base_spec(self) -> "ConstraintSpec":
        """The spec facet that determines the reusable warm basis.

        Pins and region act *after* the mass-weighted orthogonalization
        (deflation / clamping of an existing basis), so a warm restart
        can reuse the basis across any pin/drag/region change; masses
        change the inner product itself and therefore stay in the key.
        """
        if not self.pins and self.region is None:
            return self
        return ConstraintSpec(masses=self.masses)

    def with_base_pins(
        self, base: Mapping[int, tuple[float, ...]] | None
    ) -> "ConstraintSpec":
        """Overlay this spec on top of server-side pin state.

        Request pins win per-vertex; state pins fill the rest.  Used by
        the serving engine to merge ``POST /update`` pin state into each
        layout request.
        """
        if not base:
            return self
        merged = dict(base)
        merged.update(dict(self.pins))
        return ConstraintSpec(
            pins=merged, masses=self.masses, region=self.region
        )

    # -- serialization -----------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        """Canonical minimal dict for params echoes and fingerprints.

        Empty facets are omitted and everything nests as **lists** so
        the dict compares equal to itself after any JSON round-trip.
        """
        out: dict[str, Any] = {}
        if self.pins:
            out["pins"] = [[v, list(pos)] for v, pos in self.pins]
        if self.masses:
            out["masses"] = [[v, m] for v, m in self.masses]
        if self.region is not None:
            out["region"] = [[lo, hi] for lo, hi in self.region]
        return out
