"""KernelConfig: one typed home for the pipeline's kernel-selection knobs.

The paper's pipeline choices — pivot strategy, D- vs plain
orthogonalization, CGS vs MGS, projection basis (Tables 6–7) — plus the
batched-BFS and randomized-subspace kernels are the fields of one frozen
:class:`KernelConfig`.  Callers pass it (or a plain dict with the same
keys) as ``kernels=`` to :func:`repro.core.parhde`, ``phde``,
``pivotmds``, :class:`repro.stream.StreamSession` and ``POST /layout``.

:meth:`KernelConfig.to_params` produces the canonical minimal dict used
in cache fingerprints — default values are omitted, so requests that
never mention a kernel knob keep the fingerprints they had before this
API existed, and every spelling of one configuration (dict or
dataclass) canonicalizes to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping

__all__ = [
    "KERNEL_FIELDS",
    "KernelConfig",
    "PCA_KERNEL_FIELDS",
    "TRAVERSALS",
    "SUBSPACE_METHODS",
]

TRAVERSALS = ("per-source", "batched")
SUBSPACE_METHODS = ("deterministic", "randomized")

#: The fields PHDE and PivotMDS honour: they have no DOrtho, refinement
#: or projection phase for the other fields to select.
PCA_KERNEL_FIELDS = ("pivots", "traversal")

_CHOICES = {
    "pivots": ("kcenters", "random", "random-concurrent"),
    "ortho": ("D", "plain"),
    "gs_method": ("mgs", "cgs"),
    "project_basis": ("S", "B"),
    "traversal": TRAVERSALS,
    "subspace": SUBSPACE_METHODS,
}


@dataclass(frozen=True)
class KernelConfig:
    """Every kernel choice of the layout pipeline, in one place.

    Attributes
    ----------
    pivots:
        Source-selection strategy for the BFS phase (``"kcenters"``,
        ``"random"``, ``"random-concurrent"``).
    ortho:
        ``"D"`` (degree-normalized) or ``"plain"`` orthogonalization.
    gs_method:
        Gram-Schmidt variant for DOrtho (``"mgs"`` or ``"cgs"``).
    project_basis:
        Final projection basis (``"S"`` or ``"B"``).
    drop_tol:
        Near-dependence drop tolerance in DOrtho.
    traversal:
        BFS execution backend: ``"per-source"`` (one traversal at a
        time, the seed behaviour) or ``"batched"`` (the frontier-matrix
        multi-source sweep of :mod:`repro.bfs.batched`; bitwise-equal
        distances, far cheaper).  Unweighted graphs only.
    subspace:
        Subspace-refinement kernel used when ``rounds > 0``:
        ``"deterministic"`` block power iteration (re-orthonormalizes
        every round) or ``"randomized"`` range finding (one final
        orthonormalization; :mod:`repro.linalg.randomized`).
    rounds:
        Subspace-refinement rounds run between DOrtho and TripleProd
        (0 = skip refinement entirely, the seed behaviour).
    """

    pivots: str = "kcenters"
    ortho: str = "D"
    gs_method: str = "mgs"
    project_basis: str = "S"
    drop_tol: float = 1e-3
    traversal: str = "per-source"
    subspace: str = "deterministic"
    rounds: int = 0

    def __post_init__(self) -> None:
        for name, options in _CHOICES.items():
            value = getattr(self, name)
            if value not in options:
                raise ValueError(
                    f"kernels.{name} must be one of {options}, got {value!r}"
                )
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool):
            raise ValueError(f"kernels.rounds must be an int, got {self.rounds!r}")
        if self.rounds < 0:
            raise ValueError(f"kernels.rounds must be >= 0, got {self.rounds}")
        if not self.drop_tol > 0:
            raise ValueError(f"kernels.drop_tol must be > 0, got {self.drop_tol}")

    # -- construction ------------------------------------------------------
    @classmethod
    def coerce(cls, value: "KernelConfig | Mapping[str, Any] | None") -> "KernelConfig":
        """Accept a config, an equivalent mapping, or ``None`` (defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            unknown = set(value) - known
            if unknown:
                raise ValueError(
                    f"unknown kernels keys {sorted(unknown)}; known:"
                    f" {sorted(known)}"
                )
            kwargs = dict(value)
            if "rounds" in kwargs:
                r = kwargs["rounds"]
                # JSON round-trips may deliver numerics as floats.
                if isinstance(r, float) and r.is_integer():
                    kwargs["rounds"] = int(r)
            return cls(**kwargs)
        raise ValueError(
            f"kernels must be a KernelConfig or a mapping, got {type(value).__name__}"
        )

    def require_only(self, honoured: Iterable[str], who: str) -> None:
        """Raise ``ValueError`` if a non-default field is not ``honoured``.

        A solver that silently ignored a kernel choice would return (and
        a server would cache) a layout the caller did not ask for.
        """
        extra = sorted(set(self.to_params()) - set(honoured))
        if extra:
            raise ValueError(
                f"{who} does not honour kernels {extra}; it honours only"
                f" {sorted(honoured)}"
            )

    # -- serialization -----------------------------------------------------
    def to_params(self, *, minimal: bool = True) -> dict[str, Any]:
        """Canonical dict form for params echoes and fingerprints.

        With ``minimal=True`` (the default) only non-default fields are
        emitted, so configurations that match the seed behaviour leave
        fingerprints untouched and every spelling of the same choice
        (``kernels=`` dict or dataclass) canonicalizes to the same bytes.
        """
        defaults = KernelConfig()
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if minimal and value == getattr(defaults, f.name):
                continue
            out[f.name] = value
        return out


#: Every :class:`KernelConfig` field: what a solver without a narrower
#: ``honoured_kernels`` declaration (ParHDE) honours.
KERNEL_FIELDS = frozenset(f.name for f in fields(KernelConfig))
