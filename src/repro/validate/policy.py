"""Validation policy, check results and the violation report.

The paper states invariants the pipeline never verified at runtime:
``S' D S = I`` after DOrtho (Algorithm 3), ``L S = D S - A S`` inside
TripleProd, monotone BFS levels, and — since the streaming subsystem —
exact equivalence of overlay-repaired and from-scratch distance
matrices.  A silent violation surfaces only as a subtly wrong drawing,
the worst failure mode for a serving system.  This module defines *how*
violations are handled; the checks themselves live in
:mod:`repro.validate.checkers`.

Three policy levels:

``off``
    No checking at all (the pre-existing behaviour; zero cost).
``warn``
    Cheap per-phase checks run and violations are reported through
    :mod:`warnings`; the layout is still returned.
``strict``
    All checks run — including the expensive deep ones (stream repair
    equivalence, overlay digest) — and the first violation raises
    :class:`InvariantViolation`.

A policy is accepted anywhere as either a :class:`ValidationPolicy`
instance or one of the level strings; ``None`` means ``off``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

__all__ = [
    "CheckResult",
    "InvariantViolation",
    "ValidationPolicy",
    "ValidationReport",
    "ValidationWarning",
]

LEVELS = ("off", "warn", "strict")


class ValidationWarning(UserWarning):
    """Emitted for invariant violations under the ``warn`` policy."""


class InvariantViolation(Exception):
    """A pipeline invariant failed under the ``strict`` policy.

    Carries the failing :class:`CheckResult` (``.result``) so callers can
    report the phase, residual and threshold without parsing the message.
    """

    def __init__(self, result: "CheckResult"):
        self.result = result
        super().__init__(
            f"[{result.phase}] {result.check}: residual"
            f" {result.residual:.3e} exceeds {result.threshold:.3e}"
            + (f" ({result.detail})" if result.detail else "")
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check.

    ``residual`` is the measured violation magnitude (0.0 for exact
    checks that hold); ``threshold`` is the largest residual the check
    tolerates.  ``ok`` is ``residual <= threshold``.
    """

    check: str  # e.g. "dortho.residual"
    phase: str  # "BFS" | "DOrtho" | "TripleProd" | "Other" | "Stream" | "Cache"
    residual: float
    threshold: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.residual <= self.threshold

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = (
            f"[{self.phase:<10}] {self.check:<22} residual {self.residual:9.3e}"
            f"  <= {self.threshold:.1e}  {status}"
        )
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass
class ValidationReport:
    """An ordered collection of check results with a pass/fail verdict."""

    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def extend(self, results) -> None:
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def format(self) -> str:
        lines = [r.format() for r in self.results]
        n_fail = len(self.failures)
        verdict = (
            f"PASS: {len(self.results)}/{len(self.results)} checks ok"
            if not n_fail
            else f"FAIL: {n_fail}/{len(self.results)} checks violated"
        )
        return "\n".join(lines + [verdict])

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


@dataclass(frozen=True)
class ValidationPolicy:
    """How much checking to do and what to do on a violation.

    Attributes
    ----------
    level:
        ``"off"``, ``"warn"`` or ``"strict"``.
    ortho_tol:
        Largest tolerated ``max |S' D S - I|`` entry (also covers the
        D-orthogonality of ``S`` against the constant vector).
    laplacian_tol:
        Largest tolerated relative mismatch between the SpMM-computed
        ``L S`` and an independent per-edge scatter of the same product.
    eigen_tol:
        Largest tolerated relative eigenpair residual
        ``||Z Y - Y diag(evals)|| / (1 + ||Z||)``.
    deep:
        Run the expensive checks too (stream repair equivalence, overlay
        digest rebuild, full BFS level Lipschitz sweep).  ``None`` means
        "iff strict".
    """

    level: str = "off"
    ortho_tol: float = 1e-6
    laplacian_tol: float = 1e-8
    eigen_tol: float = 1e-6
    deep: bool | None = None

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {self.level!r}")

    # -- coercion ----------------------------------------------------------
    @classmethod
    def coerce(
        cls, value: "ValidationPolicy | str | None"
    ) -> "ValidationPolicy":
        """Accept a policy, a level string, or ``None`` (= off)."""
        if value is None:
            return OFF
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(level=value)
        raise TypeError(
            f"expected ValidationPolicy, level string or None, got {value!r}"
        )

    # -- behaviour ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.level != "off"

    @property
    def run_deep(self) -> bool:
        """Whether the expensive checks should run."""
        if not self.enabled:
            return False
        return self.level == "strict" if self.deep is None else bool(self.deep)

    def handle(self, result: CheckResult) -> CheckResult:
        """Dispatch one result: raise under strict, warn under warn.

        Returns the result unchanged so call sites can chain it into a
        report.
        """
        if result.ok or not self.enabled:
            return result
        if self.level == "strict":
            raise InvariantViolation(result)
        warnings.warn(
            f"invariant violated: {result.format()}",
            ValidationWarning,
            stacklevel=2,
        )
        return result


#: Shared singletons for the three levels.
OFF = ValidationPolicy("off")
WARN = ValidationPolicy("warn")
STRICT = ValidationPolicy("strict")
