"""repro.resilience — keep the serving stack answering when parts fail.

Three cooperating mechanisms:

* :mod:`~repro.resilience.deadline` — wall-clock budgets with per-phase
  sub-budgets the pipeline checks between phases (each solver phase is
  opened as ``ledger.phase(name, deadline)``);
* :mod:`~repro.resilience.retry` / :mod:`~repro.resilience.breaker` —
  transient-failure retries with backoff, and per-(graph, algorithm)
  circuit breakers that stop retry storms;
* :mod:`~repro.resilience.ladder` — the degradation ladder: full →
  reduced → coarse → baseline, always returning *a* layout in budget;

plus :mod:`~repro.resilience.chaos`, the failpoint harness that proves
all of the above under injected faults.
"""

from . import chaos
from .breaker import BreakerOpen, BreakerRegistry, CircuitBreaker
from .deadline import (
    DEFAULT_PHASE_FRACTIONS,
    Deadline,
    DeadlineExceeded,
    PhaseOverrun,
    fractions_from_breakdown,
    split_budget,
)
from .retry import RetryPolicy, TransientError, with_retry

__all__ = [
    "DEFAULT_PHASE_FRACTIONS",
    "BreakerOpen",
    "BreakerRegistry",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "PhaseOverrun",
    "QUALITY_TIERS",
    "RetryPolicy",
    "TransientError",
    "baseline_layout",
    "chaos",
    "fractions_from_breakdown",
    "is_lod_tier",
    "resilient_layout",
    "split_budget",
    "tier_rank",
    "with_retry",
]

# The ladder imports the core pipeline, and the core pipeline imports
# this package (for its chaos failpoints): expose the ladder lazily so
# ``import repro.core.hde`` never re-enters a half-initialized module.
_LAZY = {
    "QUALITY_TIERS": "ladder",
    "baseline_layout": "ladder",
    "is_lod_tier": "ladder",
    "resilient_layout": "ladder",
    "tier_rank": "ladder",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{target}", __name__), name)
    globals()[name] = value
    return value
