"""Simulated multicore machine model and the serving task pool.

See DESIGN.md section 2 for why this substrate exists: it substitutes for
the 28-core Bridges node the paper measured on, converting per-kernel cost
records (work / depth / streamed bytes / random cache lines / barriers)
into simulated seconds for any thread count.  The kernels themselves run
in NumPy on the calling thread; :class:`TaskPool` only runs independent
layouts against each other.
"""

from .costs import KernelCost, Ledger, PhaseTotals, ZERO_COST
from .machine import (
    BRIDGES_ESM,
    BRIDGES_RSM,
    LAPTOP,
    MachineSpec,
    phase_times,
    shard_times,
    simulate_ledger,
    subphase_times,
)
from .pool import PoolSaturated, TaskPool
from .sensitivity import (
    SensitivityRow,
    format_sensitivity,
    sensitivity_report,
    sweep_parameter,
)
from .report import (
    Breakdown,
    breakdown,
    format_breakdown_table,
    format_scaling_table,
    scaling_table,
)

__all__ = [
    "KernelCost",
    "Ledger",
    "PhaseTotals",
    "ZERO_COST",
    "MachineSpec",
    "BRIDGES_RSM",
    "BRIDGES_ESM",
    "LAPTOP",
    "simulate_ledger",
    "phase_times",
    "shard_times",
    "subphase_times",
    "PoolSaturated",
    "TaskPool",
    "Breakdown",
    "breakdown",
    "scaling_table",
    "format_breakdown_table",
    "format_scaling_table",
    "SensitivityRow",
    "sweep_parameter",
    "sensitivity_report",
    "format_sensitivity",
]
