"""Transpiler: basis decomposition, layout, routing, scheduling (the ASAP
walk itself lives in :mod:`repro.simulation.schedule`, below all of its
readers)."""

from .decompose import (
    decompose_circuit,
    decompose_to_basis,
    fuse_1q_runs,
    u_to_basis_ops,
    zyz_angles,
)
from ..simulation.schedule import Schedule, ScheduledOp, schedule_circuit
from .layout import Layout, linear_path_layout, noise_aware_layout, trivial_layout
from .routing import RoutedCircuit, route
from .transpile import Target, TranspileResult, transpile

__all__ = [
    "decompose_circuit",
    "decompose_to_basis",
    "fuse_1q_runs",
    "u_to_basis_ops",
    "zyz_angles",
    "Layout",
    "linear_path_layout",
    "noise_aware_layout",
    "trivial_layout",
    "RoutedCircuit",
    "route",
    "Schedule",
    "ScheduledOp",
    "schedule_circuit",
    "Target",
    "TranspileResult",
    "transpile",
]
