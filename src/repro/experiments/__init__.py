"""Experiment harness: one function per paper figure/table."""

from .fig10 import fig10a_exec_time, fig10b_priorities
from .fig2 import (
    fig2a_circuit_cutting,
    fig2b_spatial_variance,
    fig2c_load_imbalance,
)
from .fig6 import fig6_end_to_end
from .fig7 import fig7a_resource_plans, fig7bc_estimation_error
from .fig8 import fig8ab_tradeoff, fig8c_load_balance, run_scheduling_cycles
from .fig9 import (
    fig9a_cluster_scaling,
    fig9b_load_scaling,
    fig9c_stage_runtimes,
)
from .report import run_all
from .table1 import table1_pricing
from .tenant import tenant_study

__all__ = [
    "fig2a_circuit_cutting",
    "fig2b_spatial_variance",
    "fig2c_load_imbalance",
    "fig6_end_to_end",
    "fig7a_resource_plans",
    "fig7bc_estimation_error",
    "fig8ab_tradeoff",
    "fig8c_load_balance",
    "run_scheduling_cycles",
    "fig9a_cluster_scaling",
    "fig9b_load_scaling",
    "fig9c_stage_runtimes",
    "fig10a_exec_time",
    "fig10b_priorities",
    "table1_pricing",
    "run_all",
    "tenant_study",
]
