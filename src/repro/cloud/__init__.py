"""Cloud simulation substrate: jobs, the transpile proxy, the ground-truth
execution model, simulated backends, load generation, and the simulator."""

from .availability import (
    AvailabilityEvent,
    AvailabilityModel,
    MaintenanceWindow,
    flash_outage,
)
from .backend_sim import SimulatedQPU
from .cycle_executor import SerialCycleExecutor
from .execution import MITIGATION_EFFECTS, ExecutionModel, ExecutionRecord
from .fleet import (
    FleetShard,
    LeastLoadedBalancer,
    Migration,
    QubitFitBalancer,
    RoundRobinBalancer,
    ShardBalancer,
    ThresholdRebalancePolicy,
    make_balancer,
    partition_fleet,
)
from .imbalance import QueueTrace, simulate_queue_imbalance
from .job import HybridApplication, JobStatus, QuantumJob
from .loadgen import IBM_MEAN_RATE, IBM_RATE_BAND, LoadGenerator, diurnal_rate
from .metrics import SimulationMetrics, TimeSeries
from .proxy import ProxyEntry, TranspileProxy
from .simulator import CloudSimulator, SimulationConfig
from .tenancy import (
    BEST_EFFORT_TIER,
    AdmissionController,
    AdmissionDecision,
    Tenant,
    TenantShare,
    abusive_mix,
    effective_tier,
    jain_index,
    tier_sort,
)

__all__ = [
    "HybridApplication",
    "JobStatus",
    "QuantumJob",
    "ProxyEntry",
    "TranspileProxy",
    "MITIGATION_EFFECTS",
    "ExecutionModel",
    "ExecutionRecord",
    "SimulatedQPU",
    "SerialCycleExecutor",
    "FleetShard",
    "ShardBalancer",
    "RoundRobinBalancer",
    "LeastLoadedBalancer",
    "QubitFitBalancer",
    "make_balancer",
    "partition_fleet",
    "Migration",
    "ThresholdRebalancePolicy",
    "AvailabilityEvent",
    "AvailabilityModel",
    "MaintenanceWindow",
    "flash_outage",
    "IBM_MEAN_RATE",
    "IBM_RATE_BAND",
    "LoadGenerator",
    "diurnal_rate",
    "SimulationMetrics",
    "TimeSeries",
    "CloudSimulator",
    "SimulationConfig",
    "QueueTrace",
    "simulate_queue_imbalance",
    "BEST_EFFORT_TIER",
    "Tenant",
    "TenantShare",
    "AdmissionDecision",
    "AdmissionController",
    "abusive_mix",
    "effective_tier",
    "tier_sort",
    "jain_index",
]
