"""The repo's determinism contracts, as data the rules consume.

This module is the single place where detlint's rules meet the actual
codebase: which packages run on simulated time, which functions are the
declared wall-clock accounting sites, which functions must stay pure
functions of their task (so a recorded cycle replays), and where the
runtime metrics allowlist lives.  Keeping it
separate from the rule logic means the rules stay generic (and unit
testable on synthetic fixtures) while the repo-specific policy is
reviewable in one screenful.
"""

from __future__ import annotations

__all__ = [
    "SIMULATED_TIME_PACKAGES",
    "TIMING_ACCOUNTING_SITES",
    "AMBIENT_RNG_FACTORY_SITES",
    "WORKER_FUNCTIONS",
    "METRICS_MODULE",
    "METRICS_CLASS",
    "TIMING_TUPLE_NAME",
]

#: Packages whose notion of "now" is the event-loop's simulated clock.
#: A wall-clock read here (outside a declared accounting site) leaks
#: host timing into simulated behavior — the exact bug class the
#: bit-identity tests exist to catch.
SIMULATED_TIME_PACKAGES: tuple[str, ...] = (
    "repro.cloud",
    "repro.scheduler",
    "repro.moo",
    "repro.orchestrator",
)

#: The declared timing-accounting sites: ``module -> function names``
#: allowed to read the wall clock because their measurements land only
#: in ``SimulationMetrics.TIMING_FIELDS`` (or ``compare=False`` result
#: fields) and never influence simulated behavior.  DET005 statically
#: checks the "land only in TIMING_FIELDS" half of that claim.
TIMING_ACCOUNTING_SITES: dict[str, frozenset[str]] = {
    # The run-level wall_seconds stopwatch.
    "repro.cloud.simulator": frozenset({"run"}),
    # OptimizationResult.optimize_seconds (a compare=False field).
    "repro.scheduler.cycle": frozenset({"run_optimization"}),
    # Per-stage preprocess/select timings, folded into stage_seconds.
    "repro.scheduler.quantum": frozenset({"begin_cycle", "finish_cycle"}),
}

#: Sites allowed to construct ambient (OS-entropy) generators:
#: ``module -> function names``.  Empty on purpose — every production
#: path injects a seeded ``Generator``; the rare intentional fallback
#: carries an inline ``# detlint: disable=DET001 -- reason`` instead,
#: so the justification lives next to the code.
AMBIENT_RNG_FACTORY_SITES: dict[str, frozenset[str]] = {}

#: Functions run through :class:`repro.cloud.cycle_executor.SerialCycleExecutor`,
#: beyond what DET003 discovers from ``*.submit(fn, ...)`` /
#: ``*.run(fn, ...)`` call sites.  These must stay module-level, closure
#: free, and module-global free, so a cycle replayed from its recorded
#: task reproduces the run's result.
WORKER_FUNCTIONS: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro.scheduler.cycle", "run_optimization"),
        # The population-flat NSGA-II kernels run inside run_optimization;
        # same purity bar.
        ("repro.scheduler.formulation", "evaluate_population"),
        ("repro.scheduler.formulation", "repair_population"),
    }
)

#: Where the runtime determinism allowlist lives (DET005's anchor).
METRICS_MODULE = "repro.cloud.metrics"
METRICS_CLASS = "SimulationMetrics"
TIMING_TUPLE_NAME = "TIMING_FIELDS"
