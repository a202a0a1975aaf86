"""Qonductor reproduction: a cloud orchestrator for hybrid
quantum-classical computing (SC '25).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.circuits` — circuit IR
* :mod:`repro.workloads` — benchmark circuit library
* :mod:`repro.simulation` — ideal/noisy simulators, fidelity metrics
* :mod:`repro.backends` — QPU models, calibration, the synthetic fleet
* :mod:`repro.transpiler` — basis translation, layout, routing
* :mod:`repro.mitigation` — ZNE/REM/DD/twirling/circuit knitting
* :mod:`repro.ml` — polynomial ridge regression and its K-fold degree selection
* :mod:`repro.moo` — NSGA-II and MCDM
* :mod:`repro.estimator` — the hybrid resource estimator (§6)
* :mod:`repro.scheduler` — the hybrid scheduler (§7)
* :mod:`repro.cloud` — the quantum-cloud simulator (§8.2)
* :mod:`repro.orchestrator` — workflows, images, registry and the Qonductor API
* :mod:`repro.experiments` — figure/table regeneration harness
"""

from .circuits import Circuit, Gate

__version__ = "1.0.0"

__all__ = ["Circuit", "Gate", "Qonductor", "__version__"]


def __getattr__(name: str):
    # ``repro.Qonductor`` resolves on first use: importing the whole
    # orchestrator (and through it the cloud and estimator stacks) for
    # one name would put it on every ``import repro``.
    if name == "Qonductor":
        from .orchestrator import Qonductor

        return Qonductor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
