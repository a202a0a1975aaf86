"""detlint — determinism & purity static analysis for the repro engine.

Every equivalence claim this reproduction makes (1-shard ≡ unsharded,
replayed ≡ recorded, pickled ≡ plain) rests on a handful of code
conventions: cycle RNG keyed by ``SeedSequence((seed, shard, cycle))``,
pure picklable stage-2 workers, wall-clock confined to the
``TIMING_FIELDS`` accounting sites, shard-id-ordered folds.  The runtime
bit-identity tests catch a violation *after* it ships and only on the
scenarios they encode; this package catches the whole class at lint
time, on every line.

Rules (see :mod:`repro.analysis.rules`):

* **DET001** — ambient / unseeded RNG (``np.random.*`` module functions,
  bare ``random.*``, ``default_rng()`` with no seed).
* **DET002** — wall-clock reads inside simulated-time packages outside
  the declared timing-accounting sites.
* **DET003** — impurity in functions run by the cycle executor
  (nested defs, lambdas, module-global reads/writes).
* **DET004** — iterating an unordered collection (``set``,
  ``os.listdir``, ``glob.glob``) into an ordering-sensitive sink
  without ``sorted(...)``.
* **DET005** — the static mirror of the
  ``SimulationMetrics.deterministic_state()`` contract: wall-clock may
  only flow into fields listed in ``TIMING_FIELDS``, and every
  allowlist entry must name a real field.

Use ``python -m repro.analysis [paths]`` (exit 0 means zero unsuppressed
findings) or the library API::

    from repro.analysis import analyze_paths
    report = analyze_paths(["src"])
    for f in report.findings:
        print(f.format())

Suppress an intentional violation inline with a justification::

    rng = np.random.default_rng()  # detlint: disable=DET001 -- why it is safe
"""

from __future__ import annotations

from .base import Finding, ModuleContext, Report, Rule, all_rules
from .runner import analyze_paths

__all__ = [
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "all_rules",
    "analyze_paths",
]
