"""Run every experiment and write the paper-vs-measured record.

``python -m repro.experiments.report``, run from the repository root,
runs each experiment of :data:`EXPERIMENTS` on every seed of
:data:`SEEDS` at the paper's parameters and writes ``EXPERIMENTS.md``:
per experiment, the paper's values, the median [min, max] of ours over
the seeds, and a status.  It prints that record, then Fig. 6's and
Fig. 8c's charts for the first seed.  It runs under one BLAS thread:
the estimator's final fit changes its last bits with the thread count,
and the schedules follow (Fig. 6's seed-5 fidelity drop reads 3.414%
with one thread and 3.482% with two).
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys
from collections.abc import Callable

from .ascii_plot import bar_chart, line_chart
from .fig10 import fig10a_exec_time, fig10b_priorities
from .fig2 import (
    fig2a_circuit_cutting,
    fig2b_spatial_variance,
    fig2c_load_imbalance,
)
from .fig6 import fig6_end_to_end
from .fig7 import fig7a_resource_plans, fig7bc_estimation_error
from .fig8 import fig8ab_tradeoff, fig8c_load_balance
from .fig9 import (
    fig9a_cluster_scaling,
    fig9b_load_scaling,
    fig9c_stage_runtimes,
)
from .table1 import table1_pricing

__all__ = ["EXPERIMENTS", "SEEDS", "render_markdown", "run_all"]

#: The seeds EXPERIMENTS.md spreads each measurement over.
SEEDS = (5, 6, 7)

#: Every experiment, by id: a function of the seed alone, its verdict
#: (*shape holds*, *gap explained* or *gap open*), and the cause of an
#: explained gap.
EXPERIMENTS: dict[str, tuple[Callable[..., dict], str, str]] = {
    "table1": (lambda seed: table1_pricing(), "shape holds", ""),  # no randomness
    "fig2a": (
        fig2a_circuit_cutting, "gap explained",
        "The paper's headline is a 24-qubit cut, where the uncut fidelity collapses "
        "to ~0; we run the 12-qubit point, the widest whose halves a statevector "
        "simulates, so there is no 24-qubit value to compare.",
    ),
    "fig2b": (fig2b_spatial_variance, "gap open", ""),
    "fig2c": (fig2c_load_imbalance, "gap open", ""),
    "fig6": (
        fig6_end_to_end, "gap explained",
        "FCFS sends every job to its best-fidelity QPU and overloads it even at "
        "1,500 jobs/h (its drained mean JCT is 1,798-1,937 s), so over the same "
        "jobs the JCT reduction overshoots the paper's 48 %; the censored rows compare "
        "only the jobs each arm finished within the hour.",
    ),
    "fig7a": (fig7a_resource_plans, "gap open", ""),
    "fig7bc": (fig7bc_estimation_error, "gap open", ""),
    "fig8ab": (fig8ab_tradeoff, "gap open", ""),
    "fig8c": (
        fig8c_load_balance, "gap explained",
        "Eight of our QPUs serve about 2,300 jobs/h, so at the paper's 1,500 jobs/h "
        "Qonductor keeps most work on the best-calibrated 27-qubit devices and leaves "
        "the worst nearly idle; the spread closes only at 4,500 jobs/h, past the "
        "fleet's capacity.",
    ),
    "fig9a": (
        fig9a_cluster_scaling, "gap explained",
        "At 1,500 jobs/h four QPUs are overloaded while eight serve the load below "
        "capacity, so 4->8 gains more than the paper's 52.8 % and 8->16 adds little: "
        "at eight QPUs the mean JCT is already near the floor set by the 120 s "
        "trigger interval and the jobs' own run times.",
    ),
    "fig9b": (fig9b_load_scaling, "shape holds", ""),
    "fig9c": (fig9c_stage_runtimes, "shape holds", ""),
    "fig10a": (
        fig10a_exec_time, "gap explained",
        "No placement gains more than the devices' speed spread: among the QPUs a "
        "job fits, the fastest takes 38.8 % less 2q-gate time than the slowest "
        "(median job, exec_ceiling_pct), short of the paper's 63.4 %. The front spans "
        "less again (its mean extremes, 12.5 s and 16.1 s, lie 22 % apart), and the "
        "balanced pick, which also weighs fidelity and queueing, lands about 60 % of "
        "the way from the front's slow end to its fast end: about 13 % below its "
        "maximum.",
    ),
    "fig10b": (fig10b_priorities, "gap open", ""),
}


def run_all(seed: int = 5) -> dict:
    """Execute every experiment on ``seed``; returns {experiment_id: result}."""
    return {exp_id: run(seed=seed) for exp_id, (run, _, _) in EXPERIMENTS.items()}


def _spread(values: list) -> str:
    """``median [min, max]`` of numbers; the distinct values otherwise."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return " / ".join(dict.fromkeys(str(v) for v in values))
    if min(values) == max(values):
        return f"{values[0]:.4g}"
    return f"{statistics.median(values):.4g} [{min(values):.4g}, {max(values):.4g}]"


def _row(key: str, paper, per_seed: list[dict]) -> str:
    return f"| {key} | {paper} | {_spread([r['measured'][key] for r in per_seed])} |"


def _rows(per_seed: list[dict]) -> list[str]:
    """A row per scalar measured value, beside the paper value it reports:
    ``x`` for ``x`` and ``x_censored``, ``x_range`` for ``x``."""
    paper, measured = per_seed[0]["paper"], per_seed[0]["measured"]
    keys = [k for k, v in measured.items() if not isinstance(v, (dict, list, tuple))]
    rows = []
    for pkey, pvalue in paper.items():
        related = [
            k for k in keys
            if k == pkey or k.startswith(pkey + "_") or pkey.startswith(k + "_")
        ]
        rows += [_row(k, pvalue, per_seed) for k in related] or [f"| {pkey} | {pvalue} | — |"]
        keys = [k for k in keys if k not in related]
    return rows + [_row(k, "—", per_seed) for k in keys]


def render_markdown(runs: dict[int, dict]) -> str:
    """EXPERIMENTS.md from ``{seed: run_all(seed)}``."""
    seeds = "/".join(str(s) for s in runs)
    lines = [
        "# EXPERIMENTS — paper vs measured",
        "",
        f"Written by `python -m repro.experiments.report` at the paper's parameters on seeds "
        f"{seeds}, under one BLAS thread; do not edit by hand. Each experiment lists the "
        "paper's values and ours as the median [min, max] over the seeds (one value where "
        "every seed agrees), then a "
        "status: *shape holds*, *gap explained* (with its cause) or *gap open*. Wall-clock "
        "ratios (Fig. 2a's runtimes, Fig. 9c's stages) vary from run to run.",
    ]
    for exp_id, (_, status, cause) in EXPERIMENTS.items():
        lines += [
            "", f"## {exp_id}", "", f"Status: *{status}*." + (f" {cause}" if cause else ""),
            "", f"| metric | paper | measured, seeds {seeds} |", "|---|---|---|",
            *_rows([results[exp_id] for results in runs.values()]),
        ]
    return "\n".join(lines) + "\n"


#: The environment EXPERIMENTS.md is written under.
_ONE_BLAS_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def main() -> None:
    if any(os.environ.get(name) != value for name, value in _ONE_BLAS_THREAD.items()):
        # numpy sized its BLAS thread pool when it was imported, before
        # main() ran, so setting the variables here is too late: start
        # over in a process that reads them at its own import.
        os.execve(
            sys.executable,
            [sys.executable, "-m", "repro.experiments.report"],
            {**os.environ, **_ONE_BLAS_THREAD},
        )
    runs = {seed: run_all(seed) for seed in SEEDS}
    text = render_markdown(runs)
    pathlib.Path("EXPERIMENTS.md").write_text(text)
    print(text)
    results = runs[SEEDS[0]]
    series = results["fig6"]["series"]
    for key, title in (
        ("jct", "Fig 6b: mean completion time over simulated time [s]"),
        ("util", "Fig 6c: mean QPU utilization over simulated time"),
    ):
        print(line_chart(
            {arm: series[f"{arm}_{key}"] for arm in ("qonductor", "fcfs")}, title=title
        ), end="\n\n")
    loads = results["fig8c"]["measured"]["per_rate"][1500]["per_qpu_busy_seconds"]
    print(bar_chart(loads, title="Fig 8c: per-QPU busy seconds @1500 j/h"))


if __name__ == "__main__":
    main()
