"""Compare two result sets written by ``run.py --out``.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --self-check [--seed N] [--seconds S] [--scale X]

A is the parent, B the change.  For every workload x end-to-end metric
the medians, minima and maxima of both sides are printed with the ratio
B/A and its base.  A host-time metric is a REGRESSION when B's median is
worse than A's by more than the bound ``BENCHMARK.json`` fixes; when A's
own min-max spread is wider than that bound the metric is *unresolved*,
not unchanged, unless every run of B beats every run of A.  Every other
end-to-end metric (``sim_*``, ``served_share``), every per-layer metric
that is not a host time and the state digest come from a seeded
deterministic simulator and must be exactly equal: a PR that moves them
changed behaviour, whatever its title.  Exits 1 on a regression or an
inexact match, 2 when the two sets were not measured the same way.

``--self-check`` measures the suite twice on this commit and compares
the two: the benchmark must agree with itself within its own bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

#: End-to-end metrics read off the host's clock or memory; the rest are
#: outputs of the seeded simulator.
HOST_METRICS = ("setup_s", "jobs_per_s", "peak_rss_mb")
#: Units of per-layer host times (``trace.*`` is derived from them).
HOST_UNITS = ("s", "ms", "us", "%")


def _worse_by(spec: dict, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    change = (b - a) / a
    return change if spec["better"] == "lower" else -change


def _verdict(spec: dict, a: dict, b: dict) -> str:
    if spec["name"] not in HOST_METRICS:
        return "equal" if a["value"] == b["value"] else "CHANGED"
    if _worse_by(spec, a["value"], b["value"]) > spec["bound"]:
        return "REGRESSION"
    if (a["max"] - a["min"]) / a["value"] > spec["bound"]:
        lower = spec["better"] == "lower"
        clear_win = b["max"] < a["min"] if lower else b["min"] > a["max"]
        return "better" if clear_win else "unresolved"
    return "within bound"


def compare(spec: dict, a: dict, b: dict) -> int:
    """Print the comparison; the number of regressions and mismatches."""
    bad = 0
    counts = [
        m["name"] for m in spec["per_layer"]
        if m["unit"] not in HOST_UNITS and not m["name"].startswith("trace.")
    ]
    for name in (n for n in a["workloads"] if n in b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"# {name}")
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            verdict = _verdict(m, sa, sb)
            bad += verdict in ("REGRESSION", "CHANGED")
            print(
                f"{m['name']:<22} "
                f"A {sa['value']:.6g} [{sa['min']:.6g}, {sa['max']:.6g}]  "
                f"B {sb['value']:.6g} [{sb['min']:.6g}, {sb['max']:.6g}]  "
                f"B/A {sb['value'] / sa['value']:.4f} of {sa['value']:.6g} {m['unit']}  "
                f"(bound {m['bound']:.0%}, {m['better']} is better)  {verdict}"
            )
        moved = [
            f"{c}: {wa['per_layer'][c]['value']} -> {wb['per_layer'][c]['value']}"
            for c in counts
            if wa["per_layer"][c]["value"] != wb["per_layer"][c]["value"]
        ]
        if wa["digest"] != wb["digest"]:
            moved.append(f"state digest: {wa['digest'][:16]} -> {wb['digest'][:16]}")
        for line in moved:
            print(f"CHANGED {line}")
        bad += len(moved)
        print(f"simulator-side layer metrics and digest: {'CHANGED' if moved else 'equal'}")
        if not (wa["correct"] and wb["correct"]):
            print("INCORRECT: an output check failed while measuring")
            bad += 1
    return bad


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="RESULTS.json")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    if args.self_check:
        names = [w["name"] for w in spec["workloads"]]
        a, b = (
            run.suite(spec, names, args.seed, args.seconds, args.scale) for _ in range(2)
        )
    elif len(args.files) == 2:
        a, b = (json.loads(path.read_text()) for path in args.files)
    else:
        parser.error("give two result files, or --self-check")
    for key in ("seed", "seconds", "scale"):
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]} in A and {b[key]} in B")
            return 2
    if not set(a["workloads"]) & set(b["workloads"]):
        print("not comparable: no workload in common")
        return 2
    bad = compare(spec, a, b)
    print(f"{bad} regression(s) or inexact match(es)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
