"""Run the benchmark: one command, every metric by name with its unit.

    python3 bench/run.py [--workload NAME] [--seed 3] [--scale 1.0] [--out FILE]

runs the four workloads (or the named one) one after the other, each
untraced then traced, prints every metric and keeps the result set in
``FILE`` for ``compare.py``.  The driver form ``BENCHMARK.json`` records,

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in one mode and prints, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
- the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Each measurement is a child process (``child.py``) with one thread, no
pools and ``-W error::DeprecationWarning``.  An *operation* is one
arrival; it has failed when the simulator lost it, i.e. it is in none of
dispatched / unschedulable / pending-at-horizon / admission-rejected.
An arrival the admission front door sheds is a correct outcome of
``tenant_outage``; those lower ``served_share`` and are counted in
``tenancy.rejected`` and ``simulator.failed_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: No child may outlive the driver's per-run limit.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(workload: str, seed: int, seconds: float, scale: float, trace: int,
           *extra: str) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("CYCLE_EXECUTOR", "CYCLE_PIPELINE", "ARRAY_BACKEND")
    }
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [
            sys.executable, "-W", "error::DeprecationWarning",
            str(BENCH / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scale", str(scale),
            "--trace", str(trace), *extra,
        ],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _stat(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values), "unit": unit,
        "min": min(values), "max": max(values), "n": len(values),
    }


def measure(spec: dict, workload: str, seed: int, seconds: float, scale: float,
            trace: int) -> dict:
    """One workload, one mode: metrics, checks and the operation counts."""
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    child = _child(workload, seed, seconds, scale, trace)
    problems = []
    if child["lost"]:
        problems.append(f"conservation: {child['lost']} arrivals unaccounted for")
    if not child["digest_stable"]:
        problems.append("state digest differs between repetitions of one seed")
    if trace:
        values = child["layers"]
        if not values["trace.digest_matches"]:
            problems.append("traced run's digest differs from the untraced one")
        metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()}
        (BENCH / "results").mkdir(exist_ok=True)
        (BENCH / "results" / f"{workload}-seed{seed}.json").write_text(
            json.dumps({"layers": values, "spans": child["spans"]}, indent=1) + "\n"
        )
    else:
        setups = [
            child["setup"]["setup_s"],
            *(
                _child(workload, seed, seconds, scale, 0, "--setup-only")["setup"]["setup_s"]
                for _ in range(SETUPS - 1)
            ),
        ]
        metrics = {
            name: _stat([value], units[name])
            for name, value in child["end_to_end"].items()
        }
        metrics["setup_s"] = _stat(setups, units["setup_s"])
        rounds = child["jobs_per_s_rounds"]
        metrics["jobs_per_s"].update(min=min(rounds), max=max(rounds), n=len(rounds))
    if set(metrics) != set(units):
        problems.append(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": child["attempted"], "failed": child["lost"],
        "arrivals": child["arrivals"], "digest": child["digest"],
        "host_slowdown": child["host_slowdown"], "jobs_per_s_raw": child["jobs_per_s_raw"],
        "metrics": metrics,
    }


def show(result: dict) -> None:
    mode = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"# {result['workload']} seed={result['seed']} {mode}  "
          f"arrivals={result['arrivals']} digest={result['digest'][:16]}  "
          f"host at {result['host_slowdown']:.2f}x reference time, "
          f"{result['jobs_per_s_raw']:.6g} jobs/s before correcting for it")
    for name, m in result["metrics"].items():
        spread = (
            f"  [min {m['min']:.6g} max {m['max']:.6g} n={m['n']}]"
            if m.get("n", 1) > 1 else ""
        )
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}{spread}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def fingerprint() -> dict:
    """The host a result set was measured on."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
        ),
    }


def suite(spec: dict, names: list[str], seed: int, seconds: float, scale: float) -> dict:
    """The named workloads, untraced then traced, as one result set."""
    out = {
        "host": fingerprint(), "seed": seed, "seconds": seconds, "scale": scale,
        "workloads": {},
    }
    for name in names:
        plain = measure(spec, name, seed, seconds, scale, 0)
        show(plain)
        traced = measure(spec, name, seed, seconds, scale, 1)
        show(traced)
        out["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "digest": plain["digest"],
            "arrivals": plain["arrivals"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    return out


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: one mode, result as the last line")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration (smoke tests)")
    parser.add_argument("--out", type=Path, help="keep the result set here")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.trace is None:
        chosen = [args.workload] if args.workload else names
        results = suite(spec, chosen, args.seed, args.seconds, args.scale)
        if args.out:
            args.out.write_text(json.dumps(results, indent=1) + "\n")
        return 0 if all(w["correct"] for w in results["workloads"].values()) else 1
    if args.workload is None or args.out:
        parser.error("--trace takes --workload and no --out")

    result = measure(spec, args.workload, args.seed, args.seconds, args.scale, args.trace)
    show(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
