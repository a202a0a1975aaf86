"""One measured child process: timed set-up, warm-up, timed repetitions.

Started by ``run.py`` with a scrubbed environment and
``-W error::DeprecationWarning``; prints one JSON object on stdout.

Protocol: timed set-up (import + ``trained_estimator(seed=7)`` + one
fleet/simulator build) -> one untimed warm-up at 10% duration -> rounds
of timed repetitions for ``--seconds``.  A round runs each of the run's
``TRAFFIC_SEEDS`` traffic seeds once, every repetition on a **fresh**
simulator, policy and ``estimator.cached()`` (users pay the cold
estimate cache every run), ``gc.collect()`` before each.  With
``--trace 1`` every untraced repetition is followed by a traced one on
the same traffic seed, so the traced numbers sit next to the untraced
wall they have to explain.

Repetition times are reported at reference host speed: the arrival
stream handed to ``run`` times a fixed reference kernel every
``PROBE_GAP_S`` of wall time, the probes' own time is taken out, and the
repetition's wall is divided by how much slower than ``PROBE_S`` the
kernel ran meanwhile (README.md, "Host speed").  Set-up times are
corrected the same way from probes between the set-up's phases.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Set-up time counts from here: everything below that a user of the
#: library would also import (numpy, scipy, repro).
_T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Traffic seeds per run: ``--seed n`` offers the streams of seeds
#: ``1000 n .. 1000 n + TRAFFIC_SEEDS - 1``.  One stream of this length
#: is too short for its simulated means to say much about the next seed's
#: (over single streams of qonductor_bursty the mean JCT spreads by 17% of
#: its median), so a run reports the mean over several.
TRAFFIC_SEEDS = 6

#: Wall time between two host-speed probes inside a repetition.
PROBE_GAP_S = 0.025

#: Seconds one probe takes on the host the benchmark was written on, in
#: its quiet state.  It only fixes the unit: with any other value every
#: repetition time scales by the same factor on every commit.
PROBE_S = 0.00072


def probe_seconds() -> float:
    """Time the reference kernel: interpreter work (arithmetic, a dict)
    and small-array NumPy calls, the two things the simulator's layers are
    made of.  Nothing of ``repro`` is in it, so a PR cannot speed it up."""
    import numpy as np

    vector = np.arange(500.0)
    matrix = np.ones((32, 32))
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(6000):
        acc += i * i % 7
        seen[i & 255] = acc
    for _ in range(40):
        np.argsort(np.cumsum(vector * 1.0001)[:100])
        np.matmul(matrix, matrix[:, :8])
    return time.perf_counter() - t0


def _slowdown(probes: list[float]) -> float:
    """How much slower than ``PROBE_S`` the host ran while ``probes`` were
    taken.  Probes are evenly spaced in wall time and work done per unit
    of wall is 1/slowdown, so this is the harmonic mean of theirs."""
    return 1.0 / statistics.fmean(PROBE_S / p for p in probes)


@dataclass
class Repetition:
    """One ``sim.run(stream)`` and what the bench saw around it."""

    #: Wall of ``sim.run(stream)`` without the probes inside it.
    wall: float
    #: ``_slowdown`` of the probes inside it.
    slowdown: float
    arrivals: int
    lost: int
    digest: str
    metrics: object
    tracer: object | None

    @property
    def seconds(self) -> float:
        """Wall at reference host speed."""
        return self.wall / self.slowdown


def _setup(args) -> tuple[dict, object, object]:
    """Import, train, build — what a user pays before the first event.

    The phases are timed one by one with a burst of probes after each
    (NumPy is imported first, on the clock, because the probe needs it),
    and reported at reference host speed like the repetitions."""
    probes: list[float] = []
    phases: list[float] = []
    resumed = _T_START

    def phase_done() -> None:
        nonlocal resumed
        phases.append(time.perf_counter() - resumed)
        probe_seconds()  # the first probe after other work reads slow
        probes.extend(probe_seconds() for _ in range(10))
        resumed = time.perf_counter()

    import numpy  # noqa: F401

    phase_done()
    import workloads

    import repro
    from repro.experiments.common import trained_estimator

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    phase_done()
    estimator = trained_estimator(seed=7)
    phase_done()
    workload = workloads.WORKLOADS[args.workload]
    workload.build(
        args.seed, workload.duration_seconds * args.scale, estimator, "serial"
    )
    phase_done()
    slowdown = _slowdown(probes)
    setup = {
        "setup.import_s": (phases[0] + phases[1]) / slowdown,
        "setup.train_s": phases[2] / slowdown,
        "setup.build_s": phases[3] / slowdown,
        "setup_s": sum(phases) / slowdown,
    }
    return setup, workload, estimator


def _counted(stream, counter: list[int]):
    """The bench's own arrival count, for the conservation check."""
    for app in stream:
        counter[0] += 1
        yield app


def _probed(stream, probe, probes: list[float]):
    """The stream as handed to ``run``: every ``PROBE_GAP_S`` of wall time,
    between two arrivals, it times the reference kernel."""
    clock = time.perf_counter
    due = clock() + PROBE_GAP_S
    for app in stream:
        if clock() >= due:
            probes.append(probe())
            due = clock() + PROBE_GAP_S
        yield app


def _repetition(workload, seed, duration, estimator, traced=False) -> Repetition:
    """One ``sim.run(stream)`` on fresh objects; stream consumption is
    inside the timed region, construction is not."""
    gc.collect()
    tracer = None
    executor = "serial"
    if traced:
        from tracing import PROBE, TimingSerialExecutor, Tracer

        tracer = Tracer()
        executor = TimingSerialExecutor(tracer)
    stream, sim = workload.build(seed, duration, estimator, executor)
    counter, probes = [0], []
    stream = _counted(stream, counter)
    t0 = time.perf_counter()
    if tracer is None:
        metrics = sim.run(_probed(stream, probe_seconds, probes))
    else:
        probe = tracer.wrap(PROBE, probe_seconds)
        with tracer.patched(sim):
            metrics = tracer.run(sim, _probed(tracer.stream(stream), probe, probes))
    wall = time.perf_counter() - t0 - sum(probes)
    if not probes:  # a smoke-test run shorter than the gap
        probes.append(probe_seconds())
    accounted = (
        metrics.dispatched_jobs
        + metrics.unschedulable_jobs
        + metrics.pending_at_horizon
        + metrics.admission_rejected
    )
    return Repetition(
        wall=wall,
        slowdown=_slowdown(probes),
        arrivals=counter[0],
        lost=abs(counter[0] - accounted),
        digest=hashlib.sha256(
            repr(metrics.deterministic_state()).encode()
        ).hexdigest(),
        metrics=metrics,
        tracer=tracer,
    )


def _rounds(args, workload, estimator) -> list[list[Repetition]]:
    """Timed repetitions, per traffic seed in round order, until one more
    round would overrun ``--seconds``.  Untraced runs make at least two
    rounds: the digest check needs every stream twice."""
    duration = workload.duration_seconds * args.scale
    seeds = [1000 * args.seed + k for k in range(TRAFFIC_SEEDS)]
    _repetition(workload, seeds[0], duration * 0.1, estimator)

    per_seed: list[list[Repetition]] = [[] for _ in seeds]
    started = time.perf_counter()
    rounds = 0
    while True:
        for reps, seed in zip(per_seed, seeds):
            for traced in (False, True)[: 1 + args.trace]:
                reps.append(_repetition(workload, seed, duration, estimator, traced))
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= 2 - args.trace and elapsed + elapsed / rounds > args.seconds:
            return per_seed


def _middle(reps: list[Repetition]) -> Repetition:
    """The repetition with the (lower) median time: one real repetition,
    so a traced one's self times still add up to its run time."""
    return sorted(reps, key=lambda r: r.seconds)[(len(reps) - 1) // 2]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup, workload, estimator = _setup(args)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    per_seed = _rounds(args, workload, estimator)
    untraced = [[r for r in reps if r.tracer is None] for reps in per_seed]
    traced = [[r for r in reps if r.tracer is not None] for reps in per_seed]
    every = [r for reps in per_seed for r in reps]
    firsts = [reps[0] for reps in untraced]
    arrivals = sum(r.arrivals for r in firsts)
    seconds = sum(statistics.median(r.seconds for r in reps) for reps in untraced)
    summaries = [r.metrics.summary() for r in firsts]

    def mean(read) -> float:
        return statistics.fmean(read(s) for s in summaries)

    failed = sum(
        r.metrics.unschedulable_jobs + r.metrics.admission_rejected + r.lost
        for r in firsts
    )
    digest_stable = all(r.digest == reps[0].digest for reps in untraced for r in reps)
    out = {
        "setup": setup,
        "arrivals": arrivals,
        "attempted": sum(r.arrivals for r in every),
        "lost": sum(r.lost for r in every),
        "digest": hashlib.sha256(
            "".join(r.digest for r in firsts).encode()
        ).hexdigest(),
        "digest_stable": digest_stable,
        # One throughput per round, for the spread compare.py wants.
        "jobs_per_s_rounds": [
            arrivals / sum(r.seconds for r in column) for column in zip(*untraced)
        ],
        "jobs_per_s_raw": arrivals / sum(
            statistics.median(r.wall for r in reps) for reps in untraced
        ),
        "host_slowdown": statistics.median(r.slowdown for r in every),
        "end_to_end": {
            "jobs_per_s": arrivals / seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_mean_jct_s": mean(lambda s: s["final_mean_jct"]),
            "sim_mean_fidelity": mean(lambda s: s["mean_fidelity"]),
            "sim_mean_utilization": mean(lambda s: s["mean_utilization"]),
            # Jain's index of per-QPU busy seconds, 1 / (1 + cv^2): the
            # bounded form of Fig. 8c's load CV, which is too close to 0
            # on qonductor_bursty to hold a relative bound.
            "sim_load_balance": mean(lambda s: 1.0 / (1.0 + s["load_cv"] ** 2)),
            "served_share": 1.0 - failed / arrivals,
            "state_digest_stable": float(digest_stable),
        },
    }
    if args.trace:
        from tracing import layer_metrics

        chosen = [_middle(reps) for reps in traced]
        layers = layer_metrics(chosen)
        layers["trace.overhead_pct"] = 100.0 * (
            sum(r.seconds for r in chosen) / seconds - 1.0
        )
        layers["trace.digest_matches"] = int(all(
            r.digest == reps[0].digest for reps in per_seed for r in reps
        ))
        layers.update({k: v for k, v in setup.items() if k.startswith("setup.")})
        out["layers"] = layers
        out["spans"] = {
            name: {
                "calls": sum(r.tracer.calls[name] for r in chosen),
                "total_s": sum(r.tracer.total[name] / r.slowdown for r in chosen),
                "self_s": sum(r.tracer.self_time[name] / r.slowdown for r in chosen),
            }
            for name in sorted({n for r in chosen for n in r.tracer.calls})
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
