"""Hand-computed oracles for the measuring window of the cloud figures,
Fig. 7b/c's held-out test jobs, and the EXPERIMENTS.md record against
``report``'s table.

Every expected value below is worked out by hand from a two-QPU,
handful-of-jobs scenario; none is read back from the code under test.
"""

from __future__ import annotations

import functools
import pathlib
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud import ExecutionModel, SimulatedQPU
from repro.cloud.metrics import SimulationMetrics, TimeSeries
from repro.estimator import dataset
from repro.experiments import fig7, report
from repro.experiments.common import (
    HOUR,
    busy_within,
    check_drained,
    make_fleet,
    same_jobs_means,
)
from repro.experiments.fig8 import fig8ab_tradeoff, run_scheduling_cycles
from repro.experiments.fig9 import queue_verdict
from repro.experiments.fig10 import exec_ceiling_pct, fig10a_exec_time
from repro.experiments.report import EXPERIMENTS
from repro.workloads import WorkloadSampler

# Two QPUs, four jobs, known service times (seconds):
#   j1 on a: arrives 0,    runs 0-1000,    JCT 1000, fidelity 0.9
#   j2 on a: arrives 0,    runs 1000-3000, JCT 3000, fidelity 0.8
#   j3 on b: arrives 1800, runs 1800-2400, JCT  600, fidelity 0.7
#   j4 on a: arrives 3000, runs 3000-4500, JCT 1500, fidelity 0.6
# sampled every 1200 s, as the simulator samples: running means over the
# jobs completed by t, and utilization as clipped busy seconds / t.
SAMPLE_TIMES = [1200.0, 2400.0, 3600.0, 4800.0]
RUNNING_JCT = [1000.0, (1000 + 600) / 2, (1000 + 600 + 3000) / 3, (4600 + 1500) / 4]
RUNNING_FIDELITY = [0.9, (0.9 + 0.7) / 2, (0.9 + 0.7 + 0.8) / 3, (2.4 + 0.6) / 4]
# a: 1200/1200, 2400/2400, 3600/3600, 4500/4800; b: 0, 600/2400, 600/3600, 600/4800.
UTILIZATION = [(1 + 0) / 2, (1 + 0.25) / 2, (1 + 1 / 6) / 2, (0.9375 + 0.125) / 2]


def _series(values) -> TimeSeries:
    return TimeSeries(times=list(SAMPLE_TIMES), values=list(values))


def _four_job_run() -> SimulationMetrics:
    return SimulationMetrics(
        mean_fidelity=_series(RUNNING_FIDELITY),
        mean_completion_time=_series(RUNNING_JCT),
        mean_utilization=_series(UTILIZATION),
        completed_jobs=4,
        dispatched_jobs=4,
    )


class TestSameJobsMeans:
    def test_means_over_every_job_and_over_the_hour(self):
        means = same_jobs_means(_four_job_run())
        assert means["mean_jct"] == pytest.approx(1525.0)
        assert means["mean_fidelity"] == pytest.approx(0.75)
        # By the end of the hour j1, j2 and j3 have completed.
        assert means["mean_jct_censored"] == pytest.approx(4600 / 3)
        assert means["mean_fidelity_censored"] == pytest.approx(0.8)
        # The sample at 3600 s: a busy all hour, b for 600 of its 3600 s.
        assert means["utilization"] == pytest.approx(7 / 12)

    def test_fidelity_is_the_per_job_mean_not_the_time_average(self):
        # The time-average of the running mean's samples weighs j1 into
        # every sample: (0.9 + 0.8 + 0.8 + 0.75) / 4 = 0.8125.
        assert _four_job_run().mean_fidelity.mean() == pytest.approx(0.8125)
        assert same_jobs_means(_four_job_run())["mean_fidelity"] == pytest.approx(0.75)


class _FixedServiceTimes:
    """An execution model whose jobs run for the time they carry."""

    def execute(self, job, calibration, model, rng):
        return SimpleNamespace(quantum_seconds=job.seconds, fidelity=0.9)


def _device(name: str, jobs: list[tuple[float, float]]) -> SimulatedQPU:
    backend = SimulatedQPU(SimpleNamespace(name=name, calibration=None, model=None))
    for now, seconds in jobs:
        backend.execute(SimpleNamespace(seconds=seconds), now, _FixedServiceTimes(), None)
    return backend


def _four_job_devices() -> list[SimulatedQPU]:
    """The four jobs above, dispatched to their two devices."""
    return [
        _device("a", [(0.0, 1000.0), (0.0, 2000.0), (3000.0, 1500.0)]),
        _device("b", [(1800.0, 600.0)]),
    ]


def test_busy_seconds_are_clipped_at_the_end_of_the_window():
    # a: 1000 + 2000 s dispatched at 0, 1500 s at 3000 -> busy 4500 s,
    #    free at 4500, of which 3600 - 0 = 3600 s fall inside the hour.
    # b: 600 s dispatched at 1800 -> idle from 2400, all 600 s inside.
    a, b = _four_job_devices()
    assert (a.busy_seconds, a.free_at, b.free_at) == (4500.0, 4500.0, 2400.0)
    assert busy_within([a, b], HOUR) == {"a": 3600.0, "b": 600.0}


def test_utilization_is_the_hour_busy_share_not_the_time_average():
    """Fig. 6's utilization is each QPU's busy seconds within the hour
    over the hour, averaged over QPUs: (3600 + 600) / 3600 / 2 = 7/12.
    The time-average of the samples inside the hour, (1/2 + 5/8 + 7/12)
    / 3 = 41/72, weighs the early, emptier samples in."""
    busy = busy_within(_four_job_devices(), HOUR)
    hour_share = sum(seconds / HOUR for seconds in busy.values()) / len(busy)
    assert hour_share == pytest.approx(7 / 12)
    got = same_jobs_means(_four_job_run())["utilization"]
    assert got == pytest.approx(hour_share)
    inside = [u for t, u in zip(SAMPLE_TIMES, UTILIZATION) if t <= HOUR]
    assert sum(inside) / len(inside) == pytest.approx(41 / 72)
    assert got != pytest.approx(41 / 72)


class TestQueueVerdict:
    # Sampled at 600 ... 3000 s plus the end-of-run flush at 3600 s.
    TIMES = (600.0, 1200.0, 1800.0, 2400.0, 3000.0, 3600.0)

    def test_growth_between_halves_beyond_the_margin_is_unbounded(self):
        # First half {40, 60}: mean 50.  Second half {90, 70, 80} (the
        # flush's 0 at 3600 s is outside the hour): mean 80.
        verdict = queue_verdict(self.TIMES, [40, 60, 90, 70, 80, 0], queue_limit=100)
        assert verdict["max_queue"] == 90
        assert verdict["half_growth"] == pytest.approx(30.0)
        assert verdict["bounded"] is False

    def test_a_level_sawtooth_under_the_limit_is_bounded(self):
        # Means 50 and (55 + 45 + 59) / 3 = 53: growth 3 <= 0.1 x 100.
        verdict = queue_verdict(self.TIMES, [40, 60, 55, 45, 59, 0], queue_limit=100)
        assert verdict["max_queue"] == 60
        assert verdict["half_growth"] == pytest.approx(3.0)
        assert verdict["bounded"] is True

    def test_a_queue_above_the_trigger_limit_is_unbounded(self):
        verdict = queue_verdict(
            np.array(self.TIMES), np.array([40, 60, 55, 45, 59, 0]), queue_limit=59
        )
        assert (verdict["max_queue"], verdict["bounded"]) == (60, False)


def test_drain_check_names_figure_arm_rate_and_seed():
    # j4 of the scenario above, cut off by a horizon at 4000 s.
    cut = SimulationMetrics(completed_jobs=3, dispatched_jobs=4)
    with pytest.raises(RuntimeError) as raised:
        check_drained(cut, figure="fig6", arm="fcfs", rate=1500.0, seed=5)
    message = str(raised.value)
    for part in ("fig6", "fcfs arm", "1500 jobs/h", "seed 5", "3 of 4"):
        assert part in message
    check_drained(_four_job_run(), figure="fig6", arm="fcfs", rate=1500.0, seed=5)


def test_exec_ceiling_is_the_median_job_speed_spread():
    """Three devices: 7 qubits at speed 0.8, 27 at 1.0, 65 at 1.6.
    A 5-qubit job fits all three: 1 - 0.8 / 1.6 = 50 %; a 20-qubit job
    the last two: 1 - 1.0 / 1.6 = 37.5 %; a 40-qubit job only the third:
    0 %.  The median of (50, 37.5, 0, 0) is 18.75 (the mean would be
    21.875, the whole fleet's spread 50)."""
    devices = [(7, 0.8), (27, 1.0), (65, 1.6)]
    assert exec_ceiling_pct([5, 20, 40, 40], devices) == pytest.approx(18.75)
    assert exec_ceiling_pct([5, 5, 20], devices) == pytest.approx(50.0)
    assert exec_ceiling_pct([20], devices) == pytest.approx(37.5)


def test_fig8ab_and_fig10a_read_one_run_of_their_cycles():
    """Figs. 8a/b and 10a read the same scheduling cycles: the second
    figure gets the first one's schedules, and its numbers are those of a
    run of its own."""
    kwargs = {"num_cycles": 3, "jobs_per_cycle": 8, "seed": 41}
    run_scheduling_cycles.cache_clear()
    shared = [fig8ab_tradeoff(**kwargs), fig10a_exec_time(**kwargs)]
    info = run_scheduling_cycles.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert run_scheduling_cycles(**kwargs) is run_scheduling_cycles(**kwargs)
    alone = []
    for figure in (fig8ab_tradeoff, fig10a_exec_time):
        run_scheduling_cycles.cache_clear()
        alone.append(figure(**kwargs))
    assert [r["measured"] for r in shared] == [r["measured"] for r in alone]


class _Drawn(Exception):
    """The figure has drawn its test jobs; nothing after matters here."""


def _record_programs(monkeypatch, module, *, stop):
    """Route ``module``'s ``WorkloadSampler`` through a recorder, and
    return the list it fills with each drawn job's program: its circuit's
    metrics fingerprint and its shots.  With ``stop``, ``sample_many``
    raises :class:`_Drawn` once it has drawn."""
    drawn = []

    class Recording(WorkloadSampler):
        def sample(self):
            job = super().sample()
            drawn.append((job.metrics.fingerprint, job.shots))
            return job

        def sample_many(self, count):
            jobs = super().sample_many(count)
            if stop:
                raise _Drawn
            return jobs

    monkeypatch.setattr(module, "WorkloadSampler", Recording)
    return drawn


@functools.cache
def _training_programs():
    """The 800 programs ``trained_estimator(seed=7)`` is trained on."""
    with pytest.MonkeyPatch.context() as mp:
        drawn = _record_programs(mp, dataset, stop=False)
        dataset.generate_dataset(
            make_fleet(seed=7), num_records=800, execution_model=ExecutionModel(seed=7), seed=7
        )
    assert len(drawn) == 800
    return frozenset(drawn)


@pytest.mark.parametrize("seed", [5, 6, 7, 99])
def test_fig7bc_scores_programs_the_estimator_was_not_trained_on(monkeypatch, seed):
    """Fig. 7b/c's estimation error is held out: none of its 250 test jobs
    runs a program of the estimator's training set, at ``report``'s seeds
    and at the figure's default seed."""
    test = _record_programs(monkeypatch, fig7, stop=True)
    with pytest.raises(_Drawn):
        fig7.fig7bc_estimation_error(seed=seed)
    assert len(test) == 250
    shared = set(test) & _training_programs()
    assert not shared, f"{len(shared)} of the test programs are training programs"


def test_experiments_md_gives_every_experiment_a_status():
    text = (pathlib.Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
    sections = dict(re.findall(r"^## (\S+)\n\nStatus: \*([^*]+)\*", text, re.MULTILINE))
    assert list(sections) == list(EXPERIMENTS)
    for exp_id, (_, status, cause) in EXPERIMENTS.items():
        assert status in ("shape holds", "gap explained", "gap open")
        assert sections[exp_id] == status
        assert bool(cause) == (status == "gap explained"), exp_id


class _Exec(Exception):
    pass


def _must_not_run(*args):
    raise AssertionError(f"called with {args}")


class TestReportRunsOnOneBlasThread:
    """EXPERIMENTS.md depends on the BLAS thread count, so ``main()``
    re-executes itself with one thread unless it already has it."""

    def test_reexecutes_with_one_thread(self, monkeypatch):
        calls = []

        def execve(path, argv, env):
            calls.append((path, argv, env))
            raise _Exec

        monkeypatch.setattr(report.os, "execve", execve)
        monkeypatch.setattr(report, "run_all", _must_not_run)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("PYTHONPATH", "src")
        with pytest.raises(_Exec):
            report.main()
        [(path, argv, env)] = calls
        assert path == sys.executable
        assert argv == [sys.executable, "-m", "repro.experiments.report"]
        assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["PYTHONPATH"] == "src"

    def test_runs_in_place_on_one_thread(self, monkeypatch):
        def run_all(seed):
            raise _Exec

        monkeypatch.setattr(report.os, "execve", _must_not_run)
        monkeypatch.setattr(report, "run_all", run_all)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        with pytest.raises(_Exec):
            report.main()
