"""Hand-computed oracles for the measuring window of the cloud figures,
and the EXPERIMENTS.md record against ``report``'s table.

Every expected value below is worked out by hand from a two-QPU,
handful-of-jobs scenario; none is read back from the code under test.
"""

from __future__ import annotations

import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud import SimulatedQPU
from repro.cloud.metrics import SimulationMetrics, TimeSeries
from repro.experiments.common import HOUR, busy_within, check_drained, same_jobs_means
from repro.experiments.fig9 import queue_verdict
from repro.experiments.report import EXPERIMENTS

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
        # The samples at 1200, 2400 and 3600 s: (36 + 45 + 42) / 72 / 3.
        assert means["utilization"] == pytest.approx(41 / 72)

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


def test_busy_seconds_are_clipped_at_the_end_of_the_window():
    # a: 1000 + 2000 s dispatched at 0, 1500 s at 3000 -> busy 4500 s,
    #    free at 4500, of which 3600 - 0 = 3600 s fall inside the hour.
    # b: 600 s dispatched at 1800 -> idle from 2400, all 600 s inside.
    a = _device("a", [(0.0, 1000.0), (0.0, 2000.0), (3000.0, 1500.0)])
    b = _device("b", [(1800.0, 600.0)])
    assert (a.busy_seconds, a.free_at, b.free_at) == (4500.0, 4500.0, 2400.0)
    assert busy_within([a, b], HOUR) == {"a": 3600.0, "b": 600.0}


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


def test_experiments_md_gives_every_experiment_a_status():
    text = (pathlib.Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
    sections = dict(re.findall(r"^## (\S+)\n\nStatus: \*([^*]+)\*", text, re.MULTILINE))
    assert list(sections) == list(EXPERIMENTS)
    for exp_id, (_, status, cause) in EXPERIMENTS.items():
        assert status in ("shape holds", "gap explained", "gap open")
        assert sections[exp_id] == status
        assert bool(cause) == (status == "gap explained"), exp_id
