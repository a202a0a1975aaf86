"""Fig 6: end-to-end Qonductor vs FCFS (fidelity, JCT, utilization)."""

from conftest import report
from repro.experiments import fig6_end_to_end


def test_fig6_end_to_end(once):
    result = once(fig6_end_to_end)
    report("Fig 6: end-to-end vs FCFS (the paper's hour, drained; seed 5)", result)
    m = result["measured"]
    print(f"  qonductor: {m['qonductor']}")
    print(f"  fcfs:      {m['fcfs']}")
    # Drained: both arms complete every job, so the means below compare
    # the same jobs.
    for arm in ("qonductor", "fcfs"):
        assert m[arm]["completed_jobs"] == m[arm]["dispatched_jobs"]
    # Shape: Qonductor trades a small fidelity drop for lower JCT and
    # higher utilization.  Per job, the drop stays near the paper's 3 %.
    assert m["jct_reduction_pct"] > 0.0
    assert m["utilization_increase_pct"] > 0.0
    assert m["fidelity_drop_pct"] < 4.0
    # Load balance: Qonductor spreads work far more evenly than FCFS's
    # best-device hotspotting (coefficient of variation of busy time).
    assert m["qonductor"]["load_cv"] < m["fcfs"]["load_cv"]
