"""Fig 8(c): per-QPU load at 1500/3000/4500 jobs/hour."""

from conftest import report
from repro.experiments import fig8c_load_balance


def test_fig8c_load_balance(once):
    result = once(fig8c_load_balance)
    report("Fig 8c: QPU load balance (the paper's hour; seed 5)", result)
    for rate, info in result["measured"]["per_rate"].items():
        print(f"  {rate} j/h: spread27q={info['load_spread_pct_27q']:.1f}% "
              f"cv={info['load_cv']:.2f} used={info['qpus_used']}/8 "
              f"loads={info['per_qpu_busy_seconds']}")
    # Busy seconds count only the work inside the hour.
    for info in result["measured"]["per_rate"].values():
        assert max(info["per_qpu_busy_seconds"].values()) <= 3600.0
    # Balance improves as load saturates the fleet: the spread across the
    # five same-model 27q devices shrinks monotonically with offered load,
    # and at the saturated point every QPU carries work. (The paper's
    # fleet saturates at 1500 j/h; ours serves about 2,300 jobs/h on its
    # 8 QPUs, so the paper-comparable operating point is the top rate —
    # see EXPERIMENTS.md.)
    rates = result["measured"]["per_rate"]
    ordered = [rates[r]["load_spread_pct_27q"] for r in sorted(rates)]
    assert ordered[-1] < ordered[0]  # spread shrinks with load
    assert ordered[-1] < 95.0
    top = rates[max(rates)]
    assert top["qpus_used"] == 8
