"""Fig 9(b): scheduler queue stability up to 3x the IBM load."""

from conftest import report
from repro.experiments import fig9b_load_scaling


def test_fig9b_load_scaling(once):
    result = once(fig9b_load_scaling)
    report("Fig 9b: queue stability vs load (the paper's hour; seed 5)", result)
    for rate, info in result["measured"]["per_rate"].items():
        print(f"  {rate} j/h: max_queue={info['max_queue']} "
              f"half_growth={info['half_growth']:+.1f} bounded={info['bounded']} "
              f"unfinished={info['unfinished_share']:.0%}")
    print(f"  fleet saturated from {result['measured']['saturated_from_rate']} j/h")
    # The scheduler must remain stable at 3x the baseline load.
    assert result["measured"]["stable_up_to_rate"] >= 4500
