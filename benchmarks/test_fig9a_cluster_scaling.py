"""Fig 9(a): mean JCT vs quantum cluster size (4/8/16 QPUs)."""

from conftest import report
from repro.experiments import fig9a_cluster_scaling


def test_fig9a_cluster_scaling(once):
    result = once(fig9a_cluster_scaling)
    report("Fig 9a: JCT vs cluster size (the paper's hour, drained; seed 5)", result)
    m = result["measured"]
    print(f"  mean JCT by size: {m['mean_jct_by_size']}")
    jcts = m["mean_jct_by_size"]
    sizes = sorted(jcts)
    # More QPUs -> lower JCT, monotonically (paper: -52.8 % and -81 %).
    assert jcts[sizes[-1]] < jcts[sizes[0]]
    assert m["improvement_4_to_16_pct"] > m["improvement_4_to_8_pct"] > 0.0
