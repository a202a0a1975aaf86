"""``TranspileProxy.physical_metrics`` as it was: one ``np.interp`` over the
whole calibration table.

The proxy used to calibrate every probe width of a (model, routing class)
table the first time any width was read, then interpolate across all of
them.  ``np.interp`` only ever reads the entry at a probe width, or past
either end, or the two entries around a width, so the proxy now
calibrates and reads just those.  ``tests/test_proxy_entries.py`` holds
it to this full-table form with ``float.hex`` equality.
"""

import numpy as np

__all__ = ["physical_metrics_reference"]


def physical_metrics_reference(metrics, model, table):
    """(physical_2q_gates, physical_1q_gates, duration_ns) interpolated over
    ``table``, the full list of ``ProxyEntry`` for ``model`` and
    ``metrics.routing_class``."""
    widths = np.array([e.width for e in table], dtype=float)
    w = float(min(metrics.num_qubits, widths[-1]))
    swap = float(np.interp(w, widths, [e.swap_inflation for e in table]))
    depth_infl = float(np.interp(w, widths, [e.depth_inflation for e in table]))
    ns_layer = float(np.interp(w, widths, [e.ns_per_2q_layer for e in table]))
    phys_2q = metrics.num_2q_gates * swap
    phys_1q = metrics.num_1q_gates * 2.0 + 6.0 * max(
        0.0, phys_2q - metrics.num_2q_gates
    )
    two_q_depth = max(1.0, metrics.two_qubit_depth * depth_infl)
    duration_ns = two_q_depth * ns_layer + model.readout_duration_ns
    return phys_2q, phys_1q, duration_ns
