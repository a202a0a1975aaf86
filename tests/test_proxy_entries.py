"""The transpile proxy calibrates only the entries it interpolates.

* ``physical_metrics`` is held to the full-table ``np.interp`` of
  ``tests/helpers/reference_proxy.py`` with ``float.hex`` equality on every
  width 1–130, every routing class and every model, below, at, between and
  past the probe widths;
* a cold ``trained_estimator(seed=7)`` calibrates exactly 32 entries (60
  probe transpiles), none of them 27 wide;
* a model variant never reads another model's calibration, whichever of
  the two calibrates first.
"""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from helpers.reference_proxy import physical_metrics_reference
from repro.backends import get_model
from repro.circuits.metrics import CircuitMetrics
from repro.cloud import TranspileProxy
from repro.cloud.proxy import _probes_for

MODEL_NAMES = ("falcon_r5_7", "falcon_r5_16", "falcon_r5_27", "eagle_r3_127")

#: A ``max_interaction_degree`` in each routing class.
DEGREE = {"linear": 2, "sparse": 4, "dense": 6}


def _metrics(width: int, cls: str) -> CircuitMetrics:
    return CircuitMetrics(
        num_qubits=width,
        depth=4 * width + 3,
        two_qubit_depth=3 * width + 1,
        size=12 * width + 2,
        num_1q_gates=7 * width + 2,
        num_2q_gates=5 * width,
        num_measurements=width,
        parallelism=1.5,
        max_interaction_degree=DEGREE[cls],
    )


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("cls", TranspileProxy.CLASSES)
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_physical_metrics_equal_the_full_table_interpolation(model_name, cls):
    model = get_model(model_name)
    proxy = TranspileProxy()
    for width in range(1, 131):
        metrics = _metrics(width, cls)
        got = proxy.physical_metrics(metrics, model)
        want = physical_metrics_reference(
            metrics, model, TranspileProxy().table(model, cls)
        )
        assert _hex(got) == _hex(want), (model_name, cls, width)


#: ``(model, class, probe width)`` of every entry a cold
#: ``trained_estimator(seed=7)`` calibrates; the full tables hold 42.
COLD_START_ENTRIES = [
    ("falcon_r5_16", "dense", 4), ("falcon_r5_16", "dense", 8),
    ("falcon_r5_16", "dense", 12), ("falcon_r5_16", "dense", 16),
    ("falcon_r5_16", "linear", 2), ("falcon_r5_16", "linear", 4),
    ("falcon_r5_16", "linear", 8), ("falcon_r5_16", "linear", 12),
    ("falcon_r5_16", "linear", 16), ("falcon_r5_16", "sparse", 4),
    ("falcon_r5_16", "sparse", 8), ("falcon_r5_16", "sparse", 12),
    ("falcon_r5_16", "sparse", 16),
    ("falcon_r5_27", "dense", 4), ("falcon_r5_27", "dense", 8),
    ("falcon_r5_27", "dense", 12), ("falcon_r5_27", "dense", 16),
    ("falcon_r5_27", "dense", 20), ("falcon_r5_27", "linear", 2),
    ("falcon_r5_27", "linear", 4), ("falcon_r5_27", "linear", 8),
    ("falcon_r5_27", "linear", 12), ("falcon_r5_27", "linear", 16),
    ("falcon_r5_27", "linear", 20), ("falcon_r5_27", "sparse", 4),
    ("falcon_r5_27", "sparse", 8), ("falcon_r5_27", "sparse", 12),
    ("falcon_r5_27", "sparse", 16),
    ("falcon_r5_7", "dense", 4), ("falcon_r5_7", "linear", 2),
    ("falcon_r5_7", "linear", 4), ("falcon_r5_7", "sparse", 4),
]


def test_a_cold_start_calibrates_only_what_it_reads():
    script = (
        "from repro.cloud import TranspileProxy\n"
        "from repro.experiments.common import trained_estimator\n"
        "trained_estimator(seed=7)\n"
        "print(sorted((m.name, c, w) for m, c, w in TranspileProxy._SHARED_ENTRIES))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
    )
    entries = ast.literal_eval(out.stdout)
    assert entries == COLD_START_ENTRIES
    assert sum(len(_probes_for(cls, width)) for _, cls, width in entries) == 60
    assert all(width < 27 for _, _, width in entries)


BASE = get_model("falcon_r5_7")

#: One variant of ``BASE`` per calibration input the name does not fix.
VARIANTS = {
    "coupling": replace(BASE, coupling=tuple((q, q + 1) for q in range(6))),
    "basis_gates": replace(BASE, basis_gates=("rz", "sx", "x", "ecr")),
    "readout_duration_ns": replace(BASE, readout_duration_ns=1500.0),
}


def _readings(proxy, model):
    """Every table entry and one ``physical_metrics`` per routing class."""
    return [
        (
            [(e.width, e.swap_inflation, e.depth_inflation, e.ns_per_2q_layer)
             for e in proxy.table(model, cls)],
            _hex(proxy.physical_metrics(_metrics(3, cls), model)),
        )
        for cls in TranspileProxy.CLASSES
    ]


@pytest.mark.parametrize("base_first", [True, False], ids=["base-first", "variant-first"])
@pytest.mark.parametrize("field", sorted(VARIANTS))
def test_a_model_variant_reads_its_own_calibration(field, base_first, monkeypatch):
    variant = VARIANTS[field]
    cold = {}
    for model in (BASE, variant):
        monkeypatch.setattr(TranspileProxy, "_SHARED_ENTRIES", {})
        cold[model] = _readings(TranspileProxy(), model)
    monkeypatch.setattr(TranspileProxy, "_SHARED_ENTRIES", {})
    proxy = TranspileProxy()
    for model in (BASE, variant) if base_first else (variant, BASE):
        assert _readings(proxy, model) == cold[model], field
    # Two models x three classes x two probe widths, none shared.
    assert len(TranspileProxy._SHARED_ENTRIES) == 12
