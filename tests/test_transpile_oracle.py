"""``transpile`` against the networkx passes it was written on.

``tests/helpers/reference_transpile.py`` keeps ``distance_matrix``,
``route``, ``_interaction_path``, ``linear_path_layout`` and
``noise_aware_layout`` on ``networkx.Graph``.  ``src/`` is held to them
(``hop_distances`` to ``distance_matrix``) with ``==`` only, on three sets
of inputs:

* the 79 probe circuits behind ``TranspileProxy``'s full tables for the
  three models of ``default_fleet(seed=7)`` (on the calibration target and
  on a calibrated device of the same model), plus circuits with barriers,
  delays, measurements and resets;
* the nine calibration tables, as literals captured at 3c00b6c;
* a derandomized property over random couplings (duplicate edges, both
  orientations, disconnected parts) and random circuits — equal results
  or the same error.

The guards at the end keep networkx out of ``src/``: it is a test
dependency, used only by this oracle and ``tests/helpers/reference_workflow.py``.
Beside them, scipy stays out of ``src/`` too: it is a test dependency of
the ridge oracle and ``test_transpiler.py``.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from helpers import reference_transpile as ref
from repro.backends import default_fleet
from repro.circuits import Circuit
from repro.cloud.proxy import TranspileProxy, _probes_for
from repro.simulation.noise import GateNoise, NoiseModel, QubitNoise
from repro.transpiler import (
    Target,
    linear_path_layout,
    noise_aware_layout,
    route,
    transpile,
)
from repro.transpiler.routing import hop_distances, neighbour_lists
from repro.workloads import ghz

FLEET = default_fleet(seed=7)
MODELS = {}
DEVICES = {}
for _qpu in FLEET:
    MODELS.setdefault(_qpu.model.name, _qpu.model)
    DEVICES.setdefault(_qpu.model.name, _qpu)


def _calibration_target(model):
    """The target ``TranspileProxy`` calibrates ``model``'s entries on."""
    nm = NoiseModel.uniform(
        model.num_qubits,
        edges=list(model.coupling),
        duration_2q_ns=model.duration_2q_ns,
        duration_1q_ns=model.duration_1q_ns,
    )
    return Target(model.num_qubits, model.coupling, model.basis_gates, nm)


def _targets(model_name):
    return {
        "calibration": _calibration_target(MODELS[model_name]),
        "device": Target.from_backend(DEVICES[model_name]),
    }


def _probes(model, cls):
    return [
        probe
        for width in TranspileProxy.PROBE_WIDTHS
        if width <= model.num_qubits
        for probe in _probes_for(cls, width)
    ]


def _summary(res):
    return ref.summarize(
        res.circuit,
        res.initial_mapping,
        res.final_mapping,
        res.num_swaps,
        res.schedule,
        res.duration_ns,
    )


def _structural_circuits():
    """Every pseudo-op the pipeline passes through: barriers (full and
    partial), delays, mid-circuit measurement and reset."""
    return [
        Circuit(5)
        .h(0)
        .cx(0, 3)
        .barrier()
        .delay(100.0, 2)
        .cx(1, 4)
        .reset(3)
        .measure_all(),
        Circuit(4)
        .h(0)
        .barrier(0, 2)
        .cx(0, 2)
        .measure(2)
        .cx(2, 3)
        .reset(0)
        .rzz(0.3, 3, 0)
        .delay(40.0, 1),
        Circuit(6).h(0).cx(0, 5).cz(5, 2).swap(1, 4).barrier(3).measure(5),
        Circuit(5, "ghz_5^2").compose(ghz(5)).compose(ghz(5)),
    ]


CELLS = [
    pytest.param(model_name, cls, kind, id=f"{model_name}-{cls}-{kind}")
    for model_name in sorted(MODELS)
    for cls in TranspileProxy.CLASSES
    for kind in ("calibration", "device")
]


class TestProbesEqualTheReference:
    def test_the_probe_set_is_what_calibration_runs(self):
        assert sum(
            len(_probes(model, cls))
            for model in MODELS.values()
            for cls in TranspileProxy.CLASSES
        ) == 79

    @pytest.mark.parametrize("model_name, cls, kind", CELLS)
    def test_op_for_op(self, model_name, cls, kind):
        target = _targets(model_name)[kind]
        for probe in _probes(MODELS[model_name], cls):
            assert _summary(transpile(probe, target)) == ref.reference_transpile(
                probe, target
            ), probe.name

    @pytest.mark.parametrize("kind", ["calibration", "device"])
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_pseudo_ops(self, model_name, kind):
        target = _targets(model_name)[kind]
        for circuit in _structural_circuits():
            if circuit.num_qubits > target.num_qubits:
                continue
            assert _summary(transpile(circuit, target)) == ref.reference_transpile(
                circuit, target
            ), circuit.name


#: ``[(width, swap_inflation, depth_inflation, ns_per_2q_layer), ...]`` of
#: ``TranspileProxy()._calibrate(model, cls)`` at 3c00b6c.
_TABLES = {
    ("falcon_r5_16", "linear"): [
        (2, 1.0, 1.0, 375.0),
        (4, 1.0, 1.0, 352.16666666666663),
        (8, 1.0, 1.0, 336.70634920634916),
        (12, 1.0, 1.0, 331.3461538461538),
        (16, 6.7, 6.394117647058824, 321.01967799642216),
    ],
    ("falcon_r5_16", "sparse"): [
        (2, 1.5, 1.5, 413.75),
        (4, 1.5, 1.5, 375.41666666666663),
        (8, 5.055555555555555, 5.875, 322.6837474120083),
        (12, 6.960294117647059, 9.144444444444446, 322.48337765957444),
        (16, 7.8689839572192515, 11.366071428571429, 321.8930895997784),
    ],
    ("falcon_r5_16", "dense"): [
        (2, 1.75, 1.75, 356.5),
        (4, 2.375, 3.0, 337.125),
        (8, 5.025, 7.035714285714286, 322.97260522496373),
        (12, 7.37962962962963, 11.875, 320.58333333333337),
        (16, 6.7703125, 14.664583333333333, 320.6551849418697),
    ],
    ("falcon_r5_27", "linear"): [
        (2, 1.0, 1.0, 375.0),
        (4, 1.0, 1.0, 352.16666666666663),
        (8, 1.0, 1.0, 336.70634920634916),
        (12, 1.0, 1.0, 331.3461538461538),
        (16, 1.0, 1.0, 328.5980392156863),
        (20, 1.0, 1.0, 326.9235588972431),
        (27, 8.701923076923077, 8.31043956043956, 320.5646430698545),
    ],
    ("falcon_r5_27", "sparse"): [
        (2, 1.5, 1.5, 413.75),
        (4, 1.5, 1.5, 375.41666666666663),
        (8, 6.322222222222223, 9.196428571428571, 321.47222222222223),
        (12, 6.6911764705882355, 11.21111111111111, 322.46350816427514),
        (16, 9.72192513368984, 14.205357142857142, 322.11362814252124),
        (20, 10.588888888888889, 20.180555555555557, 321.09136830911024),
        (27, 13.458333333333332, 30.625, 320.5815474009851),
    ],
    ("falcon_r5_27", "dense"): [
        (2, 1.75, 1.75, 356.5),
        (4, 2.375, 3.0, 337.125),
        (8, 5.3625, 8.821428571428571, 321.4707949897751),
        (12, 8.810185185185185, 20.37878787878788, 320.5653574645661),
        (16, 9.68421052631579, 28.7875, 320.49334370547155),
        (20, 11.605442176870747, 38.4, 320.5729166666667),
        (27, 12.80377358490566, 47.925925925925924, 320.5564142194745),
    ],
    ("falcon_r5_7", "linear"): [
        (2, 1.0, 1.0, 375.0),
        (4, 1.0, 1.0, 352.16666666666663),
    ],
    ("falcon_r5_7", "sparse"): [
        (2, 1.5, 1.5, 413.75),
        (4, 1.5, 1.5, 375.41666666666663),
    ],
    ("falcon_r5_7", "dense"): [
        (2, 1.75, 1.75, 356.5),
        (4, 2.375, 3.0, 337.125),
    ],
}

#: sha256 over the ``repr`` of every calibration transpile's summary (the
#: 79 probes, in ``_TABLES`` order) at 3c00b6c: the ops, mappings and
#: schedule behind the tables, decomposition included.
_PROBE_DIGEST = "13f664c085daf769eb969f4f369bd20500cf58f33e8c753abc147a733f09718b"


class TestCalibrationTablesArePinned:
    @pytest.mark.parametrize("model_name, cls", list(_TABLES))
    def test_table(self, model_name, cls):
        table = TranspileProxy().table(MODELS[model_name], cls)
        assert [
            (e.width, e.swap_inflation, e.depth_inflation, e.ns_per_2q_layer)
            for e in table
        ] == _TABLES[model_name, cls]

    def test_probe_transpiles(self):
        summaries = []
        for model_name, cls in _TABLES:
            target = _calibration_target(MODELS[model_name])
            summaries += [
                _summary(transpile(probe, target))
                for probe in _probes(MODELS[model_name], cls)
            ]
        digest = hashlib.sha256(repr(summaries).encode()).hexdigest()
        assert digest == _PROBE_DIGEST


# ----------------------------------------------------------------------
# Random couplings x random circuits
# ----------------------------------------------------------------------

_1Q = ("h", "x", "sx", "t", "rz", "ry")
_2Q = ("cx", "cz", "swap", "rzz")
_ANGLES = (0.0, 0.3, 1.5707963267948966, 2.1)
_ERRORS = (0.004, 0.008, 0.02)


@st.composite
def problems(draw):
    """A coupling over ``n`` physical qubits (half of them connected), a
    noise model with a few
    distinct link and readout qualities (so quality ties happen and are
    broken), and a circuit no wider than ``n``."""
    n = draw(st.integers(2, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    coupling = draw(st.lists(edge, max_size=2 * n))
    if draw(st.booleans()):  # a spanning chain among the edges: connected
        chain = draw(st.permutations(range(n)))
        coupling = draw(st.permutations(coupling + list(zip(chain, chain[1:]))))
    nm = NoiseModel.uniform(n, edges=coupling)
    for a, b in coupling:
        err = draw(st.sampled_from(_ERRORS))
        nm.gates_2q[(min(a, b), max(a, b))] = GateNoise(err, 300.0)
    for q in range(n):
        r = draw(st.sampled_from((0.01, 0.015, 0.03)))
        nm.qubits[q] = QubitNoise(150.0, 110.0, r, r)

    width = draw(st.integers(1, n))
    circuit = Circuit(width, "random")
    wires = st.integers(0, width - 1)
    # Chains and rings over a shuffled register take the path layout.
    shape = draw(st.sampled_from(("random", "chain", "ring")))
    if shape != "random" and width >= 2:
        order = draw(st.permutations(range(width)))
        pairs = list(zip(order, order[1:]))
        if shape == "ring" and width >= 3:
            pairs.append((order[-1], order[0]))
        for a, b in pairs * draw(st.integers(1, 2)):
            circuit.add(draw(st.sampled_from(_2Q[:2])), [a, b])
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(("1q", "2q", "2q", "pseudo")))
        if shape != "random" and kind == "2q":
            kind = "1q"
        if kind == "2q" and width >= 2:
            a = draw(wires)
            b = draw(wires.filter(lambda q, a=a: q != a))
            name = draw(st.sampled_from(_2Q))
            params = (draw(st.sampled_from(_ANGLES)),) if name == "rzz" else ()
            circuit.add(name, [a, b], *params)
        elif kind == "pseudo":
            name = draw(st.sampled_from(("measure", "reset", "barrier", "delay")))
            if name == "barrier":
                circuit.barrier(*sorted(draw(st.sets(wires, max_size=width))))
            elif name == "delay":
                circuit.delay(draw(st.sampled_from((10.0, 250.0))), draw(wires))
            else:
                circuit.add(name, [draw(wires)])
        else:
            name = draw(st.sampled_from(_1Q))
            params = (draw(st.sampled_from(_ANGLES)),) if name in ("rz", "ry") else ()
            circuit.add(name, [draw(wires)], *params)
    return coupling, nm, circuit


def _outcome(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the error is the outcome
        return ("raised", type(exc), str(exc))


def _layout_items(layout):
    return None if layout is None else list(layout.logical_to_physical.items())


def _routed(routed):
    return (
        [(g.name, g.qubits, g.params) for g in routed.circuit.ops],
        list(routed.initial_mapping.items()),
        list(routed.final_mapping.items()),
        routed.num_swaps,
    )


class TestRandomCouplings:
    @settings(
        derandomize=True,
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(problems())
    def test_every_pass_equals_the_reference(self, problem):
        coupling, nm, circuit = problem
        n = nm.num_qubits
        assert np.array_equal(
            np.array(hop_distances(neighbour_lists(coupling, n)), dtype=float),
            ref.distance_matrix(coupling, n),
        )
        assert _outcome(
            lambda: _layout_items(linear_path_layout(circuit, coupling, nm, n))
        ) == _outcome(
            lambda: _layout_items(ref.linear_path_layout(circuit, coupling, nm, n))
        )
        assert _outcome(
            lambda: _layout_items(noise_aware_layout(circuit, coupling, nm, n))
        ) == _outcome(
            lambda: _layout_items(ref.noise_aware_layout(circuit, coupling, nm, n))
        )
        assert _outcome(lambda: _routed(route(circuit, coupling, n))) == _outcome(
            lambda: _routed(ref.route(circuit, coupling, n))
        )
        target = Target(n, tuple(coupling), ("rz", "sx", "x", "cx"), nm)
        assert _outcome(lambda: _summary(transpile(circuit, target))) == _outcome(
            lambda: ref.reference_transpile(circuit, target)
        )


# ----------------------------------------------------------------------
# Guards: networkx and scipy stay out of src/
# ----------------------------------------------------------------------

SRC = Path(repro.__file__).parent


def _imports(path, package, *, module_level=False):
    """Lines of ``path`` that import ``package``, in either form; with
    ``module_level`` only those outside every function body."""
    tree = ast.parse(path.read_text())
    on_use = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        if module_level and id(node) in on_use:
            continue
        if any(name.split(".")[0] == package for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def _importing(package, **kwargs):
    return [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if _imports(path, package, **kwargs)
    ]


def _run_with_blocked(package, setup=""):
    """stdout of a child that blocks ``package``, imports every ``repro``
    subpackage, runs ``setup`` and then one ``Qonductor.invoke``.  A None
    entry in ``sys.modules`` makes every import of it raise ImportError."""
    subpackages = sorted(p.name for p in SRC.iterdir() if (p / "__init__.py").is_file())
    assert len(subpackages) > 10
    script = (
        "import importlib, sys\n"
        f"sys.modules[{package!r}] = None\n"
        f"for name in {subpackages!r}:\n"
        "    importlib.import_module('repro.' + name)\n"
        f"{setup}"
        "from repro.backends import default_fleet\n"
        "from repro.orchestrator import Qonductor\n"
        "from repro.workloads import ghz_linear\n"
        "qon = Qonductor(default_fleet(seed=7, names=['lagos']), "
        "estimator_records=200, seed=0)\n"
        "key = qon.create_workflow([qon.classical_step(name='pre', seconds=0.5), "
        "qon.quantum_step(ghz_linear(3), name='q', shots=500)], name='w')\n"
        "print(qon.workflow_status(qon.invoke(key)))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout


class TestNetworkxOutOfSrc:
    def test_no_src_module_imports_it(self):
        # Four at 3c00b6c: backends/models.py, transpiler/layout.py,
        # transpiler/routing.py and orchestrator/workflow.py.
        assert _importing("networkx") == []

    def test_guard_sees_every_import_form(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text(
            "import networkx as nx\n"
            "from networkx.algorithms import dag\n"
            "def f():\n"
            "    import networkx\n"
            "import networkxx\n"
            "from . import networkx\n"
        )
        assert _imports(sample, "networkx") == [
            "sample.py:1",
            "sample.py:2",
            "sample.py:4",
        ]
        assert _imports(sample, "networkx", module_level=True) == [
            "sample.py:1",
            "sample.py:2",
        ]

    def test_repro_runs_with_networkx_blocked(self):
        # The cycle executor is serial, so no subpackage needs
        # multiprocessing either.
        setup = "assert 'multiprocessing' not in sys.modules\n"
        assert _run_with_blocked("networkx", setup).strip() == "completed"


class TestScipyOutOfSrc:
    """``src/`` runs on numpy alone; scipy is in the dev extra, for test
    oracles only."""

    def test_no_src_module_imports_it(self):
        # ml/linear.py and ml/model_selection.py imported scipy.linalg at
        # module level until training moved to np.linalg;
        # mitigation/extrapolation.py (an exponential fit) and
        # mitigation/rem.py (a non-negative least-squares REM mode)
        # imported scipy.optimize on use until both were deleted.
        assert _importing("scipy") == []

    def test_cold_start_and_invoke_run_with_scipy_blocked(self):
        setup = (
            "from repro.experiments.common import trained_estimator\n"
            "trained_estimator(seed=7)\n"
        )
        assert _run_with_blocked("scipy", setup).strip() == "completed"
