"""QPU model (processor-type) definitions.

A *model* is what the paper calls a template's architecture: qubit count,
coupling map, basis gate set, and baseline noise figures. IBM offers only a
few models at a time (§6: "up to three"), which is exactly why template-QPU
estimation scales.

The 27-qubit Falcon coupling map is the real IBM heavy-hex layout used by
cairo/hanoi/kolkata/mumbai/algiers/auckland. Larger models use a generated
heavy-hex-like lattice (degree <= 3), preserving the sparsity and routing
behaviour of the real devices.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QPUModel", "MODELS", "falcon27_coupling", "heavy_hex_like", "get_model"]


def falcon27_coupling() -> list[tuple[int, int]]:
    """The IBM 27-qubit Falcon heavy-hex coupling map."""
    return [
        (0, 1), (1, 2), (2, 3), (3, 5), (4, 1), (5, 8), (6, 7), (7, 10),
        (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
        (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
        (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
    ]


def falcon7_coupling() -> list[tuple[int, int]]:
    """7-qubit Falcon (H-shape) coupling: lagos/nairobi layout."""
    return [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]


def falcon16_coupling() -> list[tuple[int, int]]:
    """16-qubit Falcon (guadalupe) heavy-hex coupling."""
    return [
        (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
        (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
        (13, 14),
    ]


def heavy_hex_like(num_qubits: int) -> list[tuple[int, int]]:
    """Heavy-hex-flavoured lattice for synthetic large models.

    Two parallel chains with sparse rungs every 4 qubits: every vertex has
    degree <= 3 and the diameter grows like the real heavy-hex lattice, so
    routing overheads behave comparably.
    """
    if num_qubits < 4:
        return [(i, i + 1) for i in range(num_qubits - 1)]
    half = num_qubits // 2
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(half + i, half + i + 1) for i in range(num_qubits - half - 1)]
    for i in range(0, half, 4):
        j = half + i
        if j < num_qubits:
            edges.append((i, j))
    return edges


@dataclass(frozen=True)
class QPUModel:
    """Static architecture description of a processor type."""

    name: str
    num_qubits: int
    coupling: tuple[tuple[int, int], ...]
    basis_gates: tuple[str, ...] = ("rz", "sx", "x", "cx")
    # Baseline noise figures the calibration sampler perturbs:
    base_t1_us: float = 150.0
    base_t2_us: float = 110.0
    base_error_1q: float = 2.5e-4
    base_error_2q: float = 8.5e-3
    base_readout_error: float = 1.5e-2
    duration_1q_ns: float = 35.0
    duration_2q_ns: float = 320.0
    readout_duration_ns: float = 780.0
    price_per_hour: float = 4500.0  # Table 1: QPU-hour 3000-6000 $


MODELS: dict[str, QPUModel] = {
    "falcon_r5_27": QPUModel(
        name="falcon_r5_27",
        num_qubits=27,
        coupling=tuple(falcon27_coupling()),
    ),
    "falcon_r5_16": QPUModel(
        name="falcon_r5_16",
        num_qubits=16,
        coupling=tuple(falcon16_coupling()),
        base_error_2q=9.5e-3,
    ),
    "falcon_r5_7": QPUModel(
        name="falcon_r5_7",
        num_qubits=7,
        coupling=tuple(falcon7_coupling()),
        base_error_2q=9.0e-3,
        price_per_hour=3200.0,
    ),
    "eagle_r3_127": QPUModel(
        name="eagle_r3_127",
        num_qubits=127,
        coupling=tuple(heavy_hex_like(127)),
        base_t1_us=220.0,
        base_t2_us=140.0,
        base_error_2q=7.5e-3,
        price_per_hour=6000.0,
    ),
}


def get_model(name: str) -> QPUModel:
    if name not in MODELS:
        raise KeyError(f"unknown QPU model {name!r}; available: {sorted(MODELS)}")
    return MODELS[name]
