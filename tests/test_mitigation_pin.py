"""Bit-identity pin of the nine standard mitigation stacks.

For each preset, on ``ghz_linear(4)`` and one 4-qubit clustered circuit,
the digest covers every expanded instance's ``to_dict()``, the plan's
``twirl_group`` and ``zne_factors``, the stack's ``shot_overhead`` and
``classical_overhead``, and the bytes of ``post_process`` over seeded
trajectory-simulator distributions.  A refactor of ``repro.mitigation``
that changes any of them fails here.
"""

import hashlib

import pytest

from helpers.noise import uniform_noise
from repro.mitigation import STANDARD_STACKS, MitigationStack
from repro.simulation import NoisySimulator
from repro.workloads import clustered_circuit, ghz_linear

#: ``preset -> sha256`` over both circuits, recorded before the
#: mitigation library was cut to what the presets run.
PRESET_DIGESTS = {
    "none": "bb494b31d34913f50805d402c448894a2f668611900f74eaf8b86167a71fa0f8",
    "rem": "49561a5f4b8b8531a77858e8f07bc27c1c02f1ab8556a9e42042525fb43309de",
    "dd": "ebb91e29e62a1996da2b2f080390558b049b3b73240a3b17c0aa109be94f0af0",
    "dd+rem": "92d00d4bcb1a6caa05697ff066fb50231b48b791ebb6319937dca59dd3d3dba9",
    "twirl+rem": "17de8befc06f722350275e2e8ce64189020dbcb2b3b129889d7e287db0aee30e",
    "zne": "4900c962d3571353e654b58d56bf782080294caff5ce5feb879f2b90e84bdb99",
    "zne+rem": "5cab8b36310ad5173f605f627c897ba48f0ebcaad2837fd5a290387915fda9c5",
    "dd+zne+rem": "0a4cffe54d937e1440c33eb990422beb9d550aee32e264417ea7eca1c8f97a34",
    "dd+twirl+zne+rem": "460b491f480d2685796f8788ce17b9878550d0c823be8fc7dcddbbbbf87d280d",
}


def _preset_digest(preset: str) -> str:
    nm = uniform_noise(4, error_2q=0.02, readout_error=0.04, t1_us=80, t2_us=50)
    circuits = [
        ghz_linear(4),
        clustered_circuit(4, 3, num_clusters=2, bridge_gates=1, seed=5),
    ]
    stack = MitigationStack.preset(preset)
    rows = []
    for circuit in circuits:
        plan = stack.expand(circuit, nm)
        sim = NoisySimulator(nm, num_trajectories=20, seed=1)
        probs = [sim.noisy_probabilities(inst) for inst in plan.instances]
        mitigated = stack.post_process(plan, probs, nm, circuit.num_qubits)
        rows.append(
            (
                [inst.to_dict() for inst in plan.instances],
                plan.twirl_group,
                plan.zne_factors,
                stack.shot_overhead,
                stack.classical_overhead,
                mitigated.tobytes().hex(),
            )
        )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_pins_cover_every_preset():
    assert sorted(PRESET_DIGESTS) == sorted(STANDARD_STACKS)


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_is_bit_identical(preset):
    assert _preset_digest(preset) == PRESET_DIGESTS[preset]
