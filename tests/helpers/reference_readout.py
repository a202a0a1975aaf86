"""Dense readout-confusion oracle for the tensored REM in
``repro.mitigation.rem``: the whole tensor-product matrix, built
explicitly (small n only)."""

import numpy as np


def full_confusion_matrix(noise_model, qubits: list[int]) -> np.ndarray:
    """Dense tensor-product confusion matrix over ``qubits``.

    Qubit 0 is the least significant bit of the row/column index,
    matching the statevector layout.
    """
    if len(qubits) > 12:
        raise ValueError("dense confusion matrix limited to 12 qubits")
    mat = np.array([[1.0]])
    for q in sorted(qubits, reverse=True):
        mat = np.kron(mat, noise_model.confusion_matrix(q))
    return mat
