"""The paper's quality metric over probability vectors and counts.

The paper's quality metric is the *Hellinger fidelity* between the noisy
device distribution and the ideal distribution (its §2.1). We implement it
over both dense probability vectors and sparse counts dictionaries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "probs_to_vector",
    "hellinger_fidelity",
]


def probs_to_vector(probs: dict[str, float], num_qubits: int) -> np.ndarray:
    """Dense probability vector from a bitstring-keyed dict."""
    vec = np.zeros(2**num_qubits)
    for bits, p in probs.items():
        vec[int(bits, 2)] = p
    return vec


def _as_vectors(p, q):
    if isinstance(p, dict) or isinstance(q, dict):
        keys = list(p.keys() if isinstance(p, dict) else q.keys())
        num_qubits = len(keys[0]) if keys else 1
        if isinstance(p, dict):
            tot = sum(p.values())
            p = probs_to_vector({k: v / tot for k, v in p.items()}, num_qubits)
        if isinstance(q, dict):
            tot = sum(q.values())
            q = probs_to_vector({k: v / tot for k, v in q.items()}, num_qubits)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    return p, q


def hellinger_fidelity(p, q) -> float:
    """Hellinger fidelity ``(sum sqrt(p q))**2`` in [0, 1]; 1 = identical.

    Accepts dense vectors or counts/prob dicts (mixed allowed); a dict's
    width is its first key's length.
    """
    p, q = _as_vectors(p, q)
    bc = float(np.sum(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None))))
    return min(1.0, bc * bc)
