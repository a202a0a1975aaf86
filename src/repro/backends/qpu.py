"""QPU device abstraction: a model instance with live calibration state."""

from __future__ import annotations

import numpy as np

from ..simulation.noise import NoiseModel
from .calibration import CalibrationData, sample_calibration
from .drift import OUDrift
from .models import QPUModel

__all__ = ["QPU"]


class QPU:
    """A named quantum device: static architecture + drifting calibration.

    Parameters
    ----------
    name:
        Device name (e.g. ``"ibm_auckland"``-style short names).
    model:
        The :class:`QPUModel` architecture.
    quality:
        Intrinsic mean quality factor; < 1 is better than the model
        baseline, > 1 worse. Drives the Fig. 2(b) spatial variance.
    seed:
        Seeds both calibration sampling and the drift process.
    """

    def __init__(
        self,
        name: str,
        model: QPUModel,
        *,
        quality: float = 1.0,
        seed: int | None = None,
    ) -> None:
        self.name = name
        self.model = model
        self._rng = np.random.default_rng(seed)
        self._drift = OUDrift(quality, rng=self._rng)
        self._cycle = 0
        self.calibration: CalibrationData = sample_calibration(
            model, name, self._drift.quality, cycle=0, rng=self._rng
        )
        self.online = True

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self.model.num_qubits

    @property
    def basis_gates(self) -> tuple[str, ...]:
        return self.model.basis_gates

    @property
    def coupling(self) -> tuple[tuple[int, int], ...]:
        return self.model.coupling

    @property
    def noise_model(self) -> NoiseModel:
        return self.calibration.noise_model

    @property
    def cycle(self) -> int:
        return self._cycle

    # ------------------------------------------------------------------
    def recalibrate(self) -> CalibrationData:
        """Advance one calibration cycle: drift quality, resample noise."""
        self._cycle += 1
        quality = self._drift.step()
        self.calibration = sample_calibration(
            self.model,
            self.name,
            quality,
            cycle=self._cycle,
            rng=self._rng,
        )
        return self.calibration

    def __repr__(self) -> str:
        return (
            f"QPU({self.name!r}, model={self.model.name}, "
            f"qubits={self.num_qubits}, cycle={self._cycle}, "
            f"q={self.calibration.quality_factor:.3f})"
        )
