"""Backend tests: models, calibration sampling, drift, fleet, templates."""

import numpy as np
import pytest

from repro.backends import (
    FLEET_SPEC,
    MODELS,
    OUDrift,
    QPU,
    average_calibrations,
    build_templates,
    default_fleet,
    fleet_of_size,
    get_model,
    heavy_hex_like,
    sample_calibration,
)
from repro.transpiler.routing import hop_distances, neighbour_lists


class TestModels:
    def test_falcon27_shape(self):
        model = get_model("falcon_r5_27")
        assert model.num_qubits == 27
        # Connected: every pair has a finite hop distance (what the router
        # needs to place a SWAP path between any two qubits).
        assert np.isfinite(hop_distances(neighbour_lists(model.coupling, 27))).all()
        assert max(map(len, neighbour_lists(model.coupling, 27))) <= 3  # heavy-hex

    def test_all_models_connected_low_degree(self):
        for model in MODELS.values():
            n = model.num_qubits
            hops = hop_distances(neighbour_lists(model.coupling, n))
            assert np.isfinite(hops).all(), model.name
            assert max(map(len, neighbour_lists(model.coupling, n))) <= 3, model.name

    def test_heavy_hex_like_sparsity(self):
        edges = heavy_hex_like(64)
        degrees = {}
        for a, b in edges:
            degrees[a] = degrees.get(a, 0) + 1
            degrees[b] = degrees.get(b, 0) + 1
        assert max(degrees.values()) <= 3

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("nope")


class TestCalibration:
    def test_sample_respects_quality_ordering(self):
        model = get_model("falcon_r5_27")
        rng_good = np.random.default_rng(0)
        rng_bad = np.random.default_rng(0)
        good = sample_calibration(model, "good", 0.6, 0, rng_good)
        bad = sample_calibration(model, "bad", 1.6, 0, rng_bad)
        assert (
            good.noise_model.mean_gate_error_2q()
            < bad.noise_model.mean_gate_error_2q()
        )
        assert good.mean_readout_error < bad.mean_readout_error

    def test_t2_bounded_by_2t1(self):
        model = get_model("falcon_r5_7")
        cal = sample_calibration(model, "x", 1.0, 0, np.random.default_rng(3))
        for q in cal.noise_model.qubits:
            assert q.t2_us <= 2.0 * q.t1_us + 1e-9

    def test_qubits_spread_lognormally_with_sigma_035(self):
        """T1 is the model's base over the quality factor times one
        lognormal draw per qubit, the first draws the generator makes."""
        model = get_model("falcon_r5_7")
        cal = sample_calibration(model, "x", 1.25, 0, np.random.default_rng(3))
        spread = np.exp(np.random.default_rng(3).normal(0.0, 0.35, model.num_qubits))
        want = [float(max(5.0, t)) for t in model.base_t1_us / 1.25 * spread]
        assert [q.t1_us for q in cal.noise_model.qubits] == want

    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            sample_calibration(
                get_model("falcon_r5_7"), "x", -1.0, 0, np.random.default_rng(0)
            )

    def test_epoch_is_the_name_and_cycle(self):
        """The cache-invalidation key of every fleet snapshot, of a
        recalibrated one and of a template is ``(qpu_name, cycle)``."""
        fleet = default_fleet(seed=7)
        cals = [q.calibration for q in fleet]
        model = get_model("falcon_r5_7")
        cals.append(sample_calibration(model, "x", 1.0, 5, np.random.default_rng(0)))
        cals += [t.calibration for t in build_templates(fleet).values()]
        for cal in cals:
            assert cal.epoch == (cal.qpu_name, cal.cycle)
            assert type(cal.epoch) is tuple

    def test_snapshot_is_frozen_and_its_epoch_built_once(self):
        import dataclasses
        import pickle

        cal = sample_calibration(get_model("falcon_r5_7"), "x", 1.0, 2, np.random.default_rng(0))
        for name in ("qpu_name", "cycle", "noise_model", "derived"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cal, name, None)
        assert cal.epoch is cal.epoch
        cal.aggregates()  # the memo still fills
        restored = pickle.loads(pickle.dumps(cal))
        assert restored.epoch == cal.epoch == ("x", 2)
        assert restored.aggregates() == cal.aggregates()

    def test_summary_keys(self):
        cal = sample_calibration(
            get_model("falcon_r5_7"), "x", 1.0, 2, np.random.default_rng(0)
        )
        s = cal.summary()
        assert s["cycle"] == 2 and "mean_error_2q" in s

    def test_average_calibrations(self):
        model = get_model("falcon_r5_7")
        rng = np.random.default_rng(1)
        cals = [
            sample_calibration(model, f"q{i}", q, 0, rng)
            for i, q in enumerate((0.7, 1.3))
        ]
        avg = average_calibrations(cals, "template")
        e_each = [c.noise_model.mean_gate_error_2q() for c in cals]
        assert min(e_each) < avg.noise_model.mean_gate_error_2q() < max(e_each)

    def test_average_rejects_mixed_models(self):
        rng = np.random.default_rng(1)
        a = sample_calibration(get_model("falcon_r5_7"), "a", 1.0, 0, rng)
        b = sample_calibration(get_model("falcon_r5_27"), "b", 1.0, 0, rng)
        with pytest.raises(ValueError):
            average_calibrations([a, b], "t")

    def test_average_empty(self):
        with pytest.raises(ValueError):
            average_calibrations([], "t")


class TestDrift:
    def test_mean_reversion(self):
        drift = OUDrift(1.0, rng=np.random.default_rng(0))
        traj = np.array([drift.step() for _ in range(500)])
        assert abs(np.log(traj[-100:]).mean()) < 0.2

    def test_step_is_the_ou_update(self):
        """``log q += 0.35 (log q_mean - log q) + 0.12 eps``, one
        standard normal per step."""
        drift = OUDrift(0.8, rng=np.random.default_rng(1))
        eps = np.random.default_rng(1).normal(size=50)
        log_mean = log_q = float(np.log(0.8))
        for e in eps:
            log_q += 0.35 * (log_mean - log_q) + 0.12 * e
            assert drift.step() == float(np.exp(log_q))

    def test_positivity(self):
        drift = OUDrift(0.8, rng=np.random.default_rng(1))
        assert all(drift.step() > 0 for _ in range(200))

    def test_validation(self):
        with pytest.raises(ValueError):
            OUDrift(-1.0)


class TestQPUAndFleet:
    def test_recalibrate_advances_cycle(self):
        qpu = QPU("test", get_model("falcon_r5_7"), quality=1.0, seed=0)
        assert qpu.cycle == 0
        cal = qpu.recalibrate()
        assert qpu.cycle == 1 and cal.cycle == 1

    def test_calibration_changes_between_cycles(self):
        qpu = QPU("test", get_model("falcon_r5_7"), quality=1.0, seed=0)
        e0 = qpu.calibration.noise_model.mean_gate_error_2q()
        qpu.recalibrate()
        assert qpu.calibration.noise_model.mean_gate_error_2q() != e0

    def test_default_fleet_names_and_quality_order(self):
        fleet = default_fleet(seed=7)
        names = [q.name for q in fleet]
        assert names == [s[0] for s in FLEET_SPEC]
        by_name = {q.name: q for q in fleet}
        # auckland (intrinsic 0.62) should calibrate better than algiers.
        assert (
            by_name["auckland"].calibration.noise_model.mean_gate_error_2q()
            < by_name["algiers"].calibration.noise_model.mean_gate_error_2q()
        )

    def test_fleet_subset(self):
        fleet = default_fleet(seed=7, names=["cairo", "lagos"])
        assert [q.name for q in fleet] == ["cairo", "lagos"]

    def test_fleet_of_size(self):
        fleet = fleet_of_size(16, seed=1)
        assert len(fleet) == 16
        assert all(q.num_qubits == 27 for q in fleet)
        with pytest.raises(ValueError):
            fleet_of_size(0)


class TestTemplates:
    def test_templates_group_by_model(self):
        fleet = default_fleet(seed=7)
        templates = build_templates(fleet)
        assert set(templates) == {"falcon_r5_27", "falcon_r5_16", "falcon_r5_7"}
        t27 = templates["falcon_r5_27"]
        assert len(t27.member_names) == 6
        assert t27.num_qubits == 27

    def test_template_is_fleet_average(self):
        fleet = default_fleet(seed=7, names=["lagos", "nairobi"])
        template = build_templates(fleet)["falcon_r5_7"]
        errors = [q.calibration.noise_model.mean_gate_error_2q() for q in fleet]
        mean = template.calibration.noise_model.mean_gate_error_2q()
        assert min(errors) <= mean <= max(errors)
