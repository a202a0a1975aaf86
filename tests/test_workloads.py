"""Correctness tests for every benchmark generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.reference_metrics import compute_metrics_reference
from repro.circuits import Gate, MetricsWriter, compute_metrics
from repro.cloud import LoadGenerator, abusive_mix
from repro.simulation import hellinger_fidelity, ideal_probabilities
from repro.workloads import (
    BENCHMARKS,
    WIDTH_DETERMINED,
    SampledJob,
    WorkloadSampler,
    benchmark_names,
    bernstein_vazirani,
    clustered_circuit,
    deutsch_jozsa,
    generate,
    ghz,
    ghz_linear,
    grover,
    maxcut_cost,
    phase_estimation,
    qaoa_maxcut,
    qaoa_ring_maxcut,
    qft,
    qft_entangled,
    random_circuit,
    real_amplitudes,
    ripple_adder,
    two_local,
    w_state,
)

#: Load generator stream shapes, each pinned below.
STREAM_SHAPES = {
    "poisson": {},
    "mmpp": {"arrival_process": "mmpp"},
    "pooled": {"circuit_pool_size": 12, "shots_grid": (1000, 4000, 8000)},
    "tenanted": {"tenants": abusive_mix()},
}

#: sha256 of each shape's 300 s stream at 3000 jobs/h, seed 5 (see
#: ``_stream_digest``), recorded while the generator could still build
#: each job from its circuit — and held equal to that path then.
STREAM_PINS = {
    "poisson": "409ed718664aa37352f375c9b1f2da63c1a009ecb87ad1dc90399ef2e4ef98bb",
    "mmpp": "9cbc38018de97c6067a5af8b44432163b7ee7262fbf1fbbb6e95dffbfdbb2939",
    "pooled": "5039376e84a1c06eed6f1372de04ea3bc170a9f9ca945cb5a22993ce01f70912",
    "tenanted": "684c36cb135fcae1c60b455e8b5a92e612457d9c7a189ea37a259203fb47ea57",
}


def _stream_digest(apps) -> str:
    """What each job carries into the engine, in stream order."""
    rows = [
        (
            job.metrics.fingerprint,
            job.shots,
            job.mitigation,
            job.benchmark,
            job.arrival_time,
            job.tenant_id,
        )
        for job in (app.quantum_job for app in apps)
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestStatePreparations:
    def test_ghz_distribution(self):
        p = ideal_probabilities(ghz(4))
        assert p[0] == pytest.approx(0.5) and p[15] == pytest.approx(0.5)

    def test_ghz_linear_equals_star_distribution(self):
        p1 = ideal_probabilities(ghz(5))
        p2 = ideal_probabilities(ghz_linear(5))
        assert hellinger_fidelity(p1, p2) == pytest.approx(1.0)

    def test_w_state_uniform_single_excitation(self):
        p = ideal_probabilities(w_state(4))
        ones = [1 << k for k in range(4)]
        for idx in ones:
            assert p[idx] == pytest.approx(0.25, abs=1e-9)
        assert sum(p[i] for i in ones) == pytest.approx(1.0)

    def test_minimum_size_validation(self):
        for fn in (ghz, ghz_linear, w_state):
            with pytest.raises(ValueError):
                fn(1)


class TestQFT:
    def test_qft_matches_dft_matrix(self):
        n = 3
        u = qft(n, swaps=True).unitary()
        dft = np.array(
            [
                [np.exp(2j * np.pi * j * k / 2**n) for k in range(2**n)]
                for j in range(2**n)
            ]
        ) / np.sqrt(2**n)
        assert np.allclose(u, dft, atol=1e-10)

    def test_qft_inverse_is_identity(self):
        c = qft(4)
        u = c.copy().compose(c.inverse()).unitary()
        assert np.allclose(u, np.eye(16), atol=1e-9)

    def test_approximate_qft_has_fewer_cp(self):
        full = qft(6).count_ops().get("cp", 0)
        approx = qft(6, approximation_degree=3).count_ops().get("cp", 0)
        assert approx < full

    def test_qft_entangled_runs(self):
        c = qft_entangled(4)
        assert c.num_measurements == 4


class TestAlgorithms:
    def test_grover_finds_marked(self):
        for marked in ("101", "010"):
            p = ideal_probabilities(grover(3, marked))
            assert int(np.argmax(p)) == int(marked, 2)
            assert p[int(marked, 2)] > 0.8

    def test_grover_validation(self):
        with pytest.raises(ValueError):
            grover(3, marked="10")

    def test_bv_recovers_secret(self):
        secret = "11010"
        p = ideal_probabilities(bernstein_vazirani(5, secret))
        assert format(int(np.argmax(p)), "05b") == secret
        assert p.max() == pytest.approx(1.0)

    def test_dj_balanced_avoids_zero(self):
        p = ideal_probabilities(deutsch_jozsa(4, balanced=True))
        assert p[0] == pytest.approx(0.0, abs=1e-9)

    def test_dj_constant_hits_zero(self):
        p = ideal_probabilities(deutsch_jozsa(4, balanced=False))
        assert p[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_dj_builds_up_to_the_advertised_width(self, n):
        """``2**n`` is past NumPy's int64 bound from n = 64 on."""
        c = generate("dj", n, seed=3)
        assert c.num_qubits == n
        assert any(g.name == "z" for g in c.ops)  # non-zero mask

    def test_dj_narrow_masks_are_pinned(self):
        """The wide-n limb draw leaves every n < 64 stream alone: digests
        of ``generate("dj", n, seed=3).ops`` taken before it existed."""
        pinned = {
            2: "d32b52ddb9eb53e45a979170f76cd433aa4a884fed75ed3ebd2e41f3918fc9f9",
            12: "0483667f1092243473632e085aabdab2c22aa772cce9cd37a26c961636a74b1c",
            63: "52cc902e0c7eb3ae140f40de21ec4cb06956076e9fe60dc904e5065183bb6262",
        }
        for n, digest in pinned.items():
            ops = [
                (g.name, tuple(g.qubits), tuple(g.params))
                for g in generate("dj", n, seed=3).ops
            ]
            assert hashlib.sha256(repr(ops).encode()).hexdigest() == digest, n

    def test_qpe_reads_phase(self):
        for phase, n in ((0.25, 4), (0.3125, 4)):
            p = ideal_probabilities(phase_estimation(n, phase))
            counting = int(np.argmax(p)) & ((1 << n) - 1)
            assert counting == round(phase * 2**n)

    def test_adder_adds(self):
        for a, b in ((3, 1), (2, 2), (1, 3)):
            c = ripple_adder(2, a=a, b=b)
            p = ideal_probabilities(c)
            idx = int(np.argmax(p))
            total = sum(((idx >> (1 + 2 * i)) & 1) << i for i in range(2))
            carry = (idx >> (c.num_qubits - 1)) & 1
            assert total + (carry << 2) == a + b


class TestVariational:
    def test_qaoa_structure(self):
        c = qaoa_maxcut(6, p_layers=2, seed=1)
        ops = c.count_ops()
        assert ops["h"] == 6 and ops["rx"] == 12
        assert "edges" in c.metadata

    def test_qaoa_ring_is_chain_like(self):
        from repro.circuits import compute_metrics

        c = qaoa_ring_maxcut(8)
        assert compute_metrics(c).routing_class == "linear"

    def test_qaoa_param_validation(self):
        with pytest.raises(ValueError):
            qaoa_maxcut(4, p_layers=2, gammas=[0.1], betas=[0.1, 0.2])

    def test_maxcut_cost(self):
        edges = [(0, 1), (1, 2)]
        assert maxcut_cost("010", edges) == 2  # q0=0,q1=1,q2=0
        assert maxcut_cost("000", edges) == 0

    def test_real_amplitudes_param_count(self):
        with pytest.raises(ValueError):
            real_amplitudes(4, reps=2, parameters=[0.1] * 5)

    def test_two_local_entanglement_options(self):
        full = two_local(4, reps=1, entanglement="full")
        lin = two_local(4, reps=1, entanglement="linear")
        assert full.two_qubit_gate_count() > lin.two_qubit_gate_count()


class TestRandomAndClustered:
    def test_random_circuit_determinism(self):
        c1 = random_circuit(5, 6, seed=42)
        c2 = random_circuit(5, 6, seed=42)
        assert c1.ops == c2.ops

    def test_clustered_bridges_are_cz(self):
        c = clustered_circuit(8, 3, num_clusters=2, bridge_gates=2, seed=1)
        clusters = c.metadata["clusters"]
        set_a = set(clusters[0])
        crossing = [
            g
            for g in c.ops
            if g.num_qubits == 2 and (g.qubits[0] in set_a) != (g.qubits[1] in set_a)
        ]
        assert crossing and all(g.name == "cz" for g in crossing)
        assert len(crossing) == 2

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_circuit(3, 2, num_clusters=2)


class TestSuite:
    def test_all_benchmarks_generate(self):
        for name in benchmark_names():
            _, lo, hi = BENCHMARKS[name]
            width = max(lo, min(5, hi))
            circ = generate(name, width, seed=1)
            assert circ.num_qubits >= 1
            assert circ.metadata.get("benchmark") == name

    def test_generate_range_validation(self):
        with pytest.raises(ValueError):
            generate("grover", 20)
        with pytest.raises(KeyError):
            generate("nope", 5)

    def test_sampler_respects_bounds(self):
        sampler = WorkloadSampler(seed=1, min_qubits=3, max_qubits=10)
        for job in sampler.sample_many(30):
            assert 3 <= job.width <= 10
            assert 3 <= job.circuit.num_qubits <= 10
            assert 1000 <= job.shots <= 25000

    def test_sampler_mitigation_fraction(self):
        sampler = WorkloadSampler(seed=2, mitigation_fraction=1.0)
        assert all(j.uses_mitigation for j in sampler.sample_many(10))

    def test_sampler_rejects_bad_fields_by_name(self):
        with pytest.raises(ValueError, match="unknown benchmarks.*'nope'.*'adder'"):
            WorkloadSampler(benchmarks=["ghz", "nope"])
        with pytest.raises(ValueError, match="std_qubits"):
            WorkloadSampler(std_qubits=-1.0)
        with pytest.raises(ValueError, match="mitigation_fraction"):
            WorkloadSampler(mitigation_fraction=-0.1)

    def test_adder_width_mapping_is_pinned(self):
        """Known defect (ROADMAP direction 5), pinned rather than fixed
        because the fix moves every seeded digest: ``bits = (n - 2) // 2``
        makes ``generate("adder", n)`` an ``n - 1``-qubit circuit for
        every odd ``n``, so the sampler can undershoot ``min_qubits``."""
        assert [generate("adder", n).num_qubits for n in range(4, 12)] == [
            4, 4, 6, 6, 8, 8, 10, 10,
        ]
        sampler = WorkloadSampler(
            min_qubits=5, mean_qubits=5, std_qubits=1, benchmarks=["adder"], seed=0
        )
        drawn = {(j.width, j.metrics.num_qubits) for j in sampler.sample_many(50)}
        assert (5, 4) in drawn
        assert min(width for width, _ in drawn) == 5


def _widths(name, extra=()):
    _, lo, hi = BENCHMARKS[name]
    return [*range(lo, min(hi, 27) + 1), *(w for w in extra if lo <= w <= hi)]


class TestRecipes:
    """A sampled job is a recipe: metrics without a circuit must be the
    metrics of the circuit the recipe builds."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_one_pass_metrics_match_reference_across_catalog(self, name):
        for width in _widths(name):
            for seed in (1, 2, 3):
                circ = generate(name, width, seed)
                assert compute_metrics(circ) == compute_metrics_reference(circ), (
                    name, width, seed,
                )

    def test_width_determined_names_exist(self):
        assert WIDTH_DETERMINED <= set(BENCHMARKS)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_width_determined_declaration_is_checked(self, name):
        """Listed: one metrics bundle per width whatever the seed.
        Unlisted: the seed moves the metrics somewhere — a stale entry
        fails either way."""
        listed = name in WIDTH_DETERMINED
        moved = [
            width
            for width in _widths(name, extra=(40, 64, 130) if listed else ())
            if len({compute_metrics(generate(name, width, s)) for s in range(1, 6)}) > 1
        ]
        assert (not moved) if listed else moved

    def test_sampled_metrics_equal_built_circuit_metrics(self):
        sampler = WorkloadSampler(seed=7, max_qubits=27, mean_qubits=8, std_qubits=5)
        jobs = sampler.sample_many(300)
        assert {j.benchmark for j in jobs} - WIDTH_DETERMINED  # both arms drawn
        for job in jobs:
            assert job.metrics == compute_metrics(job.circuit)
            assert job.circuit is job.circuit  # built once, then kept
            assert job.circuit.metadata["benchmark"] == job.benchmark
        memo = sampler._family_metrics
        assert memo and {name for name, _ in memo} <= WIDTH_DETERMINED
        assert len(memo) < len(jobs)

    def test_memo_is_per_sampler(self):
        a, b = WorkloadSampler(seed=1), WorkloadSampler(seed=1)
        [j.metrics for j in a.sample_many(20)]
        assert a._family_metrics and not b._family_metrics

    def test_rng_stream_is_the_eager_samplers(self):
        """``sample()`` draws what it drew when it built every circuit:
        generator state after 200 draws pinned from the parent commit."""
        sampler = WorkloadSampler(seed=11, max_qubits=27, mean_qubits=6, std_qubits=3)
        jobs = sampler.sample_many(200)
        state = sampler._rng.bit_generator.state
        assert state["state"] == {
            "state": 274834610142399861431721876139665295879,
            "inc": 7937318808080196428804369945471644491,
        }
        assert (state["has_uint32"], state["uinteger"]) == (0, 684963980)
        assert sampler._counter == 200 and [j.seed for j in jobs] == [*range(1, 201)]
        assert [
            (j.benchmark, j.metrics.num_qubits, j.shots, j.uses_mitigation)
            for j in jobs[:3]
        ] == [
            ("dj", 10, 6150, True),
            ("bv", 5, 16285, True),
            ("qft_entangled", 8, 6535, True),
        ]

    @pytest.mark.parametrize("shape", sorted(STREAM_PINS), ids=str)
    def test_loadgen_stream_is_pinned(self, shape):
        gen = LoadGenerator(mean_rate_per_hour=3000, seed=5, **STREAM_SHAPES[shape])
        apps = gen.generate(300.0)
        assert len(apps) > 100
        assert _stream_digest(apps) == STREAM_PINS[shape]


class TestFreshStreamPin:
    """The paper's regime (§8.2, ``bench/``'s ``qonductor_fresh``): a
    fresh program per arrival, so every seeded family's metrics are
    derived anew — pinned over six traffic seeds."""

    def test_fresh_streams_are_pinned(self):
        rows = []
        for seed in range(3000, 3006):
            gen = LoadGenerator(mean_rate_per_hour=4500.0, seed=seed)
            for app in gen.iter_arrivals(2160.0):
                job = app.quantum_job
                rows.append((
                    job.metrics.fingerprint,
                    job.metrics.parallelism,
                    job.shots,
                    job.mitigation,
                    job.benchmark,
                    app.arrival_time,
                ))
        assert len(rows) == 11_812
        assert sum(row[4] not in WIDTH_DETERMINED for row in rows) == 3_114
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "f711d11a6b1eef46b4c70b4340c9a80b69add22ea26045e7ec6c41f96e737f8a"


#: The families whose metrics move with the seed: each generator also
#: takes ``sink=``, and a sampled job's metrics come from a MetricsWriter.
SEEDED = sorted(set(BENCHMARKS) - WIDTH_DETERMINED)


@st.composite
def seeded_draws(draw):
    name = draw(st.sampled_from(SEEDED))
    _, lo, hi = BENCHMARKS[name]
    edges = [w for w in (lo, 40, 64, 130, hi) if lo <= w <= hi]
    width = draw(st.one_of(st.sampled_from(edges), st.integers(lo, hi)))
    return name, width, draw(st.integers(0, 2**32 - 1))


class TestMetricsWriterSink:
    """One generator body per seeded family, two sinks: the writer's
    metrics are the metrics of the circuit the same call builds."""

    def test_seeded_families(self):
        assert SEEDED == ["dj", "qaoa", "qaoa_deep", "random"]

    @given(seeded_draws())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_writer_metrics_equal_reference(self, draw):
        name, width, seed = draw
        build = BENCHMARKS[name][0]
        got = build(width, seed, sink=MetricsWriter).metrics()
        assert got == compute_metrics_reference(generate(name, width, seed))

    def test_sampled_metrics_build_no_gate(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Gate was built")

        monkeypatch.setattr(Gate, "__init__", refuse)
        for name in SEEDED:
            _, lo, hi = BENCHMARKS[name]
            for width in (lo, 12, 40, hi):
                job = SampledJob(name, width, 3, 1000, False)
                assert job.metrics.num_qubits == width
                assert job._circuit is None
        with pytest.raises(AssertionError, match="a Gate was built"):
            SampledJob("dj", 5, 3, 1000, False).circuit
