"""Planned chunk sizes never change a seeded call's counts.

``execute()`` may run a job on any executor and, on a process pool, size
unseeded chunks from the cost model — but for a fixed seed the counts
contract is absolute: counts are a pure function of ``(circuit, backend,
shots, seed, chunk_shots)``.  So every run here must draw exactly the
histogram of the serial run with the same ``chunk_shots``, on every
backend family and every executor kind, cold or warm cost model.
Unseeded jobs carry no such contract; they are checked against the one
chunking rule instead: only a process pool splits them, and only on a
sampling engine.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.runtime import DEFAULT_COST_MODEL, execute, get_backend, profile_key
from repro.runtime.pool import EXECUTOR_KINDS
from repro.runtime.scheduler import MIN_CHUNK_SHOTS

#: All four backend families; trajectory at scale 0.25 keeps it fast.
BACKEND_SPECS = [
    ("statevector", {}),
    ("density_matrix", {}),
    ("stabilizer", {}),
    ("trajectory:ibmqx4", {"noise_scale": 0.25}),
]


def instrumented_circuit():
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    return injector.circuit


@pytest.mark.parametrize("spec, options", BACKEND_SPECS)
@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
class TestEveryExecutorMatchesSerial:
    """The acceptance matrix: 4 backend families x 3 executors."""

    def test_unchunked_seeded(self, spec, options, kind):
        planned = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=37, executor=kind, max_workers=3,
        )
        serial = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=37, executor="serial",
        )
        assert planned.plan["chunk_shots"] is None
        assert dict(planned.counts()) == dict(serial.counts())

    def test_explicit_chunking_seeded(self, spec, options, kind):
        planned = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=23, chunk_shots=64, executor=kind, max_workers=3,
        )
        serial = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=23, chunk_shots=64, executor="serial",
        )
        assert planned.plan["chunk_shots"] == 64
        assert dict(planned.counts()) == dict(serial.counts())

    def test_batch_with_dedupe(self, spec, options, kind):
        circuits = [instrumented_circuit() for _ in range(3)]
        backend = get_backend(spec, **options)
        planned = execute(
            circuits, backend, shots=128, seed=[5, 6, 5], executor=kind,
            max_workers=3,
        ).counts()
        serial = execute(
            circuits, backend, shots=128, seed=[5, 6, 5], executor="serial",
        ).counts()
        assert [dict(c) for c in planned] == [dict(c) for c in serial]

    def test_unseeded_job_follows_the_one_rule(self, spec, options, kind):
        # A heavy learned cost: the planner splits any sampling-engine job
        # it is asked about, so a whole job below means it was not asked.
        backend = get_backend(spec, **options)
        circuit = instrumented_circuit()
        DEFAULT_COST_MODEL.observe_run(profile_key(backend, circuit), 100, 500.0)
        job = execute(circuit, backend, shots=192, executor=kind, max_workers=3)
        counts = job.counts()
        planned = kind == "process" and not backend.returns_probabilities
        if planned:
            chunk = job.plan["chunk_shots"]
            assert MIN_CHUNK_SHOTS <= chunk < 192
            assert len(job._futures) == math.ceil(192 / chunk)
        else:
            assert job.plan["chunk_shots"] is None
            assert len(job._futures) == 1
        assert sum(counts.values()) == 192
        assert {len(key) for key in counts} == {circuit.num_clbits}


class TestWarmProfileNeverLeaksIntoSeededCounts:
    """A learned profile must not change a seeded call's histogram."""

    @pytest.mark.parametrize("spec, options", BACKEND_SPECS)
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_heavily_warmed_model_same_counts(self, spec, options, kind):
        backend = get_backend(spec, **options)
        circuit = instrumented_circuit()
        baseline = execute(
            circuit, backend, shots=160, seed=71, executor=kind,
            max_workers=4,
        ).counts()
        # Teach the model an enormous per-shot cost: if seeded planned
        # chunking existed, this would force a split and change counts.
        DEFAULT_COST_MODEL.observe_run(profile_key(backend, circuit), 10, 1000.0)
        warmed = execute(
            circuit, backend, shots=160, seed=71, executor=kind,
            max_workers=4,
        )
        assert warmed.plan["chunk_shots"] is None
        assert dict(warmed.counts()) == dict(baseline)


class TestHypothesisPlanEquivalence:
    """Property: any (shots, seed, chunk_shots) on a process pool draws
    the serial run's counts."""

    @settings(max_examples=15, deadline=None)
    @given(
        shots=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk=st.one_of(st.none(), st.integers(min_value=16, max_value=128)),
    )
    def test_per_shot_engine(self, shots, seed, chunk):
        backend = get_backend("stabilizer")
        planned = execute(
            instrumented_circuit(), backend, shots=shots, seed=seed,
            chunk_shots=chunk, executor="process", max_workers=4,
        )
        explicit = execute(
            instrumented_circuit(), backend, shots=shots, seed=seed,
            chunk_shots=planned.plan["chunk_shots"], executor="serial",
        )
        assert dict(planned.counts()) == dict(explicit.counts())

    @settings(max_examples=10, deadline=None)
    @given(
        shots=st.integers(min_value=1, max_value=300),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    )
    def test_exact_engine(self, shots, seed):
        """An exact-distribution engine runs whole on a process pool, seeded
        or not and however costly the model thinks it is."""
        backend = get_backend("statevector")
        circuit = instrumented_circuit()
        DEFAULT_COST_MODEL.observe_run(profile_key(backend, circuit), 10, 1000.0)
        planned = execute(
            circuit, backend, shots=shots, seed=seed, executor="process",
            max_workers=4,
        )
        assert planned.plan["chunk_shots"] is None
        assert len(planned._futures) == 1
        if seed is None:
            assert sum(planned.counts().values()) == shots
            return
        whole = execute(
            instrumented_circuit(), backend, shots=shots, seed=seed,
            executor="serial",
        )
        assert dict(planned.counts()) == dict(whole.counts())
