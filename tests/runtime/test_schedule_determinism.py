"""Planned chunk sizes never change a seeded call's counts.

``execute()`` may run a job on any executor and, on a process pool, size
unseeded (or ``chunk_shots="auto"``) chunks from the cost model — but for
a fixed seed the counts contract is absolute: counts are a pure function
of ``(circuit, backend, shots, seed, chunk_shots)``.  So every run here
must draw exactly the histogram of the serial run, or of an explicit
``chunk_shots`` equal to the size the plan resolved to, on every backend
family and every executor kind, cold or warm cost model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.runtime import DEFAULT_COST_MODEL, execute, get_backend, profile_key
from repro.runtime.pool import EXECUTOR_KINDS

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

    def test_auto_matches_the_chunking_it_resolved_to(self, spec, options, kind):
        planned = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=29, chunk_shots="auto", executor=kind, max_workers=3,
        )
        explicit = execute(
            instrumented_circuit(), get_backend(spec, **options), shots=192,
            seed=29, chunk_shots=planned.plan["chunk_shots"], executor="serial",
        )
        assert dict(planned.counts()) == dict(explicit.counts())

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
    """Property: any (shots, seed, chunk_shots) draws the counts of the
    explicit chunking it resolves to."""

    @settings(max_examples=15, deadline=None)
    @given(
        shots=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk=st.one_of(
            st.none(), st.just("auto"), st.integers(min_value=16, max_value=128)
        ),
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
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exact_engine(self, shots, seed):
        backend = get_backend("statevector")
        planned = execute(
            instrumented_circuit(), backend, shots=shots, seed=seed,
            chunk_shots="auto", executor="serial",
        )
        whole = execute(
            instrumented_circuit(), backend, shots=shots, seed=seed,
            executor="serial",
        )
        assert planned.plan["chunk_shots"] is None
        assert dict(planned.counts()) == dict(whole.counts())
