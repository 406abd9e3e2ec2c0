"""A5 bench: simulator cross-validation and relative performance.

Runs the same instrumented Bell-assertion workload on all four engines and
times each; correctness of the mutual agreement is asserted alongside.
Engines are resolved by name through the runtime provider, and the
``repro.runtime.execute`` path is validated against the direct engine run
once per engine — outside the timed region, so the group's cross-engine
timings measure the engines themselves, not runtime dispatch.
"""

import pytest

from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.runtime import execute, get_backend
from repro.simulators.statevector import StatevectorSimulator


def instrumented_bell():
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    return injector.circuit


def run_once(backend, circuit):
    return backend.run(circuit, shots=1024, seed=7)


@pytest.fixture(scope="module")
def circuit():
    return instrumented_bell()


@pytest.fixture(scope="module")
def backends(circuit):
    """Module-scoped backends so timings measure the engines, not setup.

    The ``execute()`` entry point is asserted seed-equivalent to the
    direct run for every engine.
    """
    built = {
        spec: get_backend(spec, **options)
        for spec, options in [
            ("statevector", {}),
            ("density_matrix", {}),
            ("stabilizer", {}),
            # noise_scale=0 + transpile=False keeps the historical
            # ideal-trajectory workload: all four engines run the *same*
            # 3-qubit circuit, so the group timings stay comparable.
            ("trajectory:ibmqx4", {"noise_scale": 0.0, "transpile": False}),
        ]
    }
    for backend in built.values():
        via_runtime = execute(circuit, backend, shots=1024, seed=7).result()
        assert dict(via_runtime.counts) == dict(run_once(backend, circuit).counts)
    return built


@pytest.fixture(scope="module")
def reference(circuit):
    return StatevectorSimulator().exact_probabilities(circuit)


@pytest.mark.benchmark(group="simulators")
def test_statevector_engine(benchmark, circuit, reference, backends):
    result = benchmark(run_once, backends["statevector"], circuit)
    for key, p in result.probabilities.items():
        assert reference.get(key, 0.0) == pytest.approx(p, abs=1e-9)


@pytest.mark.benchmark(group="simulators")
def test_density_matrix_engine(benchmark, circuit, reference, backends):
    result = benchmark(run_once, backends["density_matrix"], circuit)
    for key, p in result.probabilities.items():
        assert reference.get(key, 0.0) == pytest.approx(p, abs=1e-9)


@pytest.mark.benchmark(group="simulators")
def test_stabilizer_engine(benchmark, circuit, reference, backends):
    result = benchmark(run_once, backends["stabilizer"], circuit)
    for key, count in result.counts.items():
        assert reference.get(key, 0.0) == pytest.approx(count / 1024, abs=0.08)


@pytest.mark.benchmark(group="simulators")
def test_trajectory_engine(benchmark, circuit, reference, backends):
    result = benchmark(run_once, backends["trajectory:ibmqx4"], circuit)
    for key, count in result.counts.items():
        assert reference.get(key, 0.0) == pytest.approx(count / 1024, abs=0.08)


# ----------------------------------------------------------------------
# Trajectory shot sweep
# ----------------------------------------------------------------------
#
# The noisy trajectory workload at two shot counts: the batch axis
# amortises kernel dispatch over each tile, so the per-shot cost falls as
# shots grow.  Counts equal the per-shot reference walker's (pinned in
# tests/simulators/test_batched.py).


@pytest.fixture(scope="module")
def noisy_backend():
    return get_backend("trajectory:ibmqx4", noise_scale=1.0, transpile=False)


@pytest.mark.benchmark(group="trajectory-shots")
@pytest.mark.parametrize("shots", [256, 1024])
def test_trajectory_method_sweep(benchmark, circuit, noisy_backend, shots):
    result = benchmark(noisy_backend.run, circuit, shots=shots, seed=7)
    assert result.counts.shots == shots
