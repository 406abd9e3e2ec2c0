"""Tests for the public API surface: imports, __all__ hygiene, doctest."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.circuits",
    "repro.core",
    "repro.devices",
    "repro.experiments",
    "repro.noise",
    "repro.results",
    "repro.runtime",
    "repro.simulators",
    "repro.transpiler",
]


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_sorted_and_unique(self, package):
        module = importlib.import_module(package)
        names = list(module.__all__)
        assert len(set(names)) == len(names), f"{package}.__all__ has dupes"

    def test_version_exposed(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_top_level_quickstart_doctest(self):
        """The README/module-docstring quickstart must actually work."""
        from repro import (
            AssertionInjector,
            QuantumCircuit,
            StatevectorBackend,
        )
        from repro.core import postselect_passing

        bell = QuantumCircuit(2)
        bell.h(0)
        bell.cx(0, 1)
        injector = AssertionInjector(bell)
        injector.assert_entangled([0, 1])
        injector.measure_program()
        result = StatevectorBackend().run(injector.circuit, shots=1000, seed=7)
        filtered = postselect_passing(result.counts, injector.records)
        assert sorted(filtered) == ["00", "11"]


class TestImportFootprint:
    def test_fresh_import_loads_neither_scipy_nor_networkx(self):
        """numpy is the only third-party runtime dependency."""
        script = (
            "import sys\n"
            "import repro, repro.experiments, repro.service, repro.faults\n"
            "print(*sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'networkx'}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import exceptions

        error_types = [
            obj
            for name, obj in vars(exceptions).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(error_types) >= 10
        for error_type in error_types:
            assert issubclass(error_type, exceptions.ReproError)

    def test_specific_parents(self):
        from repro import exceptions

        assert issubclass(exceptions.RegisterError, exceptions.CircuitError)
        assert issubclass(exceptions.GateError, exceptions.CircuitError)
        assert issubclass(exceptions.QasmError, exceptions.CircuitError)
        assert issubclass(exceptions.StabilizerError, exceptions.SimulationError)

    def test_catchable_as_base(self):
        from repro.circuits.circuit import QuantumCircuit
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            QuantumCircuit(1).h(9)


class TestModuleDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_package_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20
