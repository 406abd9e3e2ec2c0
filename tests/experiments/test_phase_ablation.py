"""Tests for the A5b phase-error detection ablation and the CLI runner."""

import pytest

from repro.experiments.ablation_phase import run_phase_ablation


class TestPhaseAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_phase_ablation(noise_levels=(0.0, 0.1))

    def test_z_pairs_blind_to_phase_noise(self, result):
        assert result.detection(0.1, "z-pairs") == pytest.approx(0.0, abs=1e-9)

    def test_x_parity_detects(self, result):
        assert result.detection(0.1, "x-parity") > 0.1

    def test_full_check_dominates(self, result):
        assert result.detection(0.1, "full") >= result.detection(0.1, "x-parity")

    def test_no_false_positives(self, result):
        for detector in ("z-pairs", "x-parity", "full"):
            assert result.detection(0.0, detector) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_configuration_raises(self, result):
        with pytest.raises(KeyError):
            result.detection(0.99, "full")

    def test_summary_renders(self, result):
        assert "blind" in result.summary()


class TestCli:
    def test_list_option(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig7" in out

    def test_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_runtime_stats_prints_registry_exposition(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig6", "--runtime-stats"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "# TYPE repro_executor_pools_active gauge" in out
        assert "# TYPE repro_cache_hits_total counter" in out

    def test_unknown_experiment_errors(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonexistent"])
