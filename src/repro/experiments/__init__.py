"""Experiment harness: one module per paper table/figure plus ablations.

Each experiment exposes a ``run(...)`` function returning a structured
result object with a ``to_rows()`` / ``summary()`` rendering that prints the
same rows the paper reports, next to the paper's published numbers.  The
benchmarks under ``benchmarks/`` call these and assert the qualitative
shape (who wins, by roughly what factor).

Index (the README's *Reproducing the paper* section lists the same ids):

=======  ==========================================  =======================
Exp. id  Paper artifact                              Module
=======  ==========================================  =======================
E1       Fig. 6  (QUIRK classical assertion)         :mod:`repro.experiments.fig6`
E2       Fig. 7  (QUIRK superposition assertion)     :mod:`repro.experiments.fig7`
E3       Table 1 (IBM Q classical assertion)         :mod:`repro.experiments.table1`
E4       Table 2 (IBM Q entanglement assertion)      :mod:`repro.experiments.table2`
E5       §4.3    (IBM Q superposition assertion)     :mod:`repro.experiments.sec43`
A1       even/odd CNOT-count ablation (Fig. 4)       :mod:`repro.experiments.ablation_parity`
A2       assertion overhead scaling                  :mod:`repro.experiments.scaling`
A3       dynamic vs statistical baseline             :mod:`repro.experiments.baseline_comparison`
A4       noise sweep of the filtering benefit        :mod:`repro.experiments.sweeps`
=======  ==========================================  =======================
"""

from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.sec43 import Sec43Result, run_sec43
from repro.experiments.ablation_parity import ParityAblationResult, run_parity_ablation
from repro.experiments.ablation_phase import PhaseAblationResult, run_phase_ablation
from repro.experiments.scaling import ScalingResult, run_scaling
from repro.experiments.baseline_comparison import (
    BaselineComparisonResult,
    run_baseline_comparison,
)
from repro.experiments.sweeps import NoiseSweepResult, run_noise_sweep
from repro.experiments.mitigation_comparison import (
    MitigationComparisonResult,
    run_mitigation_comparison,
)
from repro.experiments.amplification import AmplificationResult, run_amplification

__all__ = [
    "AmplificationResult",
    "BaselineComparisonResult",
    "Fig6Result",
    "Fig7Result",
    "MitigationComparisonResult",
    "NoiseSweepResult",
    "ParityAblationResult",
    "PhaseAblationResult",
    "ScalingResult",
    "Sec43Result",
    "Table1Result",
    "Table2Result",
    "run_amplification",
    "run_baseline_comparison",
    "run_fig6",
    "run_fig7",
    "run_mitigation_comparison",
    "run_noise_sweep",
    "run_parity_ablation",
    "run_phase_ablation",
    "run_scaling",
    "run_sec43",
    "run_table1",
    "run_table2",
]
