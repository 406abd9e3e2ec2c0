"""A2: assertion overhead and scaling on the stabilizer engine.

All three assertion circuits are Clifford, so the CHP tableau engine runs
the full instrumented pipeline at sizes the statevector engine cannot touch.
For GHZ(n), n up to hundreds, we record the instrumentation overhead (extra
qubits / gates / depth) of each entanglement-assertion mode and verify the
assertion still passes deterministically at scale.

All (size, mode) configurations are submitted as one batch through
:func:`repro.runtime.execute`; per-row timings come from each job's
measured engine wall-clock.  The batch runs serially by default: the
tableau pass is a run of small NumPy calls that hold the GIL between
them, so concurrent jobs would inflate each other's measured time.  Pass
``max_workers`` explicitly to trade timing fidelity for throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.circuits.library import ghz_state
from repro.core.filtering import evaluate_assertions
from repro.core.injector import AssertionInjector
from repro.runtime.execute import execute
from repro.runtime.provider import get_backend


@dataclass
class ScalingResult:
    """Outcome of the scaling study.

    Attributes
    ----------
    rows:
        ``(n, mode, extra_qubits, extra_cx, pass_rate, seconds)`` per GHZ
        size and assertion mode.
    shots:
        Shots per configuration.
    """

    rows: List[Tuple[int, str, int, int, float, float]] = field(default_factory=list)
    shots: int = 0

    def summary(self) -> str:
        """Render the scaling table."""
        lines = [
            "A2 — assertion overhead & scaling (stabilizer engine, ideal)",
            f"{'n':>4} | {'mode':>8} | {'anc':>4} | {'+cx':>4} | "
            f"{'pass rate':>9} | {'sec':>7}",
            "-" * 50,
        ]
        for n, mode, ancillas, cx, pass_rate, seconds in self.rows:
            lines.append(
                f"{n:>4} | {mode:>8} | {ancillas:>4} | {cx:>4} | "
                f"{pass_rate:>9.4f} | {seconds:>7.3f}"
            )
        return "\n".join(lines)


def run_scaling(
    sizes: Tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    shots: int = 256,
    seed: Optional[int] = 5,
    max_workers: Optional[int] = 1,
    executor: Optional[str] = None,
) -> ScalingResult:
    """Instrument GHZ(n) with each entanglement-assertion mode and run it.

    ``max_workers`` defaults to 1 so per-row wall-clock timings measure one
    engine run at a time (see the module docstring); counts are
    seed-deterministic at any worker count and executor kind.
    """
    result = ScalingResult(shots=shots)
    configs = []  # (n, mode, injector)
    for n in sizes:
        for mode in ("pairwise", "single"):
            injector = AssertionInjector(ghz_state(n))
            injector.assert_entangled(list(range(n)), mode=mode)
            injector.measure_program()
            configs.append((n, mode, injector))
    # dedupe=False: the study measures per-configuration engine time, so
    # coinciding configurations (GHZ(2) pairwise == single) must still run.
    jobs = execute(
        [injector.circuit for _n, _mode, injector in configs],
        get_backend("stabilizer"),
        shots=shots,
        seed=seed,
        max_workers=max_workers,
        executor=executor,
        dedupe=False,
    )
    for (n, mode, injector), job in zip(configs, jobs):
        run = job.result()
        report = evaluate_assertions(run.counts, injector.records)
        overhead = injector.overhead()
        result.rows.append(
            (
                n,
                mode,
                overhead["extra_qubits"],
                overhead["extra_cx"],
                report.pass_rate,
                job.time_taken,
            )
        )
    return result
