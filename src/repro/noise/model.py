"""Device noise models.

A :class:`NoiseModel` attaches Kraus channels to gates (by name, optionally
restricted to specific qubit tuples) and :class:`ReadoutError` confusion
matrices to qubits.  The density-matrix and trajectory engines query it
through two methods:

* ``channels_for(instruction)`` — the channels to apply after a gate,
* ``readout_confusion(qubit)`` — the confusion matrix at measurement time.

``channels_for`` is memoised by ``(gate name, qubits)``; every ``add_*``
method starts a new memo, so a model edited between runs is never
answered from a stale entry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.instructions import Instruction
from repro.exceptions import NoiseError
from repro.noise.channels import KrausChannel
from repro.noise.readout import ReadoutError

#: Key for errors applying to a gate on any qubits.
_ANY = None


class NoiseModel:
    """Maps gates and measurements to noise processes.

    Parameters
    ----------
    name:
        Label reported in result metadata.

    Examples
    --------
    >>> from repro.noise import NoiseModel, depolarizing
    >>> model = NoiseModel("example")
    >>> model.add_gate_error("cx", two_qubit=True, channel=None)  # doctest: +SKIP
    """

    def __init__(self, name: str = "noise") -> None:
        self.name = name
        # gate name -> { qubit tuple or None: [channels] }
        self._gate_errors: Dict[str, Dict[Optional[Tuple[int, ...]], List[KrausChannel]]] = {}
        self._readout_errors: Dict[Optional[int], ReadoutError] = {}
        self._resolved: Dict[Tuple[str, Tuple[int, ...]], list] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_all_qubit_gate_error(
        self, gate_names: Iterable[str], channel: KrausChannel
    ) -> "NoiseModel":
        """Attach ``channel`` to every occurrence of the named gates."""
        for name in gate_names:
            slot = self._gate_errors.setdefault(name.lower(), {})
            slot.setdefault(_ANY, []).append(channel)
        self._resolved = {}
        return self

    def add_gate_error(
        self,
        gate_name: str,
        qubits: Sequence[int],
        channel: KrausChannel,
    ) -> "NoiseModel":
        """Attach ``channel`` to the named gate on a specific qubit tuple.

        For a 1-qubit channel on a multi-qubit gate, attach per-qubit errors
        instead via :meth:`add_gate_error` with a 1-tuple, or use a channel
        whose arity matches the gate.
        """
        key = tuple(int(q) for q in qubits)
        slot = self._gate_errors.setdefault(gate_name.lower(), {})
        slot.setdefault(key, []).append(channel)
        self._resolved = {}
        return self

    def add_readout_error(
        self, error: ReadoutError, qubit: Optional[int] = None
    ) -> "NoiseModel":
        """Attach a readout confusion matrix (``qubit=None`` -> default)."""
        self._readout_errors[qubit] = error
        self._resolved = {}
        return self

    # ------------------------------------------------------------------
    # Queries (engine interface)
    # ------------------------------------------------------------------

    def channels_for(
        self, instruction: Instruction
    ) -> List[Tuple[Tuple[np.ndarray, ...], Tuple[int, ...]]]:
        """Return ``(kraus_operators, target_qubits)`` pairs for a gate.

        Channel arity is matched to the gate: an n-qubit channel applies to
        the gate's full qubit tuple; a 1-qubit channel on a multi-qubit gate
        is applied to **each** operand qubit (the usual device-model
        convention for e.g. per-qubit thermal relaxation during a CX).
        The operator tuples are the channels' own, shared between calls.
        """
        # ``add_*`` replaces the memo after editing the errors, so a lookup
        # racing an edit stores its answer in the discarded memo.
        memo = self._resolved
        key = (instruction.name, tuple(instruction.qubits))
        resolved = memo.get(key)
        if resolved is None:
            resolved = memo[key] = self._resolve(*key)
        return list(resolved)

    def _resolve(
        self, name: str, qubits: Tuple[int, ...]
    ) -> List[Tuple[Tuple[np.ndarray, ...], Tuple[int, ...]]]:
        slot = self._gate_errors.get(name)
        if not slot:
            return []
        channels: List[KrausChannel] = []
        channels.extend(slot.get(qubits, []))
        channels.extend(slot.get(_ANY, []))
        out: List[Tuple[Tuple[np.ndarray, ...], Tuple[int, ...]]] = []
        for channel in channels:
            if channel.num_qubits == len(qubits):
                out.append((channel.operators, qubits))
            elif channel.num_qubits == 1:
                for qubit in qubits:
                    out.append((channel.operators, (qubit,)))
            else:
                raise NoiseError(
                    f"channel {channel.name!r} acts on {channel.num_qubits} "
                    f"qubit(s) but gate {name!r} has {len(qubits)} operand(s)"
                )
        return out

    def readout_confusion(self, qubit: int) -> Optional[np.ndarray]:
        """Return the confusion matrix for ``qubit`` or ``None`` if ideal."""
        error = self._readout_errors.get(qubit, self._readout_errors.get(None))
        return error.matrix if error is not None else None

    def readout_error(self, qubit: int) -> Optional[ReadoutError]:
        """Return the :class:`ReadoutError` object for ``qubit``, if any."""
        return self._readout_errors.get(qubit, self._readout_errors.get(None))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def noisy_gates(self) -> List[str]:
        """Return the gate names with attached errors."""
        return sorted(self._gate_errors)

    def is_ideal(self) -> bool:
        """Return True if no errors are attached."""
        return not self._gate_errors and not self._readout_errors

    def __repr__(self) -> str:
        return (
            f"NoiseModel({self.name!r}, gates={self.noisy_gates}, "
            f"readout_qubits={sorted(k for k in self._readout_errors if k is not None)}"
            f"{', default_readout' if _ANY in self._readout_errors or None in self._readout_errors else ''})"
        )
