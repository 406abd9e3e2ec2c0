"""Coupling maps: which qubit pairs support a native CX, and in which
direction.

``ibmqx4``'s CNOTs are *directed* (cross-resonance gates have a fixed
control/target orientation), which is why the paper had to pick q2 as the
ancilla for the Table 1 experiment.  The transpiler uses this class for
layout, routing and direction fixing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import DeviceError


class CouplingMap:
    """A directed graph of native two-qubit interactions.

    Parameters
    ----------
    edges:
        Iterable of ``(control, target)`` pairs.
    num_qubits:
        Total device size; inferred from the edges when omitted.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        num_qubits: Optional[int] = None,
    ) -> None:
        edge_list = [(int(a), int(b)) for a, b in edges]
        for a, b in edge_list:
            if a == b:
                raise DeviceError(f"self-loop edge ({a}, {b}) is not allowed")
            if a < 0 or b < 0:
                raise DeviceError(f"negative qubit index in edge ({a}, {b})")
        inferred = 1 + max((max(a, b) for a, b in edge_list), default=-1)
        self.num_qubits = num_qubits if num_qubits is not None else inferred
        if self.num_qubits < inferred:
            raise DeviceError(
                f"num_qubits={num_qubits} is smaller than the largest edge index"
            )
        # Dicts used as ordered sets.  Neighbour order is the order in which
        # ``(qubit, successor)`` pairs are first met, scanning qubits in index
        # order: the search order below, and so the routed paths, depend on it.
        self._successors: Dict[int, Dict[int, None]] = {
            q: {} for q in range(self.num_qubits)
        }
        for a, b in edge_list:
            self._successors[a][b] = None
        self._adjacent: Dict[int, Dict[int, None]] = {
            q: {} for q in range(self.num_qubits)
        }
        for a, successors in self._successors.items():
            for b in successors:
                self._adjacent[a][b] = None
                self._adjacent[b][a] = None

    # ------------------------------------------------------------------

    @property
    def directed_edges(self) -> List[Tuple[int, int]]:
        """Return the native ``(control, target)`` pairs."""
        return sorted((a, b) for a, succ in self._successors.items() for b in succ)

    @property
    def undirected_edges(self) -> List[Tuple[int, int]]:
        """Return connected pairs regardless of direction."""
        return sorted((a, b) for a, adj in self._adjacent.items() for b in adj if a < b)

    def supports(self, control: int, target: int) -> bool:
        """Return True if a native CX exists with this exact orientation."""
        return target in self._successors.get(control, ())

    def connected(self, a: int, b: int) -> bool:
        """Return True if the pair interacts in either direction."""
        return b in self._adjacent.get(a, ())

    def neighbors(self, qubit: int) -> List[int]:
        """Return qubits connected to ``qubit`` (either direction)."""
        self._check(qubit)
        return sorted(self._adjacent[qubit])

    def distance(self, a: int, b: int) -> int:
        """Return the undirected shortest-path distance between two qubits."""
        return len(self.shortest_path(a, b)) - 1

    def shortest_path(self, a: int, b: int) -> List[int]:
        """Return an undirected shortest path between two qubits.

        A breadth-first search from both ends at once, always growing the
        smaller frontier by one level, that stops at the first qubit both
        searches have reached.
        """
        self._check(a)
        self._check(b)
        if a == b:
            return [a]
        adjacent = self._adjacent
        pred: Dict[int, Optional[int]] = {a: None}
        succ: Dict[int, Optional[int]] = {b: None}
        forward, reverse = [a], [b]
        while forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                for v in level:
                    for w in adjacent[v]:
                        if w not in pred:
                            forward.append(w)
                            pred[w] = v
                        if w in succ:
                            return _join(pred, succ, w)
            else:
                level, reverse = reverse, []
                for v in level:
                    for w in adjacent[v]:
                        if w not in succ:
                            succ[w] = v
                            reverse.append(w)
                        if w in pred:
                            return _join(pred, succ, w)
        raise DeviceError(f"qubits {a} and {b} are disconnected")

    def is_connected(self) -> bool:
        """Return True if every qubit can reach every other."""
        if self.num_qubits <= 1:
            return True
        return len(self._distances_from(0)) == self.num_qubits

    def distance_matrix(self) -> Dict[Tuple[int, int], int]:
        """Return all-pairs undirected distances between connected qubits."""
        return {
            (source, target): dist
            for source in range(self.num_qubits)
            for target, dist in self._distances_from(source).items()
        }

    def _distances_from(self, source: int) -> Dict[int, int]:
        """Return the distance to each reachable qubit, in breadth-first order."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            level, frontier = frontier, []
            for v in level:
                for w in self._adjacent[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        frontier.append(w)
        return dist

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise DeviceError(
                f"qubit {qubit} out of range for a {self.num_qubits}-qubit device"
            )

    def __repr__(self) -> str:
        return (
            f"CouplingMap(num_qubits={self.num_qubits}, "
            f"edges={self.directed_edges})"
        )


def _join(
    pred: Dict[int, Optional[int]], succ: Dict[int, Optional[int]], meet: int
) -> List[int]:
    """Splice the two half-paths of a bidirectional search at ``meet``."""
    path: List[int] = []
    node: Optional[int] = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path
