"""Tests for coupling maps."""

import json
from pathlib import Path

import pytest

from repro.devices.generic import fully_connected_device, grid_device, linear_device
from repro.devices.ibmqx4 import ibmqx4
from repro.devices.topology import CouplingMap
from repro.exceptions import DeviceError

# ``shortest_paths.json`` holds, per device, the path between every ordered
# pair of distinct qubits (source-major, then target), captured from
# networkx 3.6.1 as ``nx.shortest_path(undirected, a, b)`` while
# ``CouplingMap`` was still backed by networkx.  The transpiler routes
# through ``shortest_path``, so these paths are what keep routed circuits
# unchanged.
PINNED_PATHS = json.loads(
    Path(__file__).with_name("shortest_paths.json").read_text()
)

DEVICES = {
    "ibmqx4": ibmqx4,
    "linear_3": lambda: linear_device(3),
    "linear_5": lambda: linear_device(5),
    "linear_8": lambda: linear_device(8),
    "grid_2x2": lambda: grid_device(2, 2),
    "grid_2x3": lambda: grid_device(2, 3),
    "grid_3x3": lambda: grid_device(3, 3),
    "grid_4x4": lambda: grid_device(4, 4),
    "grid_3x5": lambda: grid_device(3, 5),
    "fully_connected_5": lambda: fully_connected_device(5),
}

# ``distance_matrix()`` items, in order, captured the same way.
IBMQX4_DISTANCES = [
    ((0, 0), 0), ((0, 1), 1), ((0, 2), 1), ((0, 4), 2), ((0, 3), 2),
    ((1, 1), 0), ((1, 0), 1), ((1, 2), 1), ((1, 4), 2), ((1, 3), 2),
    ((2, 2), 0), ((2, 0), 1), ((2, 1), 1), ((2, 4), 1), ((2, 3), 1),
    ((3, 3), 0), ((3, 2), 1), ((3, 4), 1), ((3, 0), 2), ((3, 1), 2),
    ((4, 4), 0), ((4, 2), 1), ((4, 3), 1), ((4, 0), 2), ((4, 1), 2),
]  # fmt: skip
SPLIT_DISTANCES = [
    ((0, 0), 0), ((0, 1), 1), ((1, 1), 0), ((1, 0), 1),
    ((2, 2), 0), ((2, 3), 1), ((3, 3), 0), ((3, 2), 1), ((4, 4), 0),
]  # fmt: skip


def bowtie():
    """The ibmqx4 directed bow-tie."""
    return CouplingMap([(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (2, 4)], num_qubits=5)


class TestConstruction:
    def test_inferred_size(self):
        assert CouplingMap([(0, 1), (1, 2)]).num_qubits == 3

    def test_explicit_size_validated(self):
        with pytest.raises(DeviceError, match="smaller"):
            CouplingMap([(0, 5)], num_qubits=3)

    def test_self_loop_rejected(self):
        with pytest.raises(DeviceError, match="self-loop"):
            CouplingMap([(1, 1)])

    def test_negative_index_rejected(self):
        with pytest.raises(DeviceError):
            CouplingMap([(-1, 0)])


class TestQueries:
    def test_directed_support(self):
        cmap = bowtie()
        assert cmap.supports(2, 1)
        assert not cmap.supports(1, 2)

    def test_undirected_connectivity(self):
        cmap = bowtie()
        assert cmap.connected(1, 2)
        assert cmap.connected(2, 1)
        assert not cmap.connected(0, 4)

    def test_neighbors(self):
        assert bowtie().neighbors(2) == [0, 1, 3, 4]

    def test_distance(self):
        cmap = bowtie()
        assert cmap.distance(0, 1) == 1
        assert cmap.distance(0, 4) == 2
        assert cmap.distance(0, 0) == 0

    def test_shortest_path_endpoints(self):
        path = bowtie().shortest_path(0, 3)
        assert path[0] == 0
        assert path[-1] == 3
        assert len(path) == 3  # through q2

    def test_disconnected_distance_raises(self):
        cmap = CouplingMap([(0, 1)], num_qubits=3)
        with pytest.raises(DeviceError, match="disconnected"):
            cmap.distance(0, 2)

    def test_is_connected(self):
        assert bowtie().is_connected()
        assert not CouplingMap([(0, 1)], num_qubits=3).is_connected()

    def test_distance_matrix_symmetry(self):
        matrix = bowtie().distance_matrix()
        for (a, b), d in matrix.items():
            assert matrix[(b, a)] == d

    def test_qubit_range_checked(self):
        with pytest.raises(DeviceError, match="out of range"):
            bowtie().neighbors(9)

    def test_edge_listings(self):
        cmap = bowtie()
        assert (2, 4) in cmap.directed_edges
        assert (2, 4) in cmap.undirected_edges
        assert (4, 2) not in cmap.undirected_edges  # canonical sorted form


class TestPinnedRouting:
    def test_pins_cover_every_ordered_pair(self):
        assert set(PINNED_PATHS) == set(DEVICES)
        assert sum(len(paths) for paths in PINNED_PATHS.values()) == 686

    @pytest.mark.parametrize("name", sorted(DEVICES))
    def test_shortest_paths_match_pins(self, name):
        cmap = DEVICES[name]().coupling_map
        pairs = [
            (a, b)
            for a in range(cmap.num_qubits)
            for b in range(cmap.num_qubits)
            if a != b
        ]
        assert len(pairs) == len(PINNED_PATHS[name])
        for (a, b), pinned in zip(pairs, PINNED_PATHS[name]):
            assert cmap.shortest_path(a, b) == pinned, (a, b)
            assert cmap.distance(a, b) == len(pinned) - 1
        assert cmap.shortest_path(0, 0) == [0]

    @pytest.mark.parametrize("name", sorted(DEVICES))
    def test_distance_matrix_matches_paths(self, name):
        cmap = DEVICES[name]().coupling_map
        matrix = cmap.distance_matrix()
        n = cmap.num_qubits
        assert len(matrix) == n * n
        for a in range(n):
            assert matrix[(a, a)] == 0
            for b in range(n):
                assert matrix[(a, b)] == len(cmap.shortest_path(a, b)) - 1
        assert cmap.is_connected()

    def test_distance_matrix_order(self):
        assert list(ibmqx4().coupling_map.distance_matrix().items()) == (
            IBMQX4_DISTANCES
        )

    def test_disconnected_map(self):
        cmap = CouplingMap([(0, 1), (3, 2)], num_qubits=5)
        assert not cmap.is_connected()
        assert list(cmap.distance_matrix().items()) == SPLIT_DISTANCES
        assert cmap.shortest_path(2, 3) == [2, 3]
        with pytest.raises(DeviceError, match="qubits 1 and 2 are disconnected"):
            cmap.shortest_path(1, 2)
        with pytest.raises(DeviceError, match="disconnected"):
            cmap.distance(4, 0)

    def test_trivial_maps_are_connected(self):
        assert CouplingMap([], num_qubits=1).is_connected()
        assert CouplingMap([]).is_connected()
        assert not CouplingMap([], num_qubits=2).is_connected()

    def test_ibmqx4_edge_properties(self):
        cmap = ibmqx4().coupling_map
        assert cmap.directed_edges == [(1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (3, 4)]
        assert cmap.undirected_edges == [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        assert [cmap.neighbors(q) for q in range(5)] == [
            [1, 2],
            [0, 2],
            [0, 1, 3, 4],
            [2, 4],
            [2, 3],
        ]
        assert not cmap.supports(0, 1)
        assert not cmap.supports(7, 0)
        assert not cmap.connected(0, 9)

    def test_duplicate_and_reversed_edges_collapse(self):
        cmap = CouplingMap([(0, 1), (0, 1), (1, 0)])
        assert cmap.directed_edges == [(0, 1), (1, 0)]
        assert cmap.undirected_edges == [(0, 1)]

    def test_path_range_checked(self):
        with pytest.raises(DeviceError, match="out of range"):
            bowtie().shortest_path(0, 5)
