"""Tests for Topology and its generators."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.generators import (
    balanced_tree,
    broadcast_cluster,
    complete,
    grid,
    line,
    random_geometric,
    ring,
    star,
    two_nodes,
)


class TestTopologyValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_rejects_sub_unit_minimum(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_accepts_above_unit_minimum(self):
        # The unit is a floor: two nodes at distance 2 are expressible.
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert Topology.fully_connected(d).min_distance == 2.0

    def test_relaxed_minimum_when_asked(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        topo = Topology(
            d, frozenset({(0, 1)}), require_unit_min=False
        )
        assert topo.min_distance == 0.5

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(np.zeros((1, 1)))

    def test_rejects_bad_edge(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology(d, frozenset({(0, 5)}))

    def test_radius_isolation_detected(self):
        d = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 10.0], [10.0, 10.0, 0.0]]
        )
        with pytest.raises(TopologyError):
            Topology.with_radius(d, 1.0)


class TestTopologyQueries:
    def test_line_basics(self):
        topo = line(5)
        assert topo.n == 5
        assert topo.diameter == 4.0
        assert topo.min_distance == 1.0
        assert topo.distance(0, 3) == 3.0

    def test_neighbors_radius_one(self):
        topo = line(5)
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(2) == [1, 3]

    def test_neighbors_radius_two(self):
        topo = line(5, comm_radius=2.0)
        assert topo.neighbors(2) == [0, 1, 3, 4]

    def test_degree_and_max_degree(self):
        topo = line(5)
        assert topo.degree(0) == 1
        assert topo.max_degree == 2

    def test_pairs_count(self):
        topo = line(5)
        assert len(list(topo.pairs())) == 10

    def test_adjacent_pairs(self):
        topo = line(4)
        assert topo.adjacent_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_pairs_at_distance(self):
        topo = line(4)
        assert topo.pairs_at_distance(3.0) == [(0, 3)]

    def test_comm_pairs_sorted(self):
        topo = line(4)
        assert topo.comm_pairs() == [(0, 1), (1, 2), (2, 3)]


class TestGenerators:
    def test_line_rejects_tiny(self):
        with pytest.raises(TopologyError):
            line(1)

    def test_ring_wraps(self):
        topo = ring(6)
        assert topo.distance(0, 5) == 1.0
        assert topo.distance(0, 3) == 3.0
        assert topo.diameter == 3.0

    def test_grid_manhattan(self):
        topo = grid(3, 4)
        assert topo.n == 12
        assert topo.distance(0, 11) == 2 + 3
        assert topo.positions is not None

    def test_complete_uniform(self):
        topo = complete(5, distance=1.0)
        assert topo.diameter == 1.0
        assert all(topo.distance(i, j) == 1.0 for i, j in topo.pairs())

    def test_star_shape(self):
        topo = star(4)
        assert topo.n == 5
        assert topo.distance(0, 3) == 1.0
        assert topo.distance(1, 2) == 2.0
        assert topo.neighbors(0) == [1, 2, 3, 4]

    def test_balanced_tree(self):
        topo = balanced_tree(2, 2)  # 7 nodes
        assert topo.n == 7
        assert topo.distance(0, 1) == 1.0
        # two leaves under different children of the root: distance 4
        assert topo.distance(3, 6) == 4.0

    def test_balanced_tree_rejects_bad_params(self):
        with pytest.raises(TopologyError):
            balanced_tree(1, 2)

    def test_random_geometric_normalized(self):
        topo = random_geometric(12, seed=3)
        assert topo.min_distance == pytest.approx(1.0)
        assert topo.positions is not None
        # deterministic for a seed
        again = random_geometric(12, seed=3)
        assert np.allclose(topo.distances, again.distances)

    def test_broadcast_cluster_tiny_uncertainty(self):
        topo = broadcast_cluster(6, uncertainty=0.01)
        assert topo.diameter == pytest.approx(0.01)
        assert not topo.require_unit_min

    def test_two_nodes(self):
        topo = two_nodes(5.0)
        assert topo.n == 2
        assert topo.diameter == 5.0

    def test_two_nodes_rejects_below_unit(self):
        with pytest.raises(TopologyError):
            two_nodes(0.5)


# ----------------------------------------------------------------------
# numpy setup paths vs. the O(n^2) python loops they replaced


def _grid_distances_loop(rows, cols):
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    n = len(coords)
    d = np.zeros((n, n))
    for a, (ra, ca) in enumerate(coords):
        for b, (rb, cb) in enumerate(coords):
            d[a, b] = abs(ra - rb) + abs(ca - cb)
    return d


def _radius_edges_loop(d, radius):
    n = d.shape[0]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if d[i, j] <= radius + 1e-9
    )


def _pairs_at_distance_loop(topo, d, tol=1e-9):
    return [(i, j) for i, j in topo.pairs() if abs(topo.distance(i, j) - d) <= tol]


_RADII = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0])


@st.composite
def _topologies(draw):
    """(topology, radius, grid shape) over every generator family;
    radius is ``None`` for the fully connected ``complete``, the shape
    ``None`` for every family but ``grid``."""
    family = draw(st.sampled_from(["line", "ring", "grid", "star", "complete",
                                   "geometric"]))
    if family == "line":
        radius = draw(_RADII)
        return line(draw(st.integers(2, 150)), comm_radius=radius), radius, None
    if family == "ring":
        radius = draw(_RADII)
        return ring(draw(st.integers(3, 150)), comm_radius=radius), radius, None
    if family == "grid":
        rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        assume(rows * cols >= 2)
        radius = draw(_RADII)
        return grid(rows, cols, comm_radius=radius), radius, (rows, cols)
    if family == "star":
        arm = draw(st.sampled_from([1.0, 1.25, 2.0, 3.5]))
        return star(draw(st.integers(1, 140)), arm=arm), arm, None
    if family == "complete":
        distance = draw(st.sampled_from([1.0, 1.5, 7.0]))
        return complete(draw(st.integers(2, 100)), distance=distance), None, None
    topo = random_geometric(draw(st.integers(2, 90)), seed=draw(st.integers(0, 50)))
    radius = float(
        max(2.0, np.where(np.eye(topo.n, dtype=bool), np.inf, topo.distances)
            .min(axis=1).max())
    )
    return topo, radius, None


class TestNumpySetupMatchesLoops:
    """``grid``'s distance fill, ``with_radius``'s edge scan and
    ``pairs_at_distance`` are numpy; the python loops they replaced
    are the oracles — equal matrices, equal edge sets, and identical
    pair lists, order and element types included."""

    @staticmethod
    def check(topo, radius, shape, d):
        if shape is not None:
            assert np.array_equal(topo.distances, _grid_distances_loop(*shape))
        if radius is not None:
            assert topo.comm_edges == _radius_edges_loop(topo.distances, radius)
        adjacent = topo.adjacent_pairs()
        assert adjacent == _pairs_at_distance_loop(topo, topo.min_distance)
        assert all(type(i) is int and type(j) is int for i, j in adjacent)
        assert topo.pairs_at_distance(d) == _pairs_at_distance_loop(topo, d)
        assert all(type(i) is int for pair in topo.comm_edges for i in pair)

    @settings(max_examples=120, deadline=None)
    @given(_topologies(), st.data())
    def test_matches_loop_oracles(self, case, data):
        topo, radius, shape = case
        d = data.draw(st.sampled_from(sorted(set(topo.distances.ravel().tolist()))))
        self.check(topo, radius, shape, d)

    @pytest.mark.parametrize(
        "build, radius, shape",
        [
            (lambda: line(200, comm_radius=2.5), 2.5, None),
            (lambda: ring(131, comm_radius=3.0), 3.0, None),
            (lambda: grid(9, 15, comm_radius=2.0), 2.0, (9, 15)),
            (lambda: star(100, arm=1.5), 1.5, None),
            (lambda: complete(70, distance=2.0), None, None),
        ],
        ids=["line", "ring", "grid", "star", "complete"],
    )
    def test_matches_loop_oracles_across_row_blocks(self, build, radius, shape):
        # Past one 64-row block, so the blockwise scan's offsets count.
        topo = build()
        for d in (topo.min_distance, topo.diameter, float(np.median(topo.distances))):
            self.check(topo, radius, shape, d)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_grid_positions_match_coordinates(self, rows, cols):
        assume(rows * cols >= 2)
        positions = grid(rows, cols).positions
        assert positions == {
            r * cols + c: (float(c), float(r))
            for r in range(rows)
            for c in range(cols)
        }
