"""Unit tests for the TimeSeriesGraph structure."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError, ValidationError
from repro.graph.structure import TimeSeriesGraph


@pytest.fixture()
def toy_graph() -> TimeSeriesGraph:
    """A small hand-built graph over 3 series and 3 nodes.

    Series 0 visits 0 -> 1 -> 0, series 1 visits 1 -> 2, series 2 visits 2 -> 2.
    """
    return TimeSeriesGraph.from_assignments(
        length=4,
        n_series=3,
        positions=[(float(node), 0.0) for node in range(3)],
        patterns=[np.full(4, float(node)) for node in range(3)],
        node_ids=[0, 1, 0, 1, 2, 2, 2],
        series_indices=[0, 0, 0, 1, 1, 2, 2],
    )


class TestConstruction:
    def test_counts(self, toy_graph):
        assert toy_graph.n_nodes == 3
        assert toy_graph.n_edges == 4
        assert toy_graph.nodes() == [0, 1, 2]
        assert toy_graph.edges() == [(0, 1), (1, 0), (1, 2), (2, 2)]

    def test_duplicate_node_rejected(self, toy_graph):
        with pytest.raises(GraphConstructionError):
            toy_graph.add_node([(0.0, 0.0)], np.zeros((1, 4)))

    def test_bad_position_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeriesGraph.from_assignments(4, 1, [(0.0, 0.0, 0.0)], np.zeros((1, 4)), [], [])

    def test_unknown_node_visit_rejected(self, toy_graph):
        with pytest.raises(GraphConstructionError, match="unknown node"):
            TimeSeriesGraph.from_assignments(4, 1, [(0.0, 0.0)], np.zeros((1, 4)), [0, 9], [0, 0])
        with pytest.raises(GraphConstructionError, match="unknown edge endpoint"):
            toy_graph.add_transitions([0], [9], [0])

    def test_unknown_series_rejected(self):
        with pytest.raises(ValidationError, match="unknown series"):
            TimeSeriesGraph.from_assignments(4, 2, [(0.0, 0.0)], np.zeros((1, 4)), [0], [2])


class TestAccessors:
    def test_weights(self, toy_graph):
        assert toy_graph.node_weight(0) == 2
        assert toy_graph.node_weight(2) == 3
        assert toy_graph.edge_weight((2, 2)) == 1
        assert toy_graph.edge_weight((0, 2)) == 0

    def test_series_through(self, toy_graph):
        assert toy_graph.series_through_node(0) == [0]
        assert toy_graph.series_through_node(1) == [0, 1]
        assert toy_graph.series_through_node(2) == [1, 2]
        assert toy_graph.series_through_edge((1, 2)) == [1]

    def test_visit_counts(self, toy_graph):
        assert toy_graph.node_visit_counts(0) == {0: 2}
        assert toy_graph.edge_visit_counts((2, 2)) == {2: 1}

    def test_trajectory(self, toy_graph):
        assert toy_graph.trajectory(0) == [0, 1, 0]
        assert toy_graph.trajectory(2) == [2, 2]
        assert toy_graph.trajectory(99) == []

    def test_node_pattern_copy(self, toy_graph):
        pattern = toy_graph.node_pattern(1)
        pattern[:] = -1
        assert np.all(toy_graph.node_pattern(1) == 1.0)


class TestMatrices:
    def test_node_feature_matrix_counts(self, toy_graph):
        matrix = toy_graph.node_feature_matrix(normalize=False)
        assert matrix.shape == (3, 3)
        assert matrix[0].tolist() == [2.0, 1.0, 0.0]
        assert matrix[2].tolist() == [0.0, 0.0, 2.0]

    def test_node_feature_matrix_normalized_rows_sum_to_one(self, toy_graph):
        matrix = toy_graph.node_feature_matrix(normalize=True)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_edge_feature_matrix(self, toy_graph):
        matrix = toy_graph.edge_feature_matrix(normalize=False)
        assert matrix.shape == (3, 4)
        assert matrix.sum() == 4.0  # four recorded transitions

    def test_combined_feature_matrix(self, toy_graph):
        combined = toy_graph.feature_matrix()
        assert combined.shape == (3, 7)

    def test_adjacency_matrix(self, toy_graph):
        adjacency = toy_graph.adjacency_matrix()
        assert adjacency.shape == (3, 3)
        assert adjacency[1, 2] == 1
        assert adjacency[2, 2] == 1
        assert adjacency.sum() == 4


class TestInterop:
    def test_to_networkx(self, toy_graph):
        nx_graph = toy_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == 4
        assert nx_graph.nodes[1]["n_series"] == 2
        assert nx_graph.edges[(1, 2)]["weight"] == 1

    def test_summary_serialisable(self, toy_graph):
        import json

        text = json.dumps(toy_graph.summary())
        assert '"n_nodes": 3' in text

    def test_payload_round_trip_is_lossless(self, toy_graph):
        import json

        import numpy as np

        from repro.graph.structure import TimeSeriesGraph

        payload = json.loads(json.dumps(toy_graph.to_payload()))  # via real JSON
        patterns = np.vstack([toy_graph.node_pattern(n) for n in toy_graph.nodes()])
        restored = TimeSeriesGraph.from_payload(payload, patterns)
        assert restored.nodes() == toy_graph.nodes()
        assert restored.edges() == toy_graph.edges()
        assert restored.node_positions() == toy_graph.node_positions()
        assert np.array_equal(restored.feature_matrix(), toy_graph.feature_matrix())
        assert np.array_equal(restored.adjacency_matrix(), toy_graph.adjacency_matrix())
        for node in toy_graph.nodes():
            assert restored.node_visit_counts(node) == toy_graph.node_visit_counts(node)
        for series in range(toy_graph.n_series):
            assert restored.trajectory(series) == toy_graph.trajectory(series)

    def test_from_payload_rejects_pattern_mismatch(self, toy_graph):
        import numpy as np
        import pytest as _pytest

        from repro.exceptions import ValidationError
        from repro.graph.structure import TimeSeriesGraph

        payload = toy_graph.to_payload()
        with _pytest.raises(ValidationError, match="pattern matrix"):
            TimeSeriesGraph.from_payload(payload, np.zeros((1, toy_graph.length)))
