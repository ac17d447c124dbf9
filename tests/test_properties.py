"""Property-based tests (hypothesis) for core invariants.

These cover the mathematical properties the rest of the system relies on:
metric symmetry and bounds, permutation invariance of partition measures,
consensus-matrix structure, normalisation idempotence, graphoid
monotonicity, and the array-native graph agreeing with its dict-loop
reference.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.consensus import build_consensus_matrix
from repro.graph.graphoid import (
    edge_exclusivity,
    edge_representativity,
    extract_gamma_graphoid,
    extract_lambda_graphoid,
    node_exclusivity,
    node_representativity,
)
from repro.graph.structure import TimeSeriesGraph, assemble_reference
from repro.metrics.clustering import (
    adjusted_rand_index,
    normalized_mutual_information,
    purity_score,
    rand_index,
)
from repro.metrics.distances import dtw_distance, euclidean_distance, sbd_distance
from repro.pipeline.fingerprint import fingerprint
from repro.utils.normalization import znormalize
from repro.utils.windows import sliding_window_matrix

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def series_strategy(min_size=4, max_size=40):
    return arrays(dtype=np.float64, shape=st.integers(min_size, max_size), elements=finite_floats)


def labels_strategy(n):
    return st.lists(st.integers(0, 4), min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# distance properties
# ---------------------------------------------------------------------------
class TestDistanceProperties:
    @given(series_strategy())
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero(self, series):
        assert euclidean_distance(series, series) == pytest.approx(0.0, abs=1e-9)
        assert dtw_distance(series, series) == pytest.approx(0.0, abs=1e-9)

    @given(series_strategy(8, 32), series_strategy(8, 32))
    @settings(max_examples=30, deadline=None)
    def test_sbd_bounds_and_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        d_ab = sbd_distance(a, b)
        d_ba = sbd_distance(b, a)
        assert 0.0 - 1e-9 <= d_ab <= 2.0 + 1e-9
        assert d_ab == pytest.approx(d_ba, abs=1e-7)

    @given(series_strategy(8, 32), series_strategy(8, 32))
    @settings(max_examples=30, deadline=None)
    def test_euclidean_symmetry_and_nonnegativity(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert euclidean_distance(a, b) >= 0.0
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))

    @given(series_strategy(8, 32))
    @settings(max_examples=30, deadline=None)
    def test_dtw_never_exceeds_euclidean(self, series):
        rng = np.random.default_rng(0)
        other = series + rng.normal(0, 1.0, size=series.shape[0])
        assert dtw_distance(series, other) <= euclidean_distance(series, other) + 1e-9


# ---------------------------------------------------------------------------
# clustering-measure properties
# ---------------------------------------------------------------------------
class TestPartitionMeasureProperties:
    @given(st.integers(5, 30).flatmap(lambda n: st.tuples(labels_strategy(n), labels_strategy(n))))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_bounds(self, pair):
        a, b = pair
        assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a), abs=1e-9)
        assert -1.0 - 1e-9 <= adjusted_rand_index(a, b) <= 1.0 + 1e-9
        assert 0.0 <= rand_index(a, b) <= 1.0
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0
        assert 0.0 <= purity_score(a, b) <= 1.0

    @given(st.integers(5, 30).flatmap(labels_strategy))
    @settings(max_examples=40, deadline=None)
    def test_self_agreement_is_perfect(self, labels):
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)
        assert purity_score(labels, labels) == pytest.approx(1.0)

    @given(
        st.integers(5, 25).flatmap(labels_strategy),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=40, deadline=None)
    def test_label_permutation_invariance(self, labels, permutation):
        renamed = [permutation[value] for value in labels]
        assert adjusted_rand_index(labels, renamed) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# consensus-matrix properties
# ---------------------------------------------------------------------------
class TestConsensusProperties:
    @given(
        st.integers(4, 15).flatmap(
            lambda n: st.lists(labels_strategy(n), min_size=1, max_size=5)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_consensus_matrix_structure(self, partitions):
        matrix = build_consensus_matrix([np.asarray(p) for p in partitions])
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.all(matrix >= -1e-12) and np.all(matrix <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# normalisation / windowing properties
# ---------------------------------------------------------------------------
class TestTransformProperties:
    @given(series_strategy(4, 60))
    @settings(max_examples=40, deadline=None)
    def test_znormalize_idempotent(self, series):
        once = znormalize(series)
        twice = znormalize(once)
        assert np.allclose(once, twice, atol=1e-7)

    @given(series_strategy(4, 60))
    @settings(max_examples=40, deadline=None)
    def test_znormalize_output_stats(self, series):
        normalized = znormalize(series)
        assert abs(float(normalized.mean())) < 1e-6
        std = float(normalized.std())
        assert std == pytest.approx(1.0, abs=1e-6) or std == 0.0

    @given(series_strategy(10, 60), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_sliding_windows_reconstruct_series(self, series, window):
        window = min(window, series.shape[0])
        windows = sliding_window_matrix(series, window)
        assert windows.shape == (series.shape[0] - window + 1, window)
        # First column equals the series prefix; every window is a contiguous slice.
        assert np.allclose(windows[:, 0], series[: windows.shape[0]])
        for offset in range(windows.shape[0]):
            assert np.allclose(windows[offset], series[offset: offset + window])


# ---------------------------------------------------------------------------
# graphoid monotonicity on a real fitted model
# ---------------------------------------------------------------------------
class TestGraphoidProperties:
    @given(low=st.floats(0.0, 1.0), high=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_threshold_monotonicity(self, fitted_kgraph, low, high):
        low, high = sorted((low, high))
        graph = fitted_kgraph.result_.optimal_graph
        labels = fitted_kgraph.result_.labels
        cluster = int(labels[0])
        loose_gamma = extract_gamma_graphoid(graph, labels, cluster, low)
        strict_gamma = extract_gamma_graphoid(graph, labels, cluster, high)
        assert set(strict_gamma.nodes) <= set(loose_gamma.nodes)
        loose_lambda = extract_lambda_graphoid(graph, labels, cluster, low)
        strict_lambda = extract_lambda_graphoid(graph, labels, cluster, high)
        assert set(strict_lambda.nodes) <= set(loose_lambda.nodes)


# ---------------------------------------------------------------------------
# array-native graph vs the dict-loop reference
# ---------------------------------------------------------------------------
@st.composite
def assignment_sequences(draw):
    """(n_nodes, n_series, node_ids, series_indices) of a random assignment.

    Covers single-node graphs, one-subsequence and empty series, and series
    ids in arbitrary order as well as grouped (the embedding's order).
    """
    n_nodes = draw(st.integers(1, 5))
    n_series = draw(st.integers(1, 6))
    size = draw(st.integers(0, 40))
    nodes = draw(st.lists(st.integers(0, n_nodes - 1), min_size=size, max_size=size))
    series = draw(st.lists(st.integers(0, n_series - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        series = sorted(series)
    return n_nodes, n_series, nodes, series


def _count_matrix_reference(counts_by_column, n_series, normalize):
    matrix = np.zeros((n_series, len(counts_by_column)))
    for column, counts in enumerate(counts_by_column):
        for series, count in counts.items():
            matrix[int(series), column] = count
    if normalize:
        sums = matrix.sum(axis=1, keepdims=True)
        matrix = matrix / np.where(sums == 0, 1.0, sums)
    return matrix


def _scores_reference(crossing_by_item, labels, exclusive):
    """The set-membership loops the one-bincount scores replaced."""
    members = {int(c): set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}
    result = {cluster: {} for cluster in members}
    for item, crossing in crossing_by_item.items():
        for cluster, member_set in members.items():
            count = len(member_set & crossing)
            if exclusive:
                result[cluster][item] = count / len(crossing) if crossing else 0.0
            else:
                result[cluster][item] = count / len(member_set)
    return result


class TestArrayGraphProperties:
    @given(assignment_sequences(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_array_graph_matches_dict_reference(self, case, data):
        n_nodes, n_series, nodes, series = case
        positions = [(float(node), 0.5) for node in range(n_nodes)]
        patterns = np.arange(n_nodes * 3, dtype=float).reshape(n_nodes, 3)
        graph = TimeSeriesGraph.from_assignments(3, n_series, positions, patterns, nodes, series)
        reference = assemble_reference(3, n_series, positions, nodes, series)
        assert graph.to_payload() == reference

        node_counts = [reference["node_series"][str(node)] for node in range(n_nodes)]
        edge_counts = [counts for _, _, counts in reference["edge_series"]]
        for normalize in (False, True):
            assert np.array_equal(
                graph.node_feature_matrix(normalize),
                _count_matrix_reference(node_counts, n_series, normalize),
            )
            assert np.array_equal(
                graph.edge_feature_matrix(normalize),
                _count_matrix_reference(edge_counts, n_series, normalize),
            )

        labels = np.array(data.draw(labels_strategy(n_series)))
        node_crossing = {node: {int(s) for s in counts} for node, counts in enumerate(node_counts)}
        edge_crossing = {
            (source, target): {int(s) for s in counts}
            for source, target, counts in reference["edge_series"]
        }
        assert node_representativity(graph, labels) == _scores_reference(node_crossing, labels, False)
        assert node_exclusivity(graph, labels) == _scores_reference(node_crossing, labels, True)
        assert edge_representativity(graph, labels) == _scores_reference(edge_crossing, labels, False)
        assert edge_exclusivity(graph, labels) == _scores_reference(edge_crossing, labels, True)

        # A graph loaded from its JSON payload is the same content.
        restored = TimeSeriesGraph.from_payload(json.loads(json.dumps(reference)), patterns)
        assert restored.to_payload() == reference
        assert fingerprint(restored) == fingerprint(graph)
