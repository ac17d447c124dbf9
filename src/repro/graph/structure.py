"""The attributed directed graph produced by the k-Graph embedding.

A :class:`TimeSeriesGraph` stores, for one subsequence length ℓ, the counts
the paper's graph statistics are defined over, as arrays:

* nodes ``0 .. k-1`` — recurring subsequence patterns, each with a 2-D
  position in the PCA projection, a representative pattern and the number
  of subsequences assigned to it;
* directed edges — lexicographically sorted ``(source, target)`` pairs with
  their transition counts;
* visits and traversals — sorted ``(item, series, count)`` triples, one per
  distinct (node, series) or (edge index, series) pair: how often each time
  series crosses each node or edge (representativity and exclusivity are
  computed from them);
* trajectories — the node sequence visited by every series (one node array
  cut by per-series offsets); this is what the Graph frame highlights when
  the user selects a node.

:meth:`TimeSeriesGraph.from_assignments` is the one construction path;
:func:`assemble_reference` is the per-subsequence dictionary loop it
replaced, kept as its oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError, ValidationError

Edge = Tuple[int, int]


def _int_array(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    return array


def _check_ids(values: np.ndarray, bound: int, what: str, error=ValidationError) -> None:
    bad = values[(values < 0) | (values >= bound)]
    if bad.size:
        raise error(f"unknown {what} {int(bad[0])} (expected 0..{bound - 1})")


def _count_pairs(items: np.ndarray, series: np.ndarray, n_series: int) -> np.ndarray:
    """Sorted ``(item, series, count)`` rows of the distinct (item, series) pairs."""
    base = max(n_series, 1)
    keys, counts = np.unique(items * base + series, return_counts=True)
    return np.column_stack([keys // base, keys % base, counts]).astype(np.int64)


def _sorted_triples(rows: List[Tuple[int, int, int]]) -> np.ndarray:
    triples = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return triples[np.lexsort((triples[:, 1], triples[:, 0]))]


def _check_distinct(pairs: np.ndarray, what: str) -> None:
    if np.any(np.all(pairs[1:] == pairs[:-1], axis=1)):
        raise ValidationError(f"duplicate {what} in graph payload")


class TimeSeriesGraph:
    """Directed transition graph over subsequence patterns.

    Parameters
    ----------
    length:
        Subsequence length ℓ this graph was built for.
    n_series:
        Number of time series in the dataset the graph embeds.
    """

    def __init__(self, length: int, n_series: int) -> None:
        self.length = int(length)
        self.n_series = int(n_series)
        self.positions = np.empty((0, 2))
        self.patterns = np.empty((0, self.length))
        self.node_weights = np.empty(0, dtype=np.int64)
        self.edge_endpoints = np.empty((0, 2), dtype=np.int64)
        self.edge_weights = np.empty(0, dtype=np.int64)
        self.visits = np.empty((0, 3), dtype=np.int64)
        self.traversals = np.empty((0, 3), dtype=np.int64)
        self.trajectory_nodes = np.empty(0, dtype=np.int64)
        self.trajectory_offsets = np.zeros(self.n_series + 1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_assignments(
        cls, length: int, n_series: int, positions, patterns, node_ids, series_indices
    ) -> "TimeSeriesGraph":
        """Build the graph of subsequences assigned to nodes.

        Row ``i`` of ``positions`` / ``patterns`` describes node ``i``.
        Element ``t`` of the equal-length ``node_ids`` / ``series_indices``
        says that a subsequence of series ``series_indices[t]`` falls in node
        ``node_ids[t]``; consecutive elements of the same series form a
        transition.  Trajectories keep the input order within each series.
        """
        nodes = _int_array(node_ids, "node_ids")
        series = _int_array(series_indices, "series_indices")
        graph = cls(length, n_series)
        graph.add_node(positions, patterns)
        graph.add_visits(nodes, series)
        same_series = series[1:] == series[:-1]
        graph.add_transitions(
            nodes[:-1][same_series], nodes[1:][same_series], series[1:][same_series]
        )
        return graph

    def add_node(self, positions, patterns) -> None:
        """Set the node table: row ``i`` is node ``i``'s position and pattern."""
        if self.n_nodes:
            raise GraphConstructionError(f"the graph already has {self.n_nodes} nodes")
        positions = np.asarray(positions, dtype=float)
        patterns = np.asarray(patterns, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValidationError(f"node positions must be (n_nodes, 2), got {positions.shape}")
        if patterns.ndim != 2 or patterns.shape[0] != positions.shape[0]:
            raise ValidationError(
                f"node patterns must be ({positions.shape[0]}, ℓ), got {patterns.shape}"
            )
        self.positions, self.patterns = positions, patterns
        self.node_weights = np.zeros(positions.shape[0], dtype=np.int64)

    def add_visits(self, node_ids, series_indices) -> None:
        """Set node weights, visit triples and trajectories from assignments."""
        nodes = _int_array(node_ids, "node_ids")
        series = _int_array(series_indices, "series_indices")
        if nodes.shape != series.shape:
            raise ValidationError(
                f"node_ids and series_indices must have equal length, got "
                f"{nodes.size} and {series.size}"
            )
        _check_ids(nodes, self.n_nodes, "node", GraphConstructionError)
        _check_ids(series, self.n_series, "series")
        self.node_weights = np.bincount(nodes, minlength=self.n_nodes)
        self.visits = _count_pairs(nodes, series, self.n_series)
        self.trajectory_nodes = nodes[np.argsort(series, kind="stable")]
        self.trajectory_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(series, minlength=self.n_series))]
        )

    def add_transitions(self, sources, targets, series_indices) -> None:
        """Set edges, edge weights and traversal triples from transitions.

        Element ``t`` is one traversal of ``sources[t] -> targets[t]`` by
        series ``series_indices[t]``.
        """
        src = _int_array(sources, "sources")
        dst = _int_array(targets, "targets")
        series = _int_array(series_indices, "series_indices")
        if not src.shape == dst.shape == series.shape:
            raise ValidationError(
                f"sources, targets and series_indices must have equal length, "
                f"got {src.size}, {dst.size} and {series.size}"
            )
        _check_ids(
            np.concatenate([src, dst]), self.n_nodes, "edge endpoint", GraphConstructionError
        )
        _check_ids(series, self.n_series, "series")
        base = max(self.n_nodes, 1)
        keys, edge_index, weights = np.unique(
            src * base + dst, return_inverse=True, return_counts=True
        )
        self.edge_endpoints = np.column_stack([keys // base, keys % base]).astype(np.int64)
        self.edge_weights = weights.astype(np.int64)
        self.traversals = _count_pairs(edge_index.ravel(), series, self.n_series)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return int(self.edge_endpoints.shape[0])

    def nodes(self) -> List[int]:
        """Sorted node identifiers."""
        return list(range(self.n_nodes))

    def edges(self) -> List[Edge]:
        """Sorted directed edges."""
        return [(source, target) for source, target in self.edge_endpoints.tolist()]

    def _node(self, node_id: int) -> int:
        if not 0 <= node_id < self.n_nodes:
            raise GraphConstructionError(f"unknown node {node_id}")
        return int(node_id)

    def _edge_row(self, edge: Edge) -> Optional[int]:
        rows = np.flatnonzero(
            (self.edge_endpoints[:, 0] == edge[0]) & (self.edge_endpoints[:, 1] == edge[1])
        )
        return int(rows[0]) if rows.size else None

    @staticmethod
    def _counts(triples: np.ndarray, item: Optional[int]) -> Dict[int, int]:
        if item is None:
            return {}
        start, stop = np.searchsorted(triples[:, 0], [item, item + 1])
        return dict(triples[start:stop, 1:].tolist())

    def edge_weight(self, edge: Edge) -> int:
        """Total transition count of ``edge`` (0 when absent)."""
        row = self._edge_row(edge)
        return 0 if row is None else int(self.edge_weights[row])

    def node_weight(self, node_id: int) -> int:
        """Total number of subsequences mapped to ``node_id``."""
        return int(self.node_weights[self._node(node_id)])

    def series_through_node(self, node_id: int) -> List[int]:
        """Indices of the time series that traverse ``node_id`` at least once."""
        return list(self.node_visit_counts(node_id))

    def series_through_edge(self, edge: Edge) -> List[int]:
        """Indices of the time series that traverse ``edge`` at least once."""
        return list(self.edge_visit_counts(edge))

    def node_visit_counts(self, node_id: int) -> Dict[int, int]:
        """Mapping series index -> number of subsequences of it in ``node_id``."""
        return self._counts(self.visits, self._node(node_id))

    def edge_visit_counts(self, edge: Edge) -> Dict[int, int]:
        """Mapping series index -> number of traversals of ``edge``."""
        return self._counts(self.traversals, self._edge_row(edge))

    def trajectory(self, series_index: int) -> List[int]:
        """Node sequence visited by ``series_index`` (empty when unseen)."""
        if not 0 <= series_index < self.n_series:
            return []
        start, stop = self.trajectory_offsets[series_index : series_index + 2]
        return self.trajectory_nodes[start:stop].tolist()

    def node_positions(self) -> Dict[int, Tuple[float, float]]:
        """Mapping node -> 2-D position from the embedding projection."""
        return {node: (x, y) for node, (x, y) in enumerate(self.positions.tolist())}

    def node_pattern(self, node_id: int) -> np.ndarray:
        """Representative (average) subsequence pattern of ``node_id``."""
        return self.patterns[self._node(node_id)].copy()

    # ------------------------------------------------------------------ #
    # matrices used by the Graph Clustering step
    # ------------------------------------------------------------------ #
    def _count_matrix(self, triples: np.ndarray, n_items: int, normalize: bool) -> np.ndarray:
        matrix = np.zeros((self.n_series, n_items))
        matrix[triples[:, 1], triples[:, 0]] = triples[:, 2]
        if normalize:
            sums = matrix.sum(axis=1, keepdims=True)
            sums = np.where(sums == 0, 1.0, sums)
            matrix = matrix / sums
        return matrix

    def node_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_nodes) matrix of node crossing counts.

        When ``normalize`` is true each row is divided by its sum so series of
        different lengths (or stride effects) are comparable.
        """
        return self._count_matrix(self.visits, self.n_nodes, normalize)

    def edge_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_edges) matrix of edge traversal counts."""
        return self._count_matrix(self.traversals, self.n_edges, normalize)

    def feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """Concatenated node + edge feature matrix (the paper's F_{D,ℓ})."""
        return np.hstack(
            [self.node_feature_matrix(normalize), self.edge_feature_matrix(normalize)]
        )

    def adjacency_matrix(self) -> np.ndarray:
        """(n_nodes, n_nodes) weighted adjacency matrix in node-sorted order."""
        matrix = np.zeros((self.n_nodes, self.n_nodes))
        matrix[self.edge_endpoints[:, 0], self.edge_endpoints[:, 1]] = self.edge_weights
        return matrix

    # ------------------------------------------------------------------ #
    # interop / summaries
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with weights and attributes."""
        import networkx as nx

        graph = nx.DiGraph(length=self.length, n_series=self.n_series)
        crossing = np.bincount(self.visits[:, 0], minlength=self.n_nodes).tolist()
        for node, position in self.node_positions().items():
            graph.add_node(
                node,
                position=position,
                weight=int(self.node_weights[node]),
                n_series=crossing[node],
            )
        for (source, target), weight in zip(self.edges(), self.edge_weights.tolist()):
            graph.add_edge(source, target, weight=weight)
        return graph

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable summary for the Under-the-hood frame."""
        weights = self.node_weights
        return {
            "length": self.length,
            "n_series": self.n_series,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "max_node_weight": int(weights.max()) if weights.size else 0,
            "mean_node_weight": float(np.mean(weights)) if weights.size else 0.0,
        }

    def __fingerprint_parts__(self) -> tuple:
        """The stored arrays, for :mod:`repro.pipeline` content hashing.

        Every array is kept in a canonical order and dtype, so equal graphs
        give equal parts however they were built or loaded.
        """
        return (
            self.length,
            self.n_series,
            self.positions,
            self.patterns,
            self.node_weights,
            self.edge_endpoints,
            self.edge_weights,
            self.visits,
            self.traversals,
            self.trajectory_nodes,
            self.trajectory_offsets,
        )

    # ------------------------------------------------------------------ #
    # lossless serialisation (model artifacts, see repro.serve.artifacts)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """The structural (non-array) part of the graph as a JSON payload.

        Node patterns are excluded — they are float matrices and travel in
        the artifact's ``.npz`` file instead, stacked in node-sorted order
        (the same order the ``nodes`` list uses here).  The inverse is
        :meth:`from_payload`.
        """

        def grouped(triples: np.ndarray, n_items: int) -> List[Dict[str, int]]:
            bounds = np.searchsorted(triples[:, 0], np.arange(n_items + 1)).tolist()
            series, counts = triples[:, 1].tolist(), triples[:, 2].tolist()
            return [
                {str(s): c for s, c in zip(series[start:stop], counts[start:stop])}
                for start, stop in zip(bounds[:-1], bounds[1:])
            ]

        offsets = self.trajectory_offsets.tolist()
        trajectory_nodes = self.trajectory_nodes.tolist()
        return {
            "length": self.length,
            "n_series": self.n_series,
            "nodes": [
                {"id": node, "position": list(position), "n_subsequences": weight}
                for node, (position, weight) in enumerate(
                    zip(self.positions.tolist(), self.node_weights.tolist())
                )
            ],
            "edges": [
                [source, target, weight]
                for (source, target), weight in zip(self.edges(), self.edge_weights.tolist())
            ],
            "node_series": {
                str(node): counts for node, counts in enumerate(grouped(self.visits, self.n_nodes))
            },
            "edge_series": [
                [source, target, counts]
                for (source, target), counts in zip(
                    self.edges(), grouped(self.traversals, self.n_edges)
                )
            ],
            "trajectories": {
                str(series): trajectory_nodes[offsets[series] : offsets[series + 1]]
                for series in range(self.n_series)
                if offsets[series + 1] > offsets[series]
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], patterns: np.ndarray
    ) -> "TimeSeriesGraph":
        """Rebuild a graph from :meth:`to_payload` output + its pattern matrix.

        ``patterns`` rows must be in node-sorted order, matching the
        ``nodes`` list of the payload.  A payload whose node ids, edge
        endpoints, series indices or trajectory nodes are out of range, or
        that is malformed, raises :class:`ValidationError`.
        """
        try:
            graph = cls(length=int(payload["length"]), n_series=int(payload["n_series"]))
            node_rows = payload["nodes"]
            ids = np.array([int(entry["id"]) for entry in node_rows], dtype=np.int64)
            positions = np.array(
                [[float(entry["position"][0]), float(entry["position"][1])] for entry in node_rows]
            ).reshape(-1, 2)
            weights = np.array([int(entry["n_subsequences"]) for entry in node_rows], dtype=np.int64)
            edges = np.array(
                [[int(value) for value in edge] for edge in payload["edges"]], dtype=np.int64
            ).reshape(-1, 3)
            visits = _sorted_triples(
                [
                    (int(node), int(series), int(count))
                    for node, counts in payload["node_series"].items()
                    for series, count in counts.items()
                ]
            )
            traversal_endpoints = [
                (int(source), int(target)) for source, target, _ in payload["edge_series"]
            ]
            traversals = _sorted_triples(
                [
                    (row, int(series), int(count))
                    for row, (_, _, counts) in enumerate(payload["edge_series"])
                    for series, count in counts.items()
                ]
            )
            trajectories = sorted(
                (int(series), [int(node) for node in nodes])
                for series, nodes in payload["trajectories"].items()
            )
            patterns = np.asarray(patterns, dtype=float)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed graph payload: {exc!r}") from exc
        if patterns.ndim != 2 or patterns.shape[0] != ids.size:
            raise ValidationError(
                f"graph for length {graph.length} declares {ids.size} "
                f"nodes but the pattern matrix has {patterns.shape[0] if patterns.ndim else 0} rows"
            )
        if graph.n_series < 0 or not np.array_equal(ids, np.arange(ids.size)):
            raise ValidationError("graph node ids must be 0..n_nodes-1 in order")
        n_nodes = ids.size
        keys = edges[:, 0] * max(n_nodes, 1) + edges[:, 1]
        _check_ids(edges[:, :2].ravel(), n_nodes, "edge endpoint")
        endpoints = [(source, target) for source, target in edges[:, :2].tolist()]
        if np.any(np.diff(keys) <= 0) or traversal_endpoints != endpoints:
            raise ValidationError("graph edges must be sorted, distinct and match edge_series")
        _check_ids(visits[:, 0], n_nodes, "node")
        _check_distinct(visits[:, :2], "(node, series) visit")
        _check_distinct(traversals[:, :2], "(edge, series) traversal")
        trajectory_series = np.array([series for series, _ in trajectories], dtype=np.int64)
        _check_distinct(trajectory_series[:, None], "trajectory series")
        for series in (visits[:, 1], traversals[:, 1], trajectory_series):
            _check_ids(series, graph.n_series, "series")
        trajectory_nodes = np.array(
            [node for _, nodes in trajectories for node in nodes], dtype=np.int64
        )
        _check_ids(trajectory_nodes, n_nodes, "trajectory node")
        lengths = np.zeros(graph.n_series, dtype=np.int64)
        lengths[trajectory_series] = [len(nodes) for _, nodes in trajectories]
        graph.positions = positions
        graph.patterns = np.ascontiguousarray(patterns)
        graph.node_weights = weights
        graph.edge_endpoints = np.ascontiguousarray(edges[:, :2])
        graph.edge_weights = np.ascontiguousarray(edges[:, 2])
        graph.visits, graph.traversals = visits, traversals
        graph.trajectory_nodes = trajectory_nodes
        graph.trajectory_offsets = np.concatenate([[0], np.cumsum(lengths)])
        return graph


def assemble_reference(
    length: int, n_series: int, positions, node_ids, series_indices
) -> Dict[str, object]:
    """Per-subsequence dictionary loop that :meth:`~TimeSeriesGraph.from_assignments` replaced.

    Kept as the oracle of the array construction: it returns the
    :meth:`~TimeSeriesGraph.to_payload` of the graph built from the same
    assignments, so a test can compare the two directly.
    """
    positions = np.asarray(positions, dtype=float).tolist()
    weights = [0] * len(positions)
    node_series: Dict[int, Dict[int, int]] = {node: {} for node in range(len(positions))}
    edges: Dict[Edge, int] = {}
    edge_series: Dict[Edge, Dict[int, int]] = {}
    trajectories: Dict[int, List[int]] = {}
    previous_series = previous_node = None
    for node, series in zip(np.asarray(node_ids).tolist(), np.asarray(series_indices).tolist()):
        weights[node] += 1
        node_series[node][series] = node_series[node].get(series, 0) + 1
        trajectories.setdefault(series, []).append(node)
        if series == previous_series:
            edge = (previous_node, node)
            edges[edge] = edges.get(edge, 0) + 1
            bucket = edge_series.setdefault(edge, {})
            bucket[series] = bucket.get(series, 0) + 1
        previous_series, previous_node = series, node

    def keyed(counts: Dict[int, int]) -> Dict[str, int]:
        return {str(series): count for series, count in counts.items()}

    return {
        "length": int(length),
        "n_series": int(n_series),
        "nodes": [
            {"id": node, "position": position, "n_subsequences": weights[node]}
            for node, position in enumerate(positions)
        ],
        "edges": [[source, target, weight] for (source, target), weight in sorted(edges.items())],
        "node_series": {str(node): keyed(counts) for node, counts in node_series.items()},
        "edge_series": [
            [source, target, keyed(counts)]
            for (source, target), counts in sorted(edge_series.items())
        ],
        "trajectories": {str(series): nodes for series, nodes in trajectories.items()},
    }
