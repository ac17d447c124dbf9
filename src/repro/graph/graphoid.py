"""Graphoids: cluster-specific subgraphs with representativity / exclusivity.

Definitions (Section II of the paper):

* **Representativity** of a node N for cluster C_i, written ``|N|_{C_i}``:
  the proportion of time series *of the cluster* that pass through the node,
  i.e. ``|{T in C_i : T crosses N}| / |C_i|``.
* **Exclusivity** of a node N for cluster C_i, written ``Pr_{C_i}(N)``:
  the proportion of the series *crossing the node* that belong to the
  cluster, i.e. ``|{T in C_i : T crosses N}| / |{T in D : T crosses N}|``.
* The **λ-Graphoid** of a cluster keeps the nodes/edges whose representativity
  is at least λ; the **γ-Graphoid** keeps those whose exclusivity is at least
  γ.  The plain Graphoid is the λ=0, γ=0 case (everything the cluster touches).

The same definitions apply to edges, with "crossing" meaning "traversing the
edge at least once".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.structure import Edge, TimeSeriesGraph
from repro.utils.validation import check_labels, check_probability


def _scores(
    graph: TimeSeriesGraph, labels, edges: bool, exclusive: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``(clusters, scores)``: ``scores[i, j]`` scores node/edge ``i`` for ``clusters[j]``.

    The crossings come from one ``bincount`` over the graph's visit or
    traversal triples: each (item, series) pair is one triple, so it counts
    distinct crossing series per item and cluster.
    """
    labels = check_labels(labels, n_samples=graph.n_series)
    triples, n_items = (graph.traversals, graph.n_edges) if edges else (graph.visits, graph.n_nodes)
    clusters, cluster_of = np.unique(labels, return_inverse=True)
    crossings = np.bincount(
        triples[:, 0] * clusters.size + cluster_of[triples[:, 1]],
        minlength=n_items * clusters.size,
    ).reshape(n_items, clusters.size)
    if not exclusive:
        return clusters, crossings / np.bincount(cluster_of)
    totals = crossings.sum(axis=1, keepdims=True)
    return clusters, np.divide(crossings, totals, out=np.zeros(crossings.shape), where=totals > 0)


def _score_dicts(clusters: np.ndarray, scores: np.ndarray, keys: Sequence) -> Dict[int, Dict]:
    return {
        cluster: dict(zip(keys, column))
        for cluster, column in zip(clusters.tolist(), scores.T.tolist())
    }


def node_representativity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[int, float]]:
    """``result[cluster][node]`` = representativity of the node for the cluster."""
    return _score_dicts(*_scores(graph, labels, edges=False, exclusive=False), graph.nodes())


def node_exclusivity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[int, float]]:
    """``result[cluster][node]`` = exclusivity of the node for the cluster."""
    return _score_dicts(*_scores(graph, labels, edges=False, exclusive=True), graph.nodes())


def edge_representativity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[Edge, float]]:
    """``result[cluster][edge]`` = representativity of the edge for the cluster."""
    return _score_dicts(*_scores(graph, labels, edges=True, exclusive=False), graph.edges())


def edge_exclusivity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[Edge, float]]:
    """``result[cluster][edge]`` = exclusivity of the edge for the cluster."""
    return _score_dicts(*_scores(graph, labels, edges=True, exclusive=True), graph.edges())


@dataclass
class Graphoid:
    """A cluster-specific subgraph plus the scores that selected it.

    Attributes
    ----------
    cluster:
        Cluster identifier the graphoid describes.
    nodes / edges:
        Selected node ids and directed edges.
    node_scores / edge_scores:
        The score (representativity or exclusivity, depending on the kind)
        of every *selected* node/edge.
    kind:
        ``"graphoid"``, ``"lambda"`` or ``"gamma"``.
    threshold:
        The λ or γ value used for the selection (0.0 for the plain graphoid).
    """

    cluster: int
    nodes: List[int] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    node_scores: Dict[int, float] = field(default_factory=dict)
    edge_scores: Dict[Edge, float] = field(default_factory=dict)
    kind: str = "graphoid"
    threshold: float = 0.0

    @property
    def n_nodes(self) -> int:
        """Number of selected nodes."""
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Number of selected edges."""
        return len(self.edges)

    def is_empty(self) -> bool:
        """True when neither nodes nor edges were selected."""
        return not self.nodes and not self.edges

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable summary for the Graph frame side panel."""
        return {
            "cluster": self.cluster,
            "kind": self.kind,
            "threshold": self.threshold,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "top_nodes": sorted(self.node_scores, key=self.node_scores.get, reverse=True)[:5],
        }


def _select(
    graph: TimeSeriesGraph, labels, cluster: int, threshold: float, exclusive: bool, kind: str
) -> Graphoid:
    """The nodes/edges whose score for ``cluster`` is positive and >= ``threshold``."""
    selected = []
    for edges, keys in ((False, graph.nodes()), (True, graph.edges())):
        clusters, scores = _scores(graph, labels, edges=edges, exclusive=exclusive)
        if cluster not in clusters:
            raise ValidationError(f"cluster {cluster} not present in labels")
        column = scores[:, int(np.searchsorted(clusters, cluster))]
        keep = np.flatnonzero((column >= threshold) & (column > 0))
        selected.append(dict(zip([keys[i] for i in keep], column[keep].tolist())))
    nodes, edges = selected
    return Graphoid(
        cluster=int(cluster),
        nodes=list(nodes),
        edges=list(edges),
        node_scores=nodes,
        edge_scores=edges,
        kind=kind,
        threshold=threshold,
    )


def extract_graphoid(graph: TimeSeriesGraph, labels, cluster: int) -> Graphoid:
    """The plain Graphoid: every node/edge traversed by at least one member."""
    graphoid = _select(graph, labels, cluster, 0.0, exclusive=False, kind="graphoid")
    graphoid.node_scores = {node: 1.0 for node in graphoid.nodes}
    graphoid.edge_scores = {edge: 1.0 for edge in graphoid.edges}
    return graphoid


def extract_lambda_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, lambda_threshold: float
) -> Graphoid:
    """λ-Graphoid: nodes/edges whose representativity for ``cluster`` >= λ."""
    lambda_threshold = check_probability(lambda_threshold, "lambda_threshold")
    return _select(graph, labels, cluster, lambda_threshold, exclusive=False, kind="lambda")


def extract_gamma_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, gamma_threshold: float
) -> Graphoid:
    """γ-Graphoid: nodes/edges whose exclusivity for ``cluster`` >= γ."""
    gamma_threshold = check_probability(gamma_threshold, "gamma_threshold")
    return _select(graph, labels, cluster, gamma_threshold, exclusive=True, kind="gamma")


def interpretability_factor(graph: TimeSeriesGraph, labels) -> float:
    """W_e: average over clusters of the maximum node exclusivity.

    This is the paper's interpretability factor used (together with the
    consistency W_c) to pick the most interpretable subsequence length.
    """
    _, exclusivity = _scores(graph, labels, edges=False, exclusive=True)
    if not exclusivity.size:
        return 0.0
    return float(np.mean(exclusivity.max(axis=0)))
