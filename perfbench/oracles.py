"""Correctness oracles: each returns a list of mismatch descriptions (empty = correct)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def _graphoid_nodes(model, kind: str) -> Dict[int, List[int]]:
    return {cluster: sorted(graphoid.nodes) for cluster, graphoid in model.graphoids(kind).items()}


def fit_signature(model) -> Dict[str, object]:
    """What a fit must reproduce: labels, chosen length and graphoid node sets."""
    return {
        "labels": np.asarray(model.labels_).tolist(),
        "optimal_length": int(model.optimal_length_),
        "lambda_nodes": _graphoid_nodes(model, "lambda"),
        "gamma_nodes": _graphoid_nodes(model, "gamma"),
    }


def check_fit(signature: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Compare a fit's :func:`fit_signature` with the reference oracle's."""
    return [f"fit {key} differs from fit_reference" for key in expected if signature.get(key) != expected[key]]


def check_predictions(returned: Sequence[int], expected: Sequence[int]) -> List[str]:
    """Served predictions must equal offline ``model.predict`` on the same series."""
    if list(returned) != list(expected):
        return [f"served predictions {list(returned)} != offline {list(expected)}"]
    return []


def comparable(result) -> Dict[str, object]:
    """A grid result without what differs between topologies (time, cache hits)."""
    row = result.to_dict()
    row.pop("runtime_seconds", None)
    row.pop("stages_cached", None)
    row.pop("stages_executed", None)
    return row


def check_sweep(results, expected_rows: Sequence[Dict[str, object]]) -> List[str]:
    """Every combination's measures must equal the serial in-memory sweep's."""
    rows = [comparable(result) for result in results]
    if len(rows) != len(expected_rows):
        return [f"sweep returned {len(rows)} combinations, expected {len(expected_rows)}"]
    return [f"combination {row['method']} differs from the serial sweep"
            for row, expected in zip(rows, expected_rows) if row != expected]


def check_campaign_cell(result) -> List[str]:
    """A campaign cell fails when its estimator raised (``error`` is set)."""
    return [f"{result.method} on {result.dataset}: {result.error}"] if result.error is not None else []
