"""Cross-host determinism digests of seeded k-Graph fits.

``tests/data/fit_digests.json`` commits, for a few seeded catalogue fits,
what a fit must reproduce: the labels, the chosen length and the λ/γ
graphoid node sets.  They are integers only, so last-ulp BLAS drift cannot
flake the test, but a change of PCA sign, LAPACK route or node numbering
fails it loudly on every interpreter of the CI matrix.  When such a change
is intended, regenerate the file with::

    PYTHONPATH=src python tests/test_fit_digests.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.kgraph import KGraph
from repro.datasets import default_catalogue

DIGESTS_PATH = Path(__file__).parent / "data" / "fit_digests.json"
DATASETS = ("cylinder_bell_funnel", "two_patterns", "sine_families")


def fit_digest(name: str) -> dict:
    """Labels, chosen length and graphoid node sets of one seeded fit."""
    spec = default_catalogue().get(name)
    model = KGraph(n_clusters=spec.n_classes, n_lengths=3, random_state=0)
    model.fit(spec.generate(random_state=0).data)
    return {
        "labels": [int(label) for label in model.labels_],
        "optimal_length": int(model.optimal_length_),
        **{
            f"{kind}_nodes": {
                str(cluster): sorted(int(node) for node in graphoid.nodes)
                for cluster, graphoid in sorted(model.graphoids(kind).items())
            }
            for kind in ("lambda", "gamma")
        },
    }


@pytest.mark.parametrize("name", DATASETS)
def test_seeded_fit_matches_committed_digest(name):
    expected = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[name]
    assert fit_digest(name) == expected, (
        f"the seeded {name} fit changed; if intended, regenerate with "
        "`PYTHONPATH=src python tests/test_fit_digests.py`"
    )


if __name__ == "__main__":
    digests = {name: fit_digest(name) for name in DATASETS}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
