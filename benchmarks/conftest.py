"""Where the benches write: a per-session temporary directory by default.

A plain ``pytest`` run (tier-1 included) leaves the committed
``benchmarks/results/`` untouched; every floor, gate and workload size runs
and asserts exactly as before, only the write target differs.  Rewrite the
committed results on purpose with::

    PYTHONPATH=src python -m pytest benchmarks/ --save

Without ``--save`` the results land in ``<basetemp>/results/``; pass
``--basetemp DIR`` to choose that directory (the CI perf-smoke job does, to
compare the fresh ``hotpaths.json`` against the committed one).
"""

from __future__ import annotations

import pytest

import bench_utils


def pytest_addoption(parser):
    parser.addoption(
        "--save",
        action="store_true",
        default=False,
        help="write bench results into the committed benchmarks/results/",
    )


@pytest.fixture(scope="session", autouse=True)
def _session_results_dir(request, tmp_path_factory):
    """Point :data:`bench_utils.RESULTS_DIR` at ``<basetemp>/results`` unless ``--save``."""
    # getoption needs a default: from the repository root this conftest is
    # loaded during collection, after option parsing, so --save is unknown.
    if not request.config.getoption("--save", default=False):
        bench_utils.RESULTS_DIR = tmp_path_factory.mktemp("results", numbered=False)
