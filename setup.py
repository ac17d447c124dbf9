"""Package metadata and install script for the ``repro`` library.

``pip install .`` installs the library and the ``graphint`` command.  Where
the ``wheel`` package is unavailable (offline boxes), ``python setup.py
develop`` makes the same editable install.  The version is read from
``src/repro/__init__.py`` so it is defined in one place.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Graphint: graph-based time series clustering (k-Graph) and its visual explorer",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["graphint = repro.viz.cli:main"]},
)
