"""Legacy setup shim.

The environment used for the reproduction has no ``wheel`` package, so PEP 660
editable installs (which build a wheel) fail; ``pip install -e . --no-use-pep517
--no-build-isolation`` falls back to ``setup.py develop`` and works offline.
There is no ``pyproject.toml``: the metadata below is all there is.  The
library has no runtime dependencies; test and benchmark dependencies are in
``requirements-dev.txt``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M)

setup(
    name="repro",
    version=_VERSION.group(1),
    description="A reproduction of 'Propagating XML Constraints to Relations' (ICDE 2003)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
