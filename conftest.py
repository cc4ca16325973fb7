"""Repository-level pytest configuration.

Makes ``src/`` importable even when the package has not been installed
(useful in offline environments where ``pip install -e .`` cannot build a
wheel); an installed ``repro`` takes precedence if present.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running Hypothesis/differential suites (run in their own CI job; "
        "deselect locally with -m 'not slow')",
    )
    config.addinivalue_line(
        "markers",
        "backend_rule: checks which tokenizer backend serves a call, so it keeps "
        "the real rule when REPRO_TEST_TOKENIZER=pure pins the rest of the suite",
    )
