"""Shared fixtures: the paper's running example and small synthetic inputs."""

import os

import pytest

from repro.experiments import paper_example
from repro.experiments.generators import generate_document, generate_workload
from repro.keys.implication import ImplicationEngine
from repro.xmlmodel import accel

#: Set to ``pure`` to run every tokenizer call of the suite on the pure
#: tokenizer (one CI leg does), keeping the reference passing on its own.
TOKENIZER_ENV = "REPRO_TEST_TOKENIZER"


@pytest.fixture(autouse=True)
def _tokenizer_backend(request, monkeypatch):
    """Pin the tokenizer to the pure backend when ``REPRO_TEST_TOKENIZER=pure``.

    The backend rule ``accel._expat_serves`` is replaced by one that
    declines every source.  Tests marked ``backend_rule`` check that rule
    itself and keep it.
    """
    choice = os.environ.get(TOKENIZER_ENV, "")
    if choice not in ("", "pure"):
        raise pytest.UsageError(f"{TOKENIZER_ENV} must be 'pure' or unset, got {choice!r}")
    if choice == "pure" and request.node.get_closest_marker("backend_rule") is None:
        monkeypatch.setattr(accel, "_expat_serves", lambda source, min_size=0: False)


@pytest.fixture(scope="session")
def figure1():
    """The XML document of Figure 1."""
    return paper_example.figure1_document()


@pytest.fixture(scope="session")
def paper_keys():
    """The XML keys K1..K7 of Example 2.1."""
    return paper_example.paper_keys()


@pytest.fixture(scope="session")
def paper_engine(paper_keys):
    """A shared implication engine over K1..K7."""
    return ImplicationEngine(paper_keys)


@pytest.fixture(scope="session")
def sigma():
    """The transformation of Example 2.4."""
    return paper_example.paper_transformation()


@pytest.fixture(scope="session")
def paper_schema():
    """The relational schema R of Example 2.4."""
    return paper_example.paper_schema()


@pytest.fixture(scope="session")
def universal():
    """The universal relation U of Example 3.1."""
    return paper_example.universal_relation()


@pytest.fixture(scope="session")
def small_workload():
    """A small synthetic workload shared by core/experiment tests."""
    return generate_workload(num_fields=10, depth=4, num_keys=8, seed=7)


@pytest.fixture(scope="session")
def small_document(small_workload):
    return generate_document(small_workload, fanout=2, seed=7)
