"""Shared pytest fixtures.

Expensive objects (corpora, parser registries, labelled datasets) are built
once per session at deliberately small sizes so the whole suite stays fast
while still exercising real end-to-end paths.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.documents.corpus import Corpus, CorpusConfig, build_corpus, build_document
from repro.documents.document import SciDocument
from repro.obs.logging import ROOT_LOGGER_NAME
from repro.parsers.registry import ParserRegistry, default_registry


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """A 12-document corpus shared across tests."""
    return build_corpus(CorpusConfig(n_documents=12, seed=101, min_pages=3, max_pages=8))


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """A 5-document corpus for the most expensive integration tests."""
    return build_corpus(CorpusConfig(n_documents=5, seed=77, min_pages=3, max_pages=5))


@pytest.fixture(scope="session")
def registry() -> ParserRegistry:
    """The default parser registry (six simulated parsers)."""
    return default_registry()


@pytest.fixture(scope="session")
def sample_document() -> SciDocument:
    """One deterministic document."""
    return build_document(0, CorpusConfig(n_documents=1, seed=404, min_pages=4, max_pages=6))


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Undo any ``obs.logging.setup()`` a test (or a CLI it runs) performed.

    A handler left on the ``repro`` root logger would keep writing to a
    capture stream pytest has already closed.
    """
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]
