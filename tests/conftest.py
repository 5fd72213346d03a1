from __future__ import annotations

import math

import numpy as np
import pytest

from esap.corpus import chunk_document
from esap.hybrid import HybridParams, build_hybrid
from esap.ports import HashingEmbedder
from esap.synthetic import make_toy_kb_documents


def unit_by_rule(vector) -> np.ndarray:
    """A float32 vector scaled to unit length by the dense index's rule,
    as a plain loop: the float64 squares added in ascending order from 0.0,
    the float32 rounding of their square root, one float32 division; an
    all-zero vector stays as it is."""
    vector = np.asarray(vector, dtype=np.float32)
    total = 0.0
    for value in vector.tolist():
        total += value * value
    length = np.float32(math.sqrt(total))
    return vector / length if length else vector.copy()


@pytest.fixture(scope="session")
def unit_rule():
    return unit_by_rule


@pytest.fixture(scope="session")
def embedder():
    return HashingEmbedder()


@pytest.fixture()
def toy_docs():
    return make_toy_kb_documents()


@pytest.fixture()
def toy_index(toy_docs, embedder):
    chunks = []
    for doc in toy_docs:
        chunks.extend(chunk_document(doc, size=50, overlap=10))
    doc_acl = {doc.doc_id: sorted(doc.acl) for doc in toy_docs}
    params = HybridParams(chunk_size=50, chunk_overlap=10)
    return build_hybrid(chunks, embedder, doc_acl, params)
