"""Dense vector index: exhaustive cosine search.

Every index is searched exactly: one matrix-vector product, a partition cut
at the k-th similarity and a sort of the candidates at or above it. At the
sizes this system targets (5k and 20k chunks) that beats a navigable-graph
ANN search at every k and costs no build time; ROADMAP.md keeps the
measurements. The ``ann`` parameters are still accepted and recorded so that
configs and indexes from earlier builds keep working, but they change
nothing.

All vectors are expected unit-norm (or all-zero), so cosine similarity is a
dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmbedderFailure
from .tokenizer import TermIds

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 200
DEFAULT_EF_SEARCH = 128
DEFAULT_EXACT_THRESHOLD = 5_000


@dataclass
class AnnParams:
    """The ``ann`` config section; accepted and recorded, no longer used."""

    m: int = DEFAULT_M
    ef_construction: int = DEFAULT_EF_CONSTRUCTION
    ef_search: int = DEFAULT_EF_SEARCH
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    mode: str = "auto"       # auto | exact | ann
    seed: int = 42

    def to_json(self) -> dict:
        """The ``ann`` section of config files, config echoes and index metadata."""
        return {"m": self.m, "ef_c": self.ef_construction, "ef_s": self.ef_search,
                "exact_threshold": self.exact_threshold, "mode": self.mode,
                "seed": self.seed}

    @classmethod
    def from_json(cls, data: dict) -> "AnnParams":
        return cls(m=int(data["m"]), ef_construction=int(data["ef_c"]),
                   ef_search=int(data["ef_s"]),
                   exact_threshold=int(data["exact_threshold"]),
                   mode=data["mode"], seed=int(data["seed"]))


@dataclass
class DenseIndex:
    """Read-only (n, d) float32 vectors, rows unit-norm or zero, in position order."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def mode(self) -> str:
        """Always ``exact``: the one search path."""
        return "exact"


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0                # all-zero rows stay zero
    return (matrix / norms).astype(np.float32, copy=False)


def build_dense_from_texts(texts: list[str], chunk_ids: list[str], embed,
                           params: AnnParams | None = None,
                           terms: TermIds | None = None) -> DenseIndex:
    """Embed chunks (in order) and build the dense index.

    ``embed`` is a callable list[str] -> (n, d) array; failures are surfaced
    with the offending chunk_id. With ``terms``, the ``term_ids`` of the
    texts, an embedder that has an ``embed_ids`` method is given those
    instead of the texts. ``params`` is validated, not stored: its mode must
    be one of auto/exact/ann, and every mode searches exactly.
    """
    if params is not None and params.mode not in ("auto", "exact", "ann"):
        raise ValueError(f"unknown dense mode {params.mode!r}")
    embed_ids = getattr(embed, "embed_ids", None)
    try:
        if terms is not None and embed_ids is not None:
            matrix = np.asarray(embed_ids(*terms), dtype=np.float32)
        else:
            matrix = np.asarray(embed(texts), dtype=np.float32)
    except Exception as exc:
        raise EmbedderFailure(f"embedding failed: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != len(texts):
        raise EmbedderFailure(
            f"embedder returned shape {matrix.shape}, expected ({len(texts)}, d)")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise EmbedderFailure("non-finite embedding", chunk_id=chunk_ids[int(bad[0])])
    matrix = _normalize_rows(matrix)
    return DenseIndex(matrix)


def top_k(positions: np.ndarray, scores: np.ndarray,
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best (positions, scores), score descending, position ascending.

    Every candidate tied with the k-th score survives the partition cut, so
    the sort breaks ties at the cut by position. BM25 and dense search share
    this cut.
    """
    n = len(positions)
    if n > k:
        keep = scores >= np.partition(scores, n - k)[n - k]
        positions, scores = positions[keep], scores[keep]
    order = np.lexsort((positions, -scores))[:k]
    return positions[order], scores[order]


def search_dense(index: DenseIndex, query: np.ndarray, k: int,
                 allowed: np.ndarray | None = None) -> list[tuple[int, float]]:
    """Top-k (position, cosine similarity); ties broken by position ascending.

    With ``allowed`` (a boolean mask over positions) only the positions it
    keeps are cut and sorted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    if query.shape[0] != index.dim:
        raise DimensionMismatch(
            f"query dimension {query.shape[0]} != index dimension {index.dim}")
    sims = index.vectors @ query
    if allowed is None:
        candidates = np.arange(sims.shape[0])
    else:
        candidates = np.flatnonzero(allowed)
    positions, scores = top_k(candidates, sims[candidates], k)
    return list(zip(positions.tolist(), scores.tolist()))
