"""Dense vector index: exhaustive cosine search.

Every index is searched exactly: a score for every chunk, a partition cut at
the k-th score and a sort of the candidates at or above it. At the sizes
this system targets (5k and 20k chunks) that beats a navigable-graph ANN
search at every k and costs no build time; ROADMAP.md keeps the
measurements. The ``ann`` parameters are still accepted, so configs that set
them keep working, and recorded in an index's ``meta.json``, but they change
nothing.

Cosine similarity is a dot product of unit vectors, and this module alone
scales a vector to unit length, by one rule for every stored row and every
query: its length is the float32 rounding of ``sqrt`` of the float64 sum of
``float64(v[j]) ** 2``, added in ascending ``j`` from ``0.0``, and a nonzero
vector is divided by that length in float32 (an all-zero one stays zero).
Each float32 square is exact in float64 and ``np.sqrt`` is correctly
rounded, so the unit vector has the same bits on any BLAS and any CPU.

A chunk's score is defined as the float64 sum of the products
``float64(v[j]) * float64(q[j])``, added in ascending ``j`` from ``0.0``.
Each float32 product is exact in float64 and a zero product leaves the sum
as it is, so summing over the query's nonzero dimensions alone gives the
same bits as summing over all of them, on any BLAS and any CPU. A hashed
query has a handful of nonzero dimensions, and the vectors are stored
dimension-major (``DenseIndex.columns``), so a search reads only those
dimensions' rows of the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmbedderFailure
from .tokenizer import TermIds

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 200
DEFAULT_EF_SEARCH = 128
DEFAULT_EXACT_THRESHOLD = 5_000
# rows per block of ``_unit_columns``: 64 rows of 256 dimensions keep the
# block's float64 squares at 128 KB
_BLOCK_ROWS = 64


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
    """Read-only (d, n) float32 matrix, dimension-major: column i is the
    vector of position i, of unit length or zero."""

    columns: np.ndarray

    def __post_init__(self):
        self.columns.flags.writeable = False

    @property
    def vectors(self) -> np.ndarray:
        """The (n, d) rows in position order: a view of ``columns``, not a copy."""
        return self.columns.T

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def mode(self) -> str:
        """Always ``exact``: the one search path."""
        return "exact"


def _unit_columns(matrix: np.ndarray) -> np.ndarray:
    """The float32 (n, d) rows scaled to unit length by the module
    docstring's rule, written dimension-major into one new (d, n) array.

    A block of ``_BLOCK_ROWS`` rows at a time: ``np.add.accumulate`` adds
    each row's float64 squares in ascending order (it is defined as that
    running sum), and the block is divided into its columns of the output.
    """
    n, d = matrix.shape
    columns = np.empty((d, n), dtype=np.float32)
    for r0 in range(0, n, _BLOCK_ROWS):
        rows = matrix[r0:r0 + _BLOCK_ROWS]
        sums = np.add.accumulate(np.square(rows, dtype=np.float64), axis=1)[:, -1]
        lengths = np.sqrt(sums).astype(np.float32)
        lengths[lengths == 0.0] = 1.0
        np.divide(rows.T, lengths, out=columns[:, r0:r0 + _BLOCK_ROWS])
    return columns


def _embeddings(compute, ids: list) -> np.ndarray:
    """``compute()`` as a float32 (len(ids), d) array of finite values.

    A raising embedder, a result of another shape or of no dimensions and
    a non-finite value are ``EmbedderFailure``; the last names the id of its
    row.
    """
    try:
        matrix = np.asarray(compute(), dtype=np.float32)
    except Exception as exc:
        raise EmbedderFailure(f"embedding failed: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != len(ids) or not matrix.shape[1]:
        raise EmbedderFailure(
            f"embedder returned shape {matrix.shape}, expected ({len(ids)}, d), d >= 1")
    if not np.isfinite(matrix).all():
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
        raise EmbedderFailure("non-finite embedding", chunk_id=ids[int(bad)])
    return matrix


def embed_query(embed, query: str) -> np.ndarray:
    """The query's float32 vector scaled to unit length as a chunk's is
    (all-zero stays zero), checked as a build checks its chunks' vectors.

    The one row is scaled without ``_unit_columns``' block loop: one
    ``np.add.accumulate`` over its float64 squares, and ``math.sqrt``,
    correctly rounded as ``np.sqrt`` is.
    """
    row = _embeddings(lambda: embed([query]), [None])[0]
    length = np.float32(math.sqrt(np.add.accumulate(np.square(row, dtype=np.float64))[-1]))
    return row / (length if length else np.float32(1.0))


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
    if terms is not None and embed_ids is not None:
        matrix = _embeddings(lambda: embed_ids(*terms), chunk_ids)
    else:
        matrix = _embeddings(lambda: embed(texts), chunk_ids)
    return DenseIndex(_unit_columns(matrix))


def top_k(positions: np.ndarray, scores: np.ndarray,
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best (positions, scores), score descending, position ascending.

    Every candidate tied with the k-th score survives the partition cut, so
    the sort breaks ties at the cut by position. BM25, dense search and
    fusion (whose items may be chunk ids) share this cut.
    """
    n = len(positions)
    if n > k:
        keep = scores >= np.partition(scores, n - k)[n - k]
        positions, scores = positions[keep], scores[keep]
    order = np.lexsort((positions, -scores))[:k]
    return positions[order], scores[order]


def search_dense(index: DenseIndex, query: np.ndarray, k: int,
                 allowed: np.ndarray | None = None) -> list[tuple[int, float]]:
    """Top-k (position, score); ties broken by position ascending.

    The scores are the module docstring's float64 sums, taken one nonzero
    query dimension at a time in ascending order, each a pass over one row
    of ``columns``; no temporary is larger than one row. With ``allowed`` (a
    boolean mask over positions) only the positions it keeps are cut and
    sorted; without it the scores are cut as they are, with no gather.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    if query.shape[0] != index.dim:
        raise DimensionMismatch(
            f"query dimension {query.shape[0]} != index dimension {index.dim}")
    columns = index.columns
    sims = np.zeros(columns.shape[1])
    product = np.empty_like(sims)
    for j in np.flatnonzero(query).tolist():
        sims += np.multiply(columns[j], float(query[j]), out=product, dtype=np.float64)
    if allowed is None:
        positions, scores = top_k(np.arange(sims.shape[0]), sims, k)
    else:
        candidates = np.flatnonzero(allowed)
        positions, scores = top_k(candidates, sims[candidates], k)
    return list(zip(positions.tolist(), scores.tolist()))
