"""BM25 inverted index over chunks, stored column-wise.

Scoring:  score(q, d) = sum over query terms t of
    IDF(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))
with IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). The query is treated as a
token sequence, so repeated query terms contribute once per occurrence.

Layout. Chunks are addressed by position: their index in chunk_id order, so
position order is chunk_id order. The postings are compressed sparse rows:
``positions`` (int32) and ``weights`` (float64) are parallel arrays, and
each term owns one row of both. ``postings`` maps a term to its row, and row
r is ``[bounds[r]:bounds[r + 1]]`` of the arrays, ascending by position.
Because k1, b and avgdl are fixed at build time, each weight is that
posting's whole BM25 term above; a query only looks up rows and adds.

Build. The index is built from term ids (``esap.tokenizer.term_ids``), not
from token strings: one key per token, sorted, gives every posting and its
term frequency. Term ids are numbered by first occurrence and a term's id is
its row, so the ``term_ids`` vocabulary is ``postings`` itself; no score
depends on that numbering.

Bit identity. Scores equal those of the plain per-posting loop, not just
closely: weights stay float64, IDF is computed with ``math.log`` (once per
distinct document frequency, which is the same value as once per term),
each weight's operations run in the formula's order, and ``np.bincount``
adds in array order, so each chunk's sum runs in query-token order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .corpus import Chunk
from .dense import top_k
from .errors import EmptyCorpus, require
from .tokenizer import TermIds, term_ids, token_texts

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass
class LexicalIndex:
    chunk_ids: list[str]          # position -> chunk_id, ascending
    postings: dict[str, int]      # term -> its row, iterating in row order
    bounds: list[int]             # row r is [bounds[r]:bounds[r + 1]] of the arrays
    positions: np.ndarray         # int32 chunk positions, ascending per row
    weights: np.ndarray           # float64 BM25 contribution of each posting
    avgdl: float
    k1: float
    b: float

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)


def build_lexical(chunks: list[Chunk], k1: float = DEFAULT_K1, b: float = DEFAULT_B,
                  terms: TermIds | None = None) -> LexicalIndex:
    """BM25 index over the chunks, built from their term ids.

    ``terms`` is ``term_ids`` of the chunk texts in chunk_id order, for a
    caller that already tokenized them; without it the texts are tokenized
    here.
    """
    if not chunks:
        raise EmptyCorpus("cannot build a lexical index over zero chunks")
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    n = len(ordered)
    if terms is None:
        terms = term_ids([c.text for c in ordered])
    vocab, ids, lengths = terms
    del terms
    avgdl = int(lengths.sum()) / n

    # one key per token, term-major; unique keys are the postings in CSR
    # order and their counts are the term frequencies. Ids tokenized here
    # (a call without ``terms``) are freed as soon as the keys hold them; a
    # caller that passed ``terms`` still holds its own
    keys = ids.astype(np.int64)
    del ids
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, tf = np.unique(keys, return_counts=True)
    term, positions = np.divmod(keys, n)
    positions = positions.astype(np.int32)
    del keys
    df = np.bincount(term, minlength=len(vocab))
    # one math.log per distinct document frequency
    dfs, df_index = np.unique(df, return_inverse=True)
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5))
                    for d in dfs.tolist()])[df_index]

    tf = tf.astype(np.float64)
    dl = lengths.astype(np.float64)[positions]
    weights = idf[term] * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    del term, tf, dl

    # term id r is row r, and vocab iterates in id order
    return LexicalIndex([c.chunk_id for c in ordered], vocab, [0, *np.cumsum(df).tolist()],
                        positions, weights, avgdl, k1, b)


def to_columns(index: LexicalIndex) -> tuple[dict, list[np.ndarray]]:
    """The BM25 part of a saved index: header keys for the vocabulary in row
    order, the bounds and avgdl, and a payload of every position (``<i4``),
    then every weight (``<f8``). The caller frames them and stores k1 and b."""
    return ({"vocab": list(index.postings), "bounds": index.bounds, "avgdl": index.avgdl},
            [np.ascontiguousarray(index.positions, dtype="<i4"),
             np.ascontiguousarray(index.weights, dtype="<f8")])


def from_columns(header: dict, payload: bytes | memoryview, chunk_ids: list[str],
                 k1: float, b: float) -> LexicalIndex:
    """The index ``to_columns`` gave ``header`` and ``payload`` (a buffer);
    a malformed column is a ``ValueError`` naming the problem. The arrays
    are copied out of ``payload``, so the index keeps none of its bytes."""
    vocab, bounds, avgdl = header.get("vocab"), header.get("bounds"), header.get("avgdl")
    require(type(vocab) is list and set(map(type, vocab)) <= {str},
            "vocab is not a list of strings")
    require(type(bounds) is list and set(map(type, bounds)) <= {int}
            and len(bounds) == len(vocab) + 1 and bounds[0] == 0
            and all(map(operator.le, bounds, bounds[1:])),
            "posting bounds do not run from 0 up, one more than the vocabulary")
    require(type(avgdl) in (int, float) and math.isfinite(avgdl), "avgdl is not a number")
    m = bounds[-1]
    require(len(payload) == 12 * m,
            f"postings payload is {len(payload)} bytes, expected {12 * m}")
    positions = np.frombuffer(payload, "<i4", m).astype(np.int32)
    weights = np.frombuffer(payload, "<f8", m, 4 * m).astype(np.float64)
    require(m == 0 or 0 <= positions.min() and positions.max() < len(chunk_ids),
            "a posting position is out of range")
    require(bool(np.isfinite(weights).all()), "a posting weight is not finite")
    postings = dict(zip(vocab, range(len(vocab))))
    require(len(postings) == len(vocab), "vocab repeats a term")
    return LexicalIndex(chunk_ids, postings, bounds, positions, weights, float(avgdl), k1, b)


def _candidates(index: LexicalIndex, query: str,
                allowed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of the chunks matching a query term, by position;
    with ``allowed`` (a boolean mask over positions), of those it keeps."""
    rows = [r for r in map(index.postings.get, token_texts(query)) if r is not None]
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0)
    bounds = index.bounds
    positions = np.concatenate([index.positions[bounds[r]:bounds[r + 1]] for r in rows])
    weights = np.concatenate([index.weights[bounds[r]:bounds[r + 1]] for r in rows])
    scores = np.bincount(positions, weights, minlength=index.n_chunks)
    touched = np.zeros(index.n_chunks, dtype=bool)
    touched[positions] = True
    if allowed is not None:
        touched &= allowed
    matched = np.flatnonzero(touched)
    return matched, scores[matched]


def score_query(index: LexicalIndex, query: str) -> dict[str, float]:
    """BM25 scores for every chunk matching at least one query term."""
    matched, scores = _candidates(index, query)
    return dict(zip([index.chunk_ids[p] for p in matched.tolist()], scores.tolist()))


def search_lexical(index: LexicalIndex, query: str, k: int,
                   allowed: np.ndarray | None = None) -> list[tuple[str, float]]:
    """Top-k (chunk_id, score) by BM25, ties broken by chunk_id ascending.

    Only chunks containing at least one query term are candidates, and with
    ``allowed`` (a boolean mask over positions) only those it keeps; the cut
    comes after. IDF and avgdl stay corpus-wide. An empty query returns an
    empty list. May return fewer than k hits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    positions, scores = top_k(*_candidates(index, query, allowed), k)
    return list(zip([index.chunk_ids[p] for p in positions.tolist()],
                    scores.tolist()))
