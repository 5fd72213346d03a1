"""BM25 inverted index over chunks, stored column-wise.

Scoring:  score(q, d) = sum over query terms t of
    IDF(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))
with IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). The query is treated as a
token sequence, so repeated query terms contribute once per occurrence.

Layout. Chunks are addressed by position: their index in chunk_id order, so
position order is chunk_id order. The postings are compressed sparse rows:
``positions`` (int32) and ``weights`` (float64) are parallel arrays, and each
term owns one slice of both (``postings[term]``), ascending by position.
Because k1, b and avgdl are fixed at build time, each weight is that
posting's whole BM25 term above; a query only looks up slices and adds.

Build. The index is built from term ids (``esap.tokenizer.term_ids``), not
from token strings: one key per token, sorted, gives every posting and its
term frequency. Term ids are numbered by first occurrence; no score depends
on that numbering.

Bit identity. Scores equal those of the plain per-posting loop, not just
closely: weights stay float64, IDF is computed with ``math.log`` (once per
distinct document frequency, which is the same value as once per term),
each weight's operations run in the formula's order, and ``np.bincount``
adds in array order, so each chunk's sum runs in query-token order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .corpus import Chunk
from .dense import top_k
from .errors import EmptyCorpus
from .tokenizer import TermIds, term_ids, token_texts

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass
class LexicalIndex:
    chunk_ids: list[str]          # position -> chunk_id, ascending
    postings: dict[str, slice]    # term -> its slice, slices in array order
    positions: np.ndarray         # int32 chunk positions, ascending per term
    weights: np.ndarray           # float64 BM25 contribution of each posting
    avgdl: float
    k1: float
    b: float

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    @classmethod
    def from_bounds(cls, chunk_ids: list[str], vocab: Iterable[str], bounds: list[int],
                    positions: np.ndarray, weights: np.ndarray, avgdl: float,
                    k1: float, b: float) -> "LexicalIndex":
        """The index whose term ``vocab[i]`` owns ``bounds[i]:bounds[i + 1]``."""
        postings = dict(zip(vocab, map(slice, bounds[:-1], bounds[1:])))
        return cls(chunk_ids, postings, positions, weights, avgdl, k1, b)

    def vocab_bounds(self) -> tuple[list[str], list[int]]:
        """The inverse of ``from_bounds``: the terms in array order and the
        bounds of their slices."""
        return list(self.postings), [0, *(s.stop for s in self.postings.values())]


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
    # order and their counts are the term frequencies. The ids a load
    # tokenized are freed as soon as the keys hold them
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

    # vocab iterates in id order, the order of the slices
    return LexicalIndex.from_bounds([c.chunk_id for c in ordered], vocab,
                                    [0, *np.cumsum(df).tolist()], positions,
                                    weights, avgdl, k1, b)


def _candidates(index: LexicalIndex, query: str,
                allowed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of the chunks matching a query term, by position;
    with ``allowed`` (a boolean mask over positions), of those it keeps."""
    slices = [s for s in map(index.postings.get, token_texts(query)) if s is not None]
    if not slices:
        return np.empty(0, dtype=np.intp), np.empty(0)
    positions = np.concatenate([index.positions[s] for s in slices])
    weights = np.concatenate([index.weights[s] for s in slices])
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
