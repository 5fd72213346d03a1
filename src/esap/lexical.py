"""BM25 inverted index over chunks.

Scoring:  score(q, d) = sum over query terms t of
    IDF(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))
with IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). The query is treated as a
token sequence, so repeated query terms contribute once per occurrence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Chunk
from .errors import EmptyCorpus
from .tokenizer import token_texts

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass
class LexicalIndex:
    postings: dict[str, list[tuple[str, int]]]   # term -> [(chunk_id, tf)], sorted by chunk_id
    chunk_lengths: dict[str, int]
    n_chunks: int
    avgdl: float
    k1: float
    b: float

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_chunks - df + 0.5) / (df + 0.5))


def build_lexical(chunks: list[Chunk], k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> LexicalIndex:
    if not chunks:
        raise EmptyCorpus("cannot build a lexical index over zero chunks")
    postings: dict[str, list[tuple[str, int]]] = {}
    chunk_lengths: dict[str, int] = {}
    # posting lists come out sorted by chunk_id because chunks go in that order
    for chunk in sorted(chunks, key=lambda c: c.chunk_id):
        terms = token_texts(chunk.text)
        chunk_lengths[chunk.chunk_id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((chunk.chunk_id, tf))
    n = len(chunks)
    avgdl = sum(chunk_lengths.values()) / n
    return LexicalIndex(postings, chunk_lengths, n, avgdl, k1, b)


def score_query(index: LexicalIndex, query: str) -> dict[str, float]:
    """BM25 scores for every chunk matching at least one query term."""
    scores: dict[str, float] = {}
    for term in token_texts(query):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for chunk_id, tf in plist:
            dl = index.chunk_lengths[chunk_id]
            denom = tf + index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
            scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * tf * (index.k1 + 1.0) / denom
    return scores


def search_lexical(index: LexicalIndex, query: str, k: int) -> list[tuple[str, float]]:
    """Top-k (chunk_id, score) by BM25, ties broken by chunk_id ascending.

    Only chunks containing at least one query term are candidates; an empty
    query returns an empty list. May return fewer than k hits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = score_query(index, query)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
