"""BM25 inverted index over chunks, stored column-wise.

Scoring:  score(q, d) = sum over query terms t of
    IDF(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))
with IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). The query is treated as a
token sequence, so repeated query terms contribute once per occurrence.

Layout. Chunks are addressed by position: their index in chunk_id order, so
position order is chunk_id order. The postings are compressed sparse rows:
``positions`` (int32) and ``tf`` (the smallest unsigned type that holds the
largest term frequency) are parallel arrays, and each term owns one row of
them. ``postings`` maps a term to its row, and row r is
``[bounds[r]:bounds[r + 1]]`` of the arrays, ascending by position. The
index also holds each chunk's length (the sum of its term frequencies) and
avgdl, from one ``np.bincount`` pass over the postings.

Weights. Because k1, b and avgdl are fixed once the postings are known,
each posting has one weight, its whole BM25 term above, and a query only
looks up rows and adds their weights. The weights live in one float64
array, parallel to the postings, that the first search allocates. It is
filled a block of ``_BLOCK`` postings at a time (``bm25_weights``), the
first time a query's rows reach that block, so a build or a load computes
none, and a query computes only the blocks its rows span. Inverted files
that keep term frequencies and derive weights at query time are the
textbook design (Zobel & Moffat 2006).

Build. The index is built from term ids (``esap.tokenizer.term_ids``), not
from token strings: one key per token, sorted, gives every posting and its
term frequency. Term ids are numbered by first occurrence and a term's id is
its row, so the ``term_ids`` vocabulary is ``postings`` itself; no score
depends on that numbering.

Storage. ``to_columns`` and ``from_columns`` write and read the BM25
sections of ``lexical.bin``: the vocabulary in row order, the row bounds,
the positions and the term frequencies. Weights are not stored: a load sums
the chunk lengths and avgdl from the term frequencies as a build does, and
its weights come from the same blocks, so a loaded index scores bit for bit
as the built one did, and a load tokenizes nothing.

Bit identity. Scores equal those of the plain per-posting loop, not just
closely: weights stay float64, IDF is computed with ``math.log`` (once per
distinct document frequency in a block, which is the same value as once
per term), each weight's operations run in the formula's order, and
``np.bincount`` adds in array order, so each chunk's sum runs in
query-token order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .columns import is_count, read_array, read_strings, string_sections
from .corpus import Chunk
from .dense import top_k
from .errors import EmptyCorpus, require
from .tokenizer import TermIds, term_ids, token_texts

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
# the sections ``to_columns`` writes, in file order
SECTIONS = ("vocab", "vocab_offsets", "bounds", "positions", "tf")
# the term frequency types a file may name
_TF_TYPES = ("u1", "u2", "u4", "u8")
# postings per block of BM25 weights: a search computes a block the first
# time its rows reach it (``LexicalIndex.weights_for``)
_BLOCK = 1 << 16


class _Weights:
    """A float64 BM25 weight per posting, computed a block of ``_BLOCK``
    postings at a time. A block's flag is set only after its values are
    written, so whoever sees it set reads finished weights, and two threads
    that compute one block write the same bits."""

    __slots__ = ("values", "done", "complete")

    def __init__(self, m: int):
        self.values = np.empty(m)
        self.done = [False] * -(-m // _BLOCK)
        self.complete = not self.done


@dataclass
class LexicalIndex:
    chunk_ids: list[str]          # position -> chunk_id, ascending
    postings: dict[str, int]      # term -> its row, iterating in row order
    bounds: list[int]             # row r is [bounds[r]:bounds[r + 1]] of the arrays
    positions: np.ndarray         # int32 chunk positions, ascending per row
    tf: np.ndarray                # unsigned term frequency of each posting
    lengths: np.ndarray           # float64 length of each chunk: the sum of its tf
    avgdl: float
    k1: float
    b: float
    # the weights, allocated by the first search (``weights_for``)
    _weights: _Weights | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    @property
    def weights(self) -> np.ndarray:
        """Each posting's float64 BM25 term; reading it computes every block."""
        return self.weights_for([(0, len(self.positions))])

    def weights_for(self, spans: list[tuple[int, int]]) -> np.ndarray:
        """The weights array, with every block that a ``(start, stop)`` span
        of postings reaches computed (``bm25_weights``); the other blocks
        hold no weights yet. Once every block is computed this is one
        check."""
        # two first searches at once may each allocate an array; each fills
        # and reads its own, and the index keeps the last one assigned
        state = self._weights
        if state is None:
            state = self._weights = _Weights(len(self.positions))
        if not state.complete:
            done, m = state.done, len(self.positions)
            for block in sorted({i for a, z in spans if a < z
                                 for i in range(a // _BLOCK, (z - 1) // _BLOCK + 1)}):
                if not done[block]:
                    start = block * _BLOCK
                    stop = min(start + _BLOCK, m)
                    state.values[start:stop] = bm25_weights(self, start, stop)
                    done[block] = True
            state.complete = all(done)
        return state.values


def chunk_lengths(positions: np.ndarray, tf: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """The float64 length of each of n chunks, the sum of its term
    frequencies, and avgdl.

    A block of ``_BLOCK`` postings at a time, as bincount copies its input
    to intp and float64; sums of integers are exact in any order.
    """
    lengths = np.zeros(n)
    for start in range(0, len(positions), _BLOCK):
        lengths += np.bincount(positions[start:start + _BLOCK], tf[start:start + _BLOCK],
                               minlength=n)
    return lengths, int(lengths.sum()) / n


def bm25_weights(index: LexicalIndex, start: int, stop: int) -> np.ndarray:
    """The BM25 terms of postings ``[start:stop]`` of the index.

    A term's document frequency is its row's length. Each operation runs in
    the formula's order: the IDF of the posting's row (one ``math.log`` per
    distinct document frequency), times tf, times (k1 + 1), divided by the
    length norm. Every step is element-wise, so a posting's weight has the
    same bits in whatever span it is computed: the weights of the whole
    index are this function over ``[0:len(index.positions)]``.
    """
    bounds, n = index.bounds, index.n_chunks
    # the rows that hold the span's postings, and their edges
    first, last = bisect_right(bounds, start) - 1, bisect_left(bounds, stop)
    edges = np.array(bounds[first:last + 1], dtype=np.int64)
    dfs, df_index = np.unique(np.diff(edges), return_inverse=True)
    idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in dfs.tolist()])
    weights = np.repeat(idf[df_index], np.diff(np.clip(edges, start, stop)))
    tf = index.tf[start:stop]
    weights *= tf
    weights *= index.k1 + 1.0
    # positions are in range; "clip" spares the bounds check
    norm = np.take(index.lengths, index.positions[start:stop], mode="clip")
    norm *= index.b
    norm /= index.avgdl
    norm += 1.0 - index.b
    norm *= index.k1
    norm += tf
    weights /= norm
    return weights


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

    # one key per token, term-major; unique keys are the postings in CSR
    # order and their counts are the term frequencies. Ids tokenized here
    # (a call without ``terms``) are freed as soon as the keys hold them; a
    # caller that passed ``terms`` still holds its own
    keys = ids.astype(np.int64)
    del ids
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, tf = np.unique(keys, return_counts=True)
    # term id r is row r, and vocab iterates in id order
    bounds = np.zeros(len(vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(vocab)), out=bounds[1:])
    positions = np.remainder(keys, n, out=keys).astype(np.int32)
    del keys
    tf = tf.astype(np.min_scalar_type(tf.max(initial=0)))
    return LexicalIndex([c.chunk_id for c in ordered], vocab, bounds.tolist(),
                        positions, tf, *chunk_lengths(positions, tf, n), k1, b)


def to_columns(index: LexicalIndex) -> tuple[dict, list[tuple[str, bytes | np.ndarray]]]:
    """The BM25 part of a saved index: header keys for the term and posting
    counts and the tf type, and the ``SECTIONS``: the vocabulary in row
    order (a string column), the row bounds (``<i8``), every position
    (``<i4``) and every term frequency. The caller frames them and stores k1
    and b."""
    tf_type = f"u{index.tf.dtype.itemsize}"
    return ({"terms": len(index.postings), "postings": len(index.positions), "tf": tf_type},
            [*string_sections("vocab", list(index.postings)),
             ("bounds", np.asarray(index.bounds, dtype="<i8")),
             ("positions", np.ascontiguousarray(index.positions, dtype="<i4")),
             ("tf", np.ascontiguousarray(index.tf, dtype=f"<{tf_type}"))])


def from_columns(header: dict, sections: dict[str, memoryview], chunk_ids: list[str],
                 k1: float, b: float) -> LexicalIndex:
    """The index ``to_columns`` gave ``header`` and the ``SECTIONS`` (views of
    the file bytes, by name); a malformed column is a ``ValueError`` naming
    the problem. The arrays are copied out of the sections, so the index
    keeps none of their bytes; the chunk lengths and avgdl are summed from
    the term frequencies, and the weights wait for the first search."""
    v, m, tf_type = header.get("terms"), header.get("postings"), header.get("tf")
    require(is_count(v) and is_count(m), "the term or posting count is not a count")
    require(tf_type in _TF_TYPES, f"the tf type is not one of {', '.join(_TF_TYPES)}")
    vocab = read_strings(sections, "vocab", v)
    postings = dict(zip(vocab, range(v)))
    require(len(postings) == v, "vocab repeats a term")
    bounds = read_array(sections["bounds"], "<i8", v + 1, "bounds")
    require(bounds[0] == 0 and bounds[-1] == m and not (bounds[1:] < bounds[:-1]).any(),
            "posting bounds do not run up from 0 to the posting count")
    positions = read_array(sections["positions"], "<i4", m, "positions").astype(np.int32)
    require(m == 0 or 0 <= positions.min() and positions.max() < len(chunk_ids),
            "a posting position is out of range")
    tf = read_array(sections["tf"], f"<{tf_type}", m, "tf").astype(tf_type)
    require(m == 0 or tf.min() > 0, "a term frequency is 0")
    return LexicalIndex(chunk_ids, postings, bounds.tolist(), positions, tf,
                        *chunk_lengths(positions, tf, len(chunk_ids)), k1, b)


def _candidates(index: LexicalIndex, query: str,
                allowed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of the chunks matching a query term, by position;
    with ``allowed`` (a boolean mask over positions), of those it keeps."""
    rows = [r for r in map(index.postings.get, token_texts(query)) if r is not None]
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0)
    bounds = index.bounds
    spans = [(bounds[r], bounds[r + 1]) for r in rows]
    weights = index.weights_for(spans)
    positions = np.concatenate([index.positions[a:z] for a, z in spans])
    weights = np.concatenate([weights[a:z] for a, z in spans])
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
