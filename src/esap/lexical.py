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
index also holds avgdl and each chunk's length norm,
``k1 * (1 - b + b * |d| / avgdl)``, where |d| is the sum of the chunk's
term frequencies, from one ``np.bincount`` pass over the postings. Once
made by a build or a load, an index is never written: its arrays are
read-only, so concurrent searches share no mutable state.

Weights. The index keeps term frequencies, not weights, and a query
computes the BM25 terms of its own rows' postings (``bm25_weights``): the
IDF of the row, times tf, times (k1 + 1), divided by the chunk's norm plus
tf. Inverted files that keep term frequencies and score at query time are
the textbook design (Zobel & Moffat 2006).

Build. The index is built from term ids (``esap.tokenizer.term_ids``), not
from token strings: one key per token, sorted, gives every posting and its
term frequency. Term ids are numbered by first occurrence and a term's id is
its row, so the ``term_ids`` vocabulary is ``postings`` itself; no score
depends on that numbering.

Storage. ``to_columns`` and ``from_columns`` write and read the BM25
sections of the index's lexical part: the vocabulary in row order, the row
bounds, the positions and the term frequencies. Neither weights nor norms
are stored: a load sums the chunk lengths and avgdl from the term frequencies
and derives the norms as a build does, so a loaded index scores bit for bit
as the built one did, and a load tokenizes nothing.

Bit identity. Scores equal those of the plain per-posting loop, not just
closely: weights stay float64, IDF is computed with ``math.log`` (once per
distinct document frequency among the query's rows, which is the same value
as once per term), the norm's operations and each weight's run in the
formula's order, and ``np.bincount`` adds in array order, so each chunk's
sum runs in query-token order.
"""

from __future__ import annotations

import math
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
# postings per ``np.bincount`` call of ``chunk_lengths``
_BLOCK = 1 << 16


@dataclass
class LexicalIndex:
    chunk_ids: list[str]          # position -> chunk_id, ascending
    postings: dict[str, int]      # term -> its row, iterating in row order
    bounds: np.ndarray            # <i8: row r is [bounds[r]:bounds[r + 1]] of the arrays
    positions: np.ndarray         # int32 chunk positions, ascending per row
    tf: np.ndarray                # unsigned term frequency of each posting
    k1: float
    b: float
    # derived from the postings: each chunk's float64 length norm, and avgdl
    norms: np.ndarray = field(init=False, repr=False)
    avgdl: float = field(init=False)

    def __post_init__(self):
        norms, self.avgdl = chunk_lengths(self.positions, self.tf, self.n_chunks)
        norms *= self.b
        # with every chunk empty, avgdl and every length are 0, and no
        # posting reads a norm
        norms /= self.avgdl or 1.0
        norms += 1.0 - self.b
        norms *= self.k1
        self.norms = norms
        for array in (self.bounds, self.positions, self.tf, self.norms):
            array.flags.writeable = False

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    @property
    def weights(self) -> np.ndarray:
        """Each posting's float64 BM25 term, computed on each read."""
        return bm25_weights(self, self.positions, self.tf, np.diff(self.bounds).tolist())


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


def bm25_weights(index: LexicalIndex, positions: np.ndarray, tf: np.ndarray,
                 dfs: list[int]) -> np.ndarray:
    """The BM25 terms of whole rows of the index's postings, laid end to
    end: their ``positions`` and ``tf``, and ``dfs``, each row's length,
    which is its term's document frequency.

    Each operation runs in the formula's order: the IDF of the posting's
    row (one ``math.log`` per distinct document frequency), times tf, times
    (k1 + 1), divided by the chunk's length norm plus tf. Every step is
    element-wise, so a posting's weight has the same bits among whatever
    rows it is computed: ``LexicalIndex.weights`` is this function over
    every row.
    """
    n = index.n_chunks
    idf = {d: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in set(dfs)}
    weights = np.repeat([idf[d] for d in dfs], dfs)
    weights *= tf
    weights *= index.k1 + 1.0
    # positions are in range; "clip" spares the bounds check
    norm = np.take(index.norms, positions, mode="clip")
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
    bounds = np.zeros(len(vocab) + 1, dtype="<i8")
    np.cumsum(np.bincount(keys // n, minlength=len(vocab)), out=bounds[1:])
    positions = np.remainder(keys, n, out=keys).astype(np.int32)
    del keys
    tf = tf.astype(np.min_scalar_type(tf.max(initial=0)))
    return LexicalIndex([c.chunk_id for c in ordered], vocab, bounds, positions, tf, k1, b)


def to_columns(index: LexicalIndex) -> tuple[dict, list[tuple[str, bytes | np.ndarray]]]:
    """The BM25 part of a saved index: header keys for the term and posting
    counts and the tf type, and the ``SECTIONS``: the vocabulary in row
    order (a string column), the row bounds (``<i8``), every position
    (``<i4``) and every term frequency. The caller frames them and stores k1
    and b."""
    tf_type = f"u{index.tf.dtype.itemsize}"
    return ({"terms": len(index.postings), "postings": len(index.positions), "tf": tf_type},
            [*string_sections("vocab", list(index.postings)),
             ("bounds", index.bounds),
             ("positions", np.ascontiguousarray(index.positions, dtype="<i4")),
             ("tf", np.ascontiguousarray(index.tf, dtype=f"<{tf_type}"))])


def from_columns(header: dict, sections: dict[str, memoryview], chunk_ids: list[str],
                 k1: float, b: float) -> LexicalIndex:
    """The index ``to_columns`` gave ``header`` and the ``SECTIONS`` (views of
    the file bytes, by name); a malformed column is a ``ValueError`` naming
    the problem. The arrays are copied out of the sections, so the index
    keeps none of their bytes; the norms and avgdl are derived from the
    term frequencies as a build derives them."""
    v, m, tf_type = header.get("terms"), header.get("postings"), header.get("tf")
    require(is_count(v) and is_count(m), "the term or posting count is not a count")
    require(tf_type in _TF_TYPES, f"the tf type is not one of {', '.join(_TF_TYPES)}")
    vocab = read_strings(sections, "vocab", v)
    postings = dict(zip(vocab, range(v)))
    require(len(postings) == v, "vocab repeats a term")
    bounds = read_array(sections["bounds"], "<i8", v + 1, "bounds").copy()
    require(bounds[0] == 0 and bounds[-1] == m and not (bounds[1:] < bounds[:-1]).any(),
            "posting bounds do not run up from 0 to the posting count")
    positions = read_array(sections["positions"], "<i4", m, "positions").astype(np.int32)
    require(m == 0 or 0 <= positions.min() and positions.max() < len(chunk_ids),
            "a posting position is out of range")
    tf = read_array(sections["tf"], f"<{tf_type}", m, "tf").astype(tf_type)
    require(m == 0 or tf.min() > 0, "a term frequency is 0")
    return LexicalIndex(chunk_ids, postings, bounds, positions, tf, k1, b)


def _candidates(index: LexicalIndex, query: str,
                allowed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(positions, scores) of the chunks matching a query term, by position;
    with ``allowed`` (a boolean mask over positions), of those it keeps."""
    rows = [r for r in map(index.postings.get, token_texts(query)) if r is not None]
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0)
    bounds = index.bounds
    spans = [(bounds.item(r), bounds.item(r + 1)) for r in rows]
    positions = np.concatenate([index.positions[a:z] for a, z in spans])
    tf = np.concatenate([index.tf[a:z] for a, z in spans])
    weights = bm25_weights(index, positions, tf, [z - a for a, z in spans])
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
