"""Deterministic tokenization used by the chunker, the indexes and every metric.

Tokens are maximal runs of Unicode letters/digits, lowercased. Punctuation
and whitespace act as separators, so the same rule doubles as the text
normalizer for quote matching and n-gram attribution.

ASCII text takes an exact fast path. There ``\\w`` is ``[A-Za-z0-9_]``, so
the tokens are the runs of ``[a-z0-9]`` in the lowercased text; a byte table
that lowers A-Z and turns every other byte but a-z and 0-9 into a space,
followed by ``str.split``, finds those runs about four times faster than the
pattern, and ``token_edges`` finds where those runs start and end by
comparing neighbouring bytes of the table's output. It returns the starts
and the ends as two int arrays, so the chunker reads a window's char bounds
from them without building a pair per token (``token_spans`` pairs them up
for callers that want pairs). Building an index tokenizes through
``term_ids``: one pass over the chunk texts gives the term ids that both
BM25 and the hashing embedder read.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections import defaultdict

import numpy as np

# \w minus underscore: letter/digit runs only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# what term_ids returns: (vocab, ids, lengths)
TermIds = tuple[dict[str, int], np.ndarray, np.ndarray]
# ids term_ids gathers in a list before it moves them into its int32 array
_PENDING_IDS = 1 << 16
# ASCII bytes: A-Z lowered, a-z and 0-9 kept, every other byte a space
_ASCII_FOLD = bytes(b + 32 if 65 <= b <= 90 else b if 48 <= b <= 57 or 97 <= b <= 122
                    else 32 for b in range(256))


def token_edges(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Char offsets where the tokens of text start and end, as two int arrays.

    Token i is ``text[starts[i]:ends[i]]``; the spans are ordered and do
    not overlap. ASCII text is scanned for edges instead of matched: a token
    starts or ends wherever the byte table keeps one byte and blanks its
    neighbour, and in ASCII a byte offset is a char offset. Other text takes
    the pattern's spans.
    """
    if text.isascii():
        kept = np.zeros(len(text) + 2, dtype=bool)      # a separator at each end
        kept[1:-1] = np.frombuffer(text.encode().translate(_ASCII_FOLD), np.uint8) != 32
        edges = np.flatnonzero(kept[1:] != kept[:-1])
    else:
        edges = np.fromiter(itertools.chain.from_iterable(
            m.span() for m in _TOKEN_RE.finditer(text)), dtype=np.intp)
    return edges[0::2], edges[1::2]


def token_spans(text: str) -> list[tuple[int, int]]:
    """Ordered, non-overlapping half-open char spans of the tokens of text.

    ``text[a:b].lower()`` over the spans gives ``token_texts(text)``; the
    spans are ``token_edges(text)`` paired up, as plain ints.
    """
    starts, ends = token_edges(text)
    return list(zip(starts.tolist(), ends.tolist()))


def token_texts(text: str) -> list[str]:
    """Lowercased token strings only (the common case for scoring/metrics).

    Outside ASCII each token is lowercased after the split: lowering the
    text first would turn "İ" into "i" plus a combining dot, which the
    pattern does not match. ASCII text has no such case, so it is lowered
    and split in one table pass (module docstring).
    """
    if text.isascii():
        return text.encode().translate(_ASCII_FOLD).decode().split()
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def term_ids(texts) -> TermIds:
    """One tokenizing pass over texts: ``(vocab, ids, lengths)``.

    ``vocab`` maps each term to its id, numbered in order of first
    occurrence; ``ids`` (int32) holds the id of every token, text after
    text; ``lengths`` (int64) holds each text's token count, so text i owns
    the ``lengths[i]`` ids after the first ``lengths[:i].sum()``. Ids are
    gathered in a list of at most about ``_PENDING_IDS`` and moved into a
    4-byte array from there, so a large corpus never holds a pointer per
    token.
    """
    vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    ids = array("i")
    pending: list[int] = []
    lengths = []
    for text in texts:
        tokens = token_texts(text)
        lengths.append(len(tokens))
        pending.extend(map(vocab.__getitem__, tokens))
        if len(pending) >= _PENDING_IDS:
            ids.fromlist(pending)
            pending.clear()
    ids.fromlist(pending)
    vocab.default_factory = None             # a plain lookup from here on
    return (vocab, np.frombuffer(ids, dtype=np.int32) if ids else np.empty(0, np.int32),
            np.array(lengths, dtype=np.int64))
