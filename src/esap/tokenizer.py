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
BM25 and the hashing embedder read. ``overlap_counts`` counts, for many
texts at once, the distinct tokens each shares with a token set: the
offline model bounds every snippet of a draft prompt with it, scanning
the ASCII snippets as one folded block instead of tokenizing each.

``sentences`` is the one sentence split: the answer pipeline reads each
cited claim from it and the offline model picks its answer sentence from it.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict

import numpy as np

# \w minus underscore: letter/digit runs only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# a run of ., ! or ? and the [n] markers right after it; a sentence ends
# there only when whitespace or the end of the text follows
_END_RE = re.compile(r"[.!?]+(?:\s*\[\d+\])*")
# what term_ids returns: (vocab, ids, lengths)
TermIds = tuple[dict[str, int], np.ndarray, np.ndarray]
# ASCII bytes: A-Z lowered, a-z and 0-9 kept, every other byte a space
_ASCII_FOLD = bytes(b + 32 if 65 <= b <= 90 else b if 48 <= b <= 57 or 97 <= b <= 122
                    else 32 for b in range(256))
# the low n bytes of a u8 for n = 0..8: a token's key keeps its own bytes
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _folded_edges(folded: bytes) -> np.ndarray:
    """Token starts and ends of ASCII text folded by the byte table, interleaved."""
    kept = np.zeros(len(folded) + 2, dtype=bool)        # a separator at each end
    kept[1:-1] = np.frombuffer(folded, np.uint8) != 32
    return np.flatnonzero(kept[1:] != kept[:-1])


def token_edges(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Char offsets where the tokens of text start and end, as two int arrays.

    Token i is ``text[starts[i]:ends[i]]``; the spans are ordered and do
    not overlap. ASCII text is scanned for edges instead of matched: a token
    starts or ends wherever the byte table keeps one byte and blanks its
    neighbour, and in ASCII a byte offset is a char offset. Other text takes
    the pattern's spans.
    """
    if text.isascii():
        edges = _folded_edges(text.encode().translate(_ASCII_FOLD))
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


def overlap_counts(texts: list[str], tokens) -> list[int]:
    """How many distinct tokens of each text are in tokens.

    Equal to ``[len(set(tokens) & set(token_texts(t))) for t in texts]``,
    in one pass over the ASCII texts instead of one tokenization per text.
    They are joined by ``\\n`` into one block, folded once by the byte
    table and split at the edges ``token_edges`` finds. A token's key is
    its first eight bytes, read as one ``<u8`` from an unaligned view of
    the block (padded with eight zero bytes) and masked to the token's
    length; no token byte is zero, so a key of under eight bytes names one
    token. All keys are matched against the wanted tokens' keys in one
    ``np.isin``; only the few matches of eight bytes or more, whose key
    every longer token with those first bytes shares, compare their bytes.
    The line ends place each match in its text, and the distinct (text,
    token) pairs are counted per text. Texts outside ASCII take
    ``token_texts``. They stay out of the block, so its byte offsets are
    char offsets.
    """
    wanted = set(tokens)
    counts = [0] * len(texts)
    in_block = []
    for i, text in enumerate(texts):
        if text.isascii():
            in_block.append(i)
        else:
            counts[i] = len(wanted.intersection(token_texts(text)))
    # only a run of [a-z0-9] can be a token of ASCII text
    terms = [t.encode() for t in wanted if t.isascii() and token_texts(t) == [t]]
    if not (in_block and terms):
        return counts
    lines = [texts[i] for i in in_block]
    block = "\n".join(lines).encode().translate(_ASCII_FOLD)
    edges = _folded_edges(block)
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    words = np.ndarray((len(block),), "<u8", block + bytes(8), 0, (1,))
    keys = np.take(words, starts) & np.take(_LOW_BYTES, np.minimum(lengths, 8))
    term_keys = np.array(sorted({int.from_bytes(t[:8], "little") for t in terms}),
                         dtype=np.uint64)
    found = np.flatnonzero(np.isin(keys, term_keys))
    ids = np.searchsorted(term_keys, keys[found])    # the term, if under 8 bytes
    exact = {t: len(term_keys) + j for j, t in enumerate(terms)}
    for j in np.flatnonzero(lengths[found] >= 8).tolist():
        start = starts[found[j]]
        ids[j] = exact.get(block[start:start + lengths[found[j]]], -1)
    keep = ids >= 0
    found, ids = found[keep], ids[keep]
    n_ids = len(term_keys) + len(terms)
    line_of = np.searchsorted(np.cumsum([len(line) + 1 for line in lines]),
                              starts[found], side="right")
    pairs = np.sort(line_of * n_ids + ids)           # (text, term) codes
    first = np.ones(len(pairs), dtype=bool)          # the first of each distinct pair
    first[1:] = pairs[1:] != pairs[:-1]
    per_line = np.bincount(pairs[first] // n_ids, minlength=len(lines))
    for i, count in zip(in_block, per_line.tolist()):
        counts[i] = count
    return counts


def term_ids(texts) -> TermIds:
    """One tokenizing pass over texts: ``(vocab, ids, lengths)``.

    ``vocab`` maps each term to its id, numbered in order of first
    occurrence; ``ids`` (int32) holds the id of every token, text after
    text; ``lengths`` (int64) holds each text's token count, so text i owns
    the ``lengths[i]`` ids after the first ``lengths[:i].sum()``. The ids
    stream from the vocabulary lookups straight into the int32 array, so a
    large corpus never holds a Python int per token.
    """
    vocab: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    lengths: list[int] = []

    def lookups(text: str):
        tokens = token_texts(text)
        lengths.append(len(tokens))
        return map(vocab.__getitem__, tokens)

    ids = np.fromiter(itertools.chain.from_iterable(map(lookups, texts)), dtype=np.int32)
    vocab.default_factory = None             # a plain lookup from here on
    return vocab, ids, np.array(lengths, dtype=np.int64)


def sentences(text: str) -> list[str]:
    """The sentences of text, each with its own whitespace, none blank.

    A sentence ends after a run of ``.``, ``!`` or ``?`` and the ``[n]``
    markers right after it, when whitespace or the end of the text follows:
    "Fees apply. [1]. Next" splits after "[1].". So the point in "2.5" or
    "example.com" ends nothing, while "U.S. sales" splits after "U.S.".
    Joined, the pieces are text without its whitespace-only tail. Each run
    is matched once and only its next char is read, so the split is linear.
    """
    pieces, start = [], 0
    for end in _END_RE.finditer(text):
        stop = end.end()
        if stop == len(text) or text[stop].isspace():
            pieces.append(text[start:stop])
            start = stop
    if text[start:].strip():
        pieces.append(text[start:])
    return pieces
