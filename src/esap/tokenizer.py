"""Deterministic tokenization used by the chunker, the indexes and every metric.

Tokens are maximal runs of Unicode letters/digits, lowercased. Punctuation
and whitespace act as separators, so the same rule doubles as the text
normalizer for quote matching and n-gram attribution.

ASCII text takes an exact fast path. There ``\\w`` is ``[A-Za-z0-9_]``, so
the tokens are the runs of ``[a-z0-9]`` in the lowercased text; a byte table
that lowers A-Z and turns every other ASCII byte but a-z and 0-9 into a
space, followed by ``str.split``, finds those runs about four times faster
than the pattern, and ``token_edges`` finds where those runs start and end by
comparing neighbouring bytes of the table's output. It returns the starts
and the ends as two int arrays, so the chunker reads a window's char bounds
from them without building a pair per token (``token_spans`` pairs them up
for callers that want pairs).

Building an index tokenizes through ``term_ids``: one pass over the chunk
texts gives the term ids that both BM25 and the hashing embedder read. It
takes the texts in blocks of about 2**18 bytes, one line per text; a text
outside ASCII is written as its tokens, which the table keeps whole, as it
keeps every byte of a multibyte UTF-8 char. A block is folded once, every
token is keyed by its bytes as one ``<u8`` (exactly, longer tokens too),
and one sort groups the equal keys. A term the vocabulary has not seen is
appended by one gather of its bytes from the folded block, so a build makes
no Python object per token and no ``str`` per term. ``overlap_counts``
counts, for many texts at once, the distinct tokens each shares with a
token set, keying the texts the same way in one block: the offline model
bounds every snippet of a draft prompt with it instead of tokenizing each.

The vocabulary is a ``Vocabulary``: a read-only mapping from term to row
held as a lexicon string with term pointers (Manning, Raghavan & Schütze
2008, §5.2.1), the terms' UTF-8 bytes end to end in row order with their
byte offsets, looked up by binary search in the sorted array of their token
keys. A build and a load hold equal arrays, and a term is decoded into a
``str`` only when the mapping is iterated.

``sentences`` is the one sentence split: the answer pipeline reads each
cited claim from it and the offline model picks its answer sentence from it.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import require

# \w minus underscore: letter/digit runs only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# a run of ., ! or ? and the [n] markers right after it; a sentence ends
# there only when whitespace or the end of the text follows
_END_RE = re.compile(r"[.!?]+(?:\s*\[\d+\])*")
# ASCII bytes: A-Z lowered, a-z and 0-9 kept, every other ASCII byte a
# space; the bytes of the multibyte UTF-8 chars a lowered token may hold kept
_ASCII_FOLD = bytes(b + 32 if 65 <= b <= 90 else b if 48 <= b <= 57 or 97 <= b <= 122
                    or b >= 128 else 32 for b in range(256))
# the low n bytes of a u8 for n = 0..8: a token's key keeps its own bytes
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# above every token key: no UTF-8 byte is 0xff, and a long key's low byte is 0
_PAST_KEYS = (1 << 64) - 1
# bytes of text term_ids keys at once, like _BLOCK in esap.lexical
_TERM_BLOCK = 1 << 18
# what _fold puts after a block, so that eight bytes can be read from any
# token's start; the byte table folds it to spaces
_PAD = bytes(8)


def _folded_edges(folded: bytes) -> np.ndarray:
    """Token starts and ends of text folded by the byte table, interleaved."""
    kept = np.zeros(len(folded) + 2, dtype=bool)        # a separator at each end
    np.not_equal(np.frombuffer(folded, np.uint8), 32, out=kept[1:-1])
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


def _line(text: str) -> bytes:
    """A text as one line of a block: ASCII as it is, any other text as its tokens.

    A text outside ASCII becomes its ``token_texts`` joined by spaces. A
    lowered token holds only a-z, 0-9 and non-ASCII chars, whose UTF-8
    bytes the byte table keeps, so folding the line splits it back into
    those tokens.
    """
    return (text if text.isascii() else " ".join(token_texts(text))).encode()


def _fold(lines: list[bytes]) -> bytes:
    """Lines joined by ``\\n`` and folded once by the byte table, then eight
    spaces (``_PAD``), which hold no token."""
    return b"\n".join([*lines, _PAD]).translate(_ASCII_FOLD)


def _short_keys(padded: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each token's first eight bytes of ``padded`` read as one ``<u8`` and
    masked to its length; ``padded`` holds eight bytes from every start.

    The words are read from an unaligned view of the bytes, not a copy. No
    token byte is zero, so the key of a token of up to eight bytes names it
    and its low byte is not zero.
    """
    words = np.ndarray((len(padded) - 7,), "<u8", padded, 0, (1,))
    keys = words[starts]
    keys &= np.take(_LOW_BYTES, lengths, mode="clip")       # over eight: every byte
    return keys


def _token_keys(block: bytes, long_key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token starts, lengths and one exact ``<u8`` key per token of a block
    ``_fold`` gave.

    A token of up to eight bytes is keyed by its bytes (``_short_keys``). A
    longer token takes ``long_key(its bytes)``, a key with a zero low byte
    that the caller hands out. Tokens over eight bytes are rare (about 3 in
    10,000 of the benchmark corpora's tokens), so each takes one lookup.
    The starts and lengths share one array, int32 in a block under 2 GB.
    """
    edges = _folded_edges(block)
    if len(block) < 1 << 31:                            # half the bytes held across a sort
        edges = edges.astype(np.int32)
    edges[1::2] -= edges[0::2]                          # each end less its start
    starts, lengths = edges[0::2], edges[1::2]
    keys = _short_keys(block, starts, lengths)
    long = np.flatnonzero(lengths > 8)
    keys[long] = np.array([long_key(block[a:a + b]) for a, b in
                           zip(starts[long].tolist(), lengths[long].tolist())], dtype=np.uint64)
    return starts, lengths, keys


def _long_keys() -> defaultdict[bytes, int]:
    """A table handing each new long token the next multiple of 256 as its key."""
    return defaultdict(itertools.count(1 << 8, 1 << 8).__next__)


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` by one sort.

    ``np.unique`` finds first indices by a stable sort, several times
    slower on token keys, and its first call imports ``numpy.ma`` (about
    16 ms, paid by a one-shot ``esap ask``); here an item's first index is
    the least index in its run of the sorted keys.
    """
    order = np.argsort(keys)
    if len(keys) < 1 << 31:                      # int32 positions and ranks
        order = order.astype(np.int32)
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)        # the first of each run of equal keys
    head[1:] = ordered[1:] != ordered[:-1]
    heads = np.flatnonzero(head)
    distinct = ordered[heads]
    del ordered
    first = np.minimum.reduceat(order, heads) if len(heads) else heads
    del heads
    rank = np.cumsum(head, dtype=order.dtype)    # each item's distinct key, from 1
    del head
    rank -= 1
    inverse = np.empty(len(keys), dtype=order.dtype)
    inverse[order] = rank
    return distinct, first, inverse


def overlap_counts(texts: list[str], tokens) -> list[int]:
    """How many distinct tokens of each text are in tokens.

    Equal to ``[len(set(tokens) & set(token_texts(t))) for t in texts]``,
    in one pass over the texts instead of one tokenization per text. Each
    text is one line of a block (``_line``), folded once by the byte table
    and keyed by ``_token_keys``; the wanted tokens are keyed the same way,
    through the same long-token table, so all keys are matched in one
    ``np.isin``. The line ends place each match in its text, and the
    distinct (text, token) pairs are counted per text.
    """
    # a token is one run of bytes that the byte table keeps as they are
    terms = [t for t in {t.encode() for t in tokens} if t.translate(_ASCII_FOLD).split() == [t]]
    if not (texts and terms):
        return [0] * len(texts)
    long_key = _long_keys().__getitem__
    term_keys = np.sort(_token_keys(_fold(terms), long_key)[2])
    lines = [_line(text) for text in texts]
    starts, _, keys = _token_keys(_fold(lines), long_key)
    found = np.flatnonzero(np.isin(keys, term_keys))
    ids = np.searchsorted(term_keys, keys[found])
    line_of = np.searchsorted(np.cumsum([len(line) + 1 for line in lines]),
                              starts[found], side="right")
    pairs = np.sort(line_of * len(terms) + ids)      # (text, term) codes
    first = np.ones(len(pairs), dtype=bool)          # the first of each distinct pair
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount(pairs[first] // len(terms), minlength=len(lines)).tolist()


def _blocks(texts):
    """The texts as folded blocks of at most about ``_TERM_BLOCK`` bytes
    of lines (``_line``, ``_fold``), each with the offsets where its lines end.

    A block ends between texts, so a line longer than ``_TERM_BLOCK`` is a
    block of its own. A block's lines are let go once it is folded.
    """
    lines: list[bytes] = []
    size = 0
    for text in texts:
        line = _line(text)
        if lines and size + len(line) > _TERM_BLOCK:
            yield _folded(lines)
            size = 0
        lines.append(line)
        size += len(line) + 1
    if lines:
        yield _folded(lines)


def _folded(lines: list[bytes]) -> tuple[bytes, np.ndarray]:
    """``_fold(lines)`` and the offsets where the lines end; empties lines."""
    ends = np.cumsum([len(line) + 1 for line in lines])
    block = _fold(lines)
    lines.clear()
    return block, ends


def _gather(block: bytes, starts: np.ndarray, lengths: np.ndarray) -> bytes:
    """The spans of block at starts, of lengths, end to end, in one gather.

    Each byte taken sits one past the one before it, except the first byte
    of a span, so the indices are the running sum, taken in place, of those
    steps: one index per byte taken, in the starts' own type.
    """
    ends = np.cumsum(lengths)
    index = np.ones(ends[-1] if len(ends) else 0, dtype=starts.dtype)
    index[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    index[:1] = starts[:1]
    np.cumsum(index, dtype=index.dtype, out=index)
    return np.frombuffer(block, np.uint8)[index].tobytes()


@dataclass(frozen=True, eq=False)
class Vocabulary(Mapping):
    """term -> row over the terms' UTF-8 bytes; iterates in row order.

    ``data`` holds the terms end to end in row order, and term r is
    ``data[offsets[r]:offsets[r + 1]]``. ``sorted_keys`` holds each term's
    token key (``_token_keys``) in ascending order, then one above them all,
    and ``key_rows`` the row of each key, then -1. A term over eight bytes
    is keyed by the next multiple of 256 in row order, as a build's
    long-token table hands them out, so a built vocabulary and its loaded
    copy hold equal arrays. Those few terms are also kept in a bytes -> key
    dict, where a term that is not there gets 0, which keys no term. A
    lookup encodes the term once and bisects the keys; a term becomes a
    ``str`` only when the mapping is iterated.

    An empty term, a NUL byte (a key would name two terms) or a repeated
    term is a ``ValueError`` naming it.
    """

    data: bytes
    offsets: np.ndarray           # <i8 byte offsets, one more than there are terms
    sorted_keys: np.ndarray       # <u8 token keys, ascending, then _PAST_KEYS
    key_rows: np.ndarray          # int32 row of each key, then -1
    # the key of each term over eight bytes; 0 keys no term
    _long: dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self):
        lengths = np.diff(self.offsets)
        require(b"\0" not in self.data, "a vocab term holds a NUL byte")
        require(lengths.min(initial=1) > 0, "vocab holds an empty term")
        long = np.flatnonzero(lengths > 8)
        terms = [self.data[a:b] for a, b in zip(self.offsets[long].tolist(),
                                                self.offsets[long + 1].tolist())]
        object.__setattr__(self, "_long", {t: (i + 1) << 8 for i, t in enumerate(terms)})
        require(not (self.sorted_keys[1:] == self.sorted_keys[:-1]).any()
                and len(self._long) == len(terms), "vocab repeats a term")
        for array in (self.offsets, self.sorted_keys, self.key_rows):
            array.flags.writeable = False

    @classmethod
    def of_terms(cls, data: bytes, offsets: np.ndarray) -> Vocabulary:
        """The vocabulary of the terms ``data`` holds at ``offsets``, keyed
        in one vectorized pass and sorted once."""
        lengths = np.diff(offsets)
        keys = _short_keys(data + _PAD, offsets[:-1], lengths)
        long = np.flatnonzero(lengths > 8)
        keys[long] = np.arange(1, len(long) + 1, dtype=np.uint64) << np.uint64(8)
        order = np.argsort(keys)
        return cls(data, offsets, np.append(keys[order], np.uint64(_PAST_KEYS)),
                   np.append(order.astype(np.int32), np.int32(-1)))

    def rows_of(self, tokens: list[str]) -> np.ndarray:
        """The rows of the tokens that are terms, in token order, repeats
        kept: one encode per token and one ``np.searchsorted``."""
        keys = np.frombuffer(b"".join([
            t.ljust(8, b"\0") if len(t) <= 8 else self._long.get(t, 0).to_bytes(8, "little")
            for t in map(str.encode, tokens)]), "<u8")
        at = self.sorted_keys.searchsorted(keys)     # the method skips a dispatch
        return self.key_rows[at[self.sorted_keys[at] == keys]]

    def __getitem__(self, term: str) -> int:
        data = term.encode("utf-8", "surrogatepass") if isinstance(term, str) else b""
        key = int.from_bytes(data, "little") if len(data) <= 8 else self._long.get(data, 0)
        row = int(self.key_rows[np.searchsorted(self.sorted_keys, np.uint64(key))])
        # the bytes decide: a NUL byte keys a string as if it were shorter
        if row < 0 or self.data[self.offsets[row]:self.offsets[row + 1]] != data:
            raise KeyError(term)
        return row

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.data[a:b].decode() for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.offsets) - 1


# what term_ids returns: (vocab, ids, lengths)
TermIds = tuple[Vocabulary, np.ndarray, np.ndarray]


def term_ids(texts) -> TermIds:
    """One tokenizing pass over texts: ``(vocab, ids, lengths)``.

    ``vocab`` is the ``Vocabulary`` of the terms, each term's id its row,
    numbered in order of first occurrence; ``ids`` (int32) holds the id of
    every token, text after text; ``lengths`` (int64) holds each text's
    token count, so text i owns the ``lengths[i]`` ids after the first
    ``lengths[:i].sum()``.

    The texts are taken in blocks of about ``_TERM_BLOCK`` bytes, each
    text one line (``_line``: a text outside ASCII is its ``token_texts``).
    A block is folded once by the byte table and keyed by ``_token_keys``,
    one ``<u8`` per token. One sort groups the equal keys (``_unique``),
    the block's distinct keys are looked up in a sorted array of the keys
    of the terms seen so far, and the terms not seen before, in order of
    first occurrence, are appended to the vocabulary's bytes by one gather
    from the block (``_gather``). So a block makes no Python object per
    token or per term, no more than a block is held as keys at once, and
    each temporary of a block goes after its last use.
    """
    long_key = _long_keys().__getitem__
    # the keys of the terms seen, sorted, then one above every key
    seen = np.full(1, _PAST_KEYS, dtype=np.uint64)
    seen_ids = np.full(1, -1, dtype=np.int32)            # the id of each
    data = bytearray()                                   # the terms' bytes, in id order
    term_ends = [np.zeros(1, dtype=np.int64)]            # where each term's bytes end
    ids = np.empty(0, dtype=np.int32)
    lengths: list[int] = []
    for block, line_ends in _blocks(texts):
        starts, token_lengths, keys = _token_keys(block, long_key)
        # cast, or searchsorted would cast a copy of the starts
        ends_at = np.searchsorted(starts, line_ends.astype(starts.dtype))
        lengths += np.diff(ends_at, prepend=0).tolist()
        distinct, first, inverse = _unique(keys)
        del keys
        at = np.searchsorted(seen, distinct)
        distinct_ids = seen_ids[at]
        fresh = np.flatnonzero(seen[at] != distinct)     # in key order
        new = fresh[np.argsort(first[fresh])]            # in order of first occurrence
        distinct_ids[new] = np.arange(len(seen) - 1, len(seen) - 1 + len(new), dtype=np.int32)
        # grown in place, as np.fromiter grows its buffer, so the ids are
        # never held twice; no array views them, so no check is needed
        n = len(ids)
        ids.resize(n + len(inverse), refcheck=False)
        ids[n:] = distinct_ids[inverse]
        del inverse
        new_starts, new_lengths = starts[first[new]], token_lengths[first[new]]
        del starts, token_lengths
        term_ends.append(np.cumsum(new_lengths) + len(data))
        data += _gather(block, new_starts, new_lengths)
        seen = np.insert(seen, at[fresh], distinct[fresh])
        seen_ids = np.insert(seen_ids, at[fresh], distinct_ids[fresh])
    vocab = Vocabulary(bytes(data), np.concatenate(term_ends), seen, seen_ids)
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
