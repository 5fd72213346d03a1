from __future__ import annotations

import random
import re
import string
import sys
import time

import numpy as np
import pytest

from esap import corpus, tokenizer
from esap.corpus import Document, chunk_document
from esap.tokenizer import (Vocabulary, overlap_counts, sentences, term_ids, token_edges,
                            token_spans, token_texts)


def test_basic_tokens_and_spans():
    text = "The red Apple, sits."
    assert token_texts(text) == ["the", "red", "apple", "sits"]
    # spans point at the original casing
    a, b = token_spans(text)[2]
    assert text[a:b] == "Apple"


def test_lowercase_and_digits():
    assert token_texts("ABC def42 7x") == ["abc", "def42", "7x"]


def test_underscore_is_a_separator():
    assert token_texts("snake_case") == ["snake", "case"]


def test_punctuation_only_yields_nothing():
    assert token_texts("... --- !!!") == []
    assert token_texts("") == []
    assert token_spans("... --- !!!") == []


def assert_spans_match_texts(text: str) -> None:
    spans = token_spans(text)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start, text
    assert all(a < b for a, b in spans), text
    assert [text[a:b].lower() for a, b in spans] == token_texts(text), text


def test_spans_are_disjoint_and_ordered():
    rng = random.Random(7)
    alphabet = "ab c.d-e_f9 \n\t"
    for _ in range(200):
        assert_spans_match_texts(
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60))))


def test_spans_match_token_texts_on_unicode():
    # "İ" lowercases to "i" plus a combining dot, "ǅ" is titlecase, "ß" and
    # "Σ" change under case mapping, U+0301 is a combining mark
    rng = random.Random(11)
    alphabet = "İßΣσǅ́_09aZ .-"
    for _ in range(2000):
        assert_spans_match_texts(
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30))))
    assert token_texts("İstanbul") == ["i̇stanbul"]


def unicode_path(text: str) -> list[str]:
    """The general rule: letter/digit runs, each lowercased after the split."""
    return [t.lower() for t in re.findall(r"[^\W_]+", text)]


def test_ascii_fast_path_equals_the_unicode_path():
    # every ASCII character is drawn, letters and separators most often:
    # upper case, digits, "_", punctuation, whitespace and control bytes
    rng = random.Random(17)
    common = string.ascii_letters + string.digits + "_ .,-!?\t\n\r\x0b\x0c\x1c\x1f"
    texts = ["".join(rng.choice(common) if rng.random() < 0.8 else chr(rng.randrange(128))
                     for _ in range(rng.randrange(0, 80)))
             for _ in range(5000)]
    texts.append("".join(map(chr, range(128))))
    for text in texts:
        assert text.isascii()
        assert token_texts(text) == unicode_path(text), repr(text)
    assert token_texts("MiXeD_case-Tokens42 x9Y") == ["mixed", "case", "tokens42", "x9y"]


def pattern_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in re.finditer(r"[^\W_]+", text)]


def random_ascii_texts(seed: int, count: int) -> list[str]:
    # upper case, digits, "_", punctuation, whitespace and control bytes,
    # separators leading and trailing, and the empty text
    rng = random.Random(seed)
    common = string.ascii_letters + string.digits + "_ .,-!?\t\n\x00\x7f"
    texts = ["", " ", "_", "a", "Z9", "__x__", " lead", "trail. ", "\x00only\x7f"]
    for _ in range(count):
        body = "".join(rng.choice(common) if rng.random() < 0.9 else chr(rng.randrange(128))
                       for _ in range(rng.randrange(0, 120)))
        texts.append(rng.choice(["", " ", "_-", "\n"]) + body + rng.choice(["", " ", "!_", "\t"]))
    return texts


def test_ascii_span_scan_equals_the_pattern():
    texts = random_ascii_texts(29, 5000)
    texts.append("".join(map(chr, range(128))))
    for text in texts:
        assert text.isascii()
        assert token_spans(text) == pattern_spans(text), repr(text)
        assert all(type(x) is int for span in token_spans(text) for x in span)


def test_chunks_are_unchanged_by_the_span_scan(monkeypatch):
    texts = random_ascii_texts(31, 400)
    rng = random.Random(37)
    sizes = [rng.randrange(1, 12) for _ in texts]
    settings = [(size, rng.randrange(size)) for size in sizes]     # (size, overlap)

    def chunks():
        return [chunk_document(Document(doc_id="d", version=1, text=text), size, overlap)
                for text, (size, overlap) in zip(texts, settings)]

    scanned = chunks()
    monkeypatch.setattr(corpus, "token_edges", pattern_edges)
    assert scanned == chunks()
    # plain ints, as the per-token loop sliced with
    assert all(type(x) is int for doc in scanned for chunk in doc
               for x in (*chunk.token_span, chunk.version, chunk.size_tokens))


def pattern_edges(text: str) -> tuple[np.ndarray, np.ndarray]:
    spans = np.array(pattern_spans(text), dtype=np.intp).reshape(-1, 2)
    return spans[:, 0], spans[:, 1]


def test_token_edges_equal_the_pattern():
    rng = random.Random(41)
    alphabet = "aZ9_ .-\n\x00İßΣ中文́"
    texts = random_ascii_texts(43, 1000) + [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        for _ in range(1000)]
    for text in texts:
        starts, ends = token_edges(text)
        want_starts, want_ends = pattern_edges(text)
        assert starts.dtype.kind == ends.dtype.kind == "i"
        assert starts.tolist() == want_starts.tolist(), repr(text)
        assert ends.tolist() == want_ends.tolist(), repr(text)


def term_ids_reference(texts) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """term_ids as one lookup per token: dict.fromkeys over token_texts."""
    tokens = [token_texts(text) for text in texts]
    flat = [token for t in tokens for token in t]
    vocab = {term: i for i, term in enumerate(dict.fromkeys(flat))}
    return (vocab, np.array([vocab[token] for token in flat], dtype=np.int32),
            np.array([len(t) for t in tokens], dtype=np.int64))


def assert_term_ids_equal_the_reference(texts):
    vocab, ids, lengths = term_ids(text for text in texts)     # a generator too
    want_vocab, want_ids, want_lengths = term_ids_reference(texts)
    assert type(vocab) is Vocabulary and list(vocab.items()) == list(want_vocab.items()), texts
    assert ids.dtype == np.int32 and lengths.dtype == np.int64
    assert ids.tolist() == want_ids.tolist(), texts
    assert lengths.tolist() == want_lengths.tolist(), texts


# 8-byte tokens, longer ones that share their first 8 (or 16) bytes, digits,
# and words outside ASCII; the Kelvin sign lowers to an ASCII k
_TERM_WORDS = ["a", "Z", "7", "42", "red", "Apple", "APPLE", "x1", "12345678", "123456789",
               "basketba", "basketbal", "basketball", "basketbell", "BasketBall",
               "abcdefghijklmnopqrst", "abcdefghijklmnopqrsu", "abcdefghijklmnop",
               "é", "café", "İstanbul", "İ", "ß", "straße", "STRASSE", "Kelvin\u212a"]
# underscore and NBSP separate tokens; NBSP also makes its text non-ASCII
_TERM_SEPARATORS = [" ", "  ", "\t", "\n", "_", ".", "?!", "\u00a0", ""]


def test_term_ids_is_one_token_texts_pass(monkeypatch):
    # ids are numbered by first occurrence, text after text, at any block
    # size: a text longer than the block is a block of its own, so small
    # blocks end both within runs of texts and between them
    pieces = _TERM_WORDS + _TERM_SEPARATORS
    ascii_pieces = [piece for piece in pieces if piece.isascii()]
    for block in (1, 5, 16, 64, 1 << 18):
        monkeypatch.setattr(tokenizer, "_TERM_BLOCK", block)
        rng = random.Random(block)
        for _ in range(300):
            texts = ["".join(rng.choices(ascii_pieces if rng.random() < 0.6 else pieces,
                                         k=rng.randrange(0, 12)))
                     for _ in range(rng.randrange(0, 9))]
            assert_term_ids_equal_the_reference(texts)


@pytest.mark.parametrize("texts", [
    [],
    [""],
    ["", "", ""],
    ["?! ... _", "", "__"],                                 # texts with no tokens
    ["12345678 1234567 123456789", "12345678"],
    ["basketball basketbell", "BASKETBELL basketballs basketball"],
    ["abcdefghijklmnopq abcdefghijklmnopr", "abcdefghijklmnopr"],
    # a term first seen outside ASCII, then in ASCII texts, and the reverse
    ["İstanbul red apple ßasketball", "red apple", "basketball ßasketball"],
    ["red apple basketball", "straße red_apple BASKETBALL", "straße apple"],
    ["x_1 9\u00a0Kelvin\u212a", "k 9 x 1", "kelvink"],
])
def test_term_ids_on_chosen_texts(monkeypatch, texts):
    for block in (1, 8, 1 << 18):
        monkeypatch.setattr(tokenizer, "_TERM_BLOCK", block)
        assert_term_ids_equal_the_reference(texts)
    vocab, _, _ = term_ids(texts)
    with pytest.raises(KeyError):
        vocab["pear"]                     # a lookup never adds a term


# never a term of a _TERM_WORDS corpus: long words that share their first
# 8 or 16 bytes with a long term, one longer than 16 bytes, an upper-case
# word, strings that are no token, a lone surrogate and the Kelvin sign
# (its token lowers to an ASCII k)
_ABSENT_TERMS = ["basketbalz", "basketballs", "abcdefghijklmnopqrsz", "abcdefghijklmnopqrstu",
                 "abcdefghijklmnopqrstuvwxyz", "APPLE", "red apple", "a\0", "\0", "", "\udfff",
                 "kelvin\u212a", "pear"]


def test_vocabulary_lookups_equal_a_dicts(monkeypatch):
    pieces = _TERM_WORDS + _TERM_SEPARATORS
    for block in (1, 5, 8, 16, 64, 1 << 18):
        monkeypatch.setattr(tokenizer, "_TERM_BLOCK", block)
        rng = random.Random(block + 1)
        for _ in range(100):
            texts = ["".join(rng.choices(pieces, k=rng.randrange(0, 12)))
                     for _ in range(rng.randrange(0, 9))]
            vocab = term_ids(texts)[0]
            want = term_ids_reference(texts)[0]
            assert list(vocab.items()) == list(want.items()) and len(vocab) == len(want)
            probes = [*want, *map(str.upper, want), *_ABSENT_TERMS, 5, None]
            for term in probes:
                assert (term in vocab) == (term in want), (texts, term)
                assert vocab.get(term) == want.get(term), (texts, term)
                if term not in want:
                    with pytest.raises(KeyError):
                        vocab[term]
            # a load keys the stored bytes into the arrays a build holds
            loaded = Vocabulary.of_terms(vocab.data, vocab.offsets)
            assert loaded.data == vocab.data
            for name in ("offsets", "sorted_keys", "key_rows"):
                want_array, got = getattr(vocab, name), getattr(loaded, name)
                assert got.dtype == want_array.dtype and np.array_equal(got, want_array), name
            # rows_of takes tokens: in token order, repeats kept, the rest dropped
            tokens = rng.choices([t for t in probes if isinstance(t, str)
                                  and token_texts(t) == [t]], k=12)
            assert vocab.rows_of(tokens).tolist() == [want[t] for t in tokens if t in want]


def test_the_byte_table_keeps_every_lowered_token_char():
    # term_ids and overlap_counts write a text outside ASCII as its tokens
    # joined by spaces, so no char of a lowered token may be one the byte
    # table blanks or one str.split splits at
    chars = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
    lowered = [char.lower() for char in "".join(tokenizer._TOKEN_RE.findall(chars))]
    line = " ".join(lowered).encode()
    assert line.translate(tokenizer._ASCII_FOLD) == line
    assert line.decode().split() == lowered


def test_unique_groups_items_as_numpy_unique_does():
    # the distinct keys may come in another order, so each item is compared
    # by the first index of its group
    rng = np.random.default_rng(5)
    for size in [0, 1, 2, 100, 5000]:
        keys = rng.integers(0, 4, size=size).astype(np.uint64) << np.uint64(40)
        distinct, first, inverse = tokenizer._unique(keys)
        _, want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)
        assert len(distinct) == len(want_first)
        assert np.array_equal(distinct[inverse], keys)
        assert first[inverse].tolist() == want_first[want_inverse].tolist()


def overlap_reference(texts: list[str], tokens) -> list[int]:
    return [len(set(tokens) & set(token_texts(text))) for text in texts]


# words of 1 to 20 chars: basketball and basketbell share their length and
# their first eight bytes, which basketba is, and so do the two 20-char words
_OVERLAP_WORDS = ["a", "Z", "7", "red", "Apple", "APPLE", "42", "x1", "basketba", "basketbal",
                  "basketball", "basketbell", "BasketBall", "12345678", "123456789",
                  "abcdefghijklmnopqrst", "abcdefghijklmnopqrsu", "é", "café", "İstanbul",
                  "İ", "ß", "straße", "STRASSE"]
_OVERLAP_SEPARATORS = [" ", "  ", "\t", "\n", "_", ".", "?!", "\u00a0", "\u2003"]


def test_overlap_counts_equal_the_per_text_intersection():
    rng = random.Random(57)
    vocabulary = sorted({t for word in _OVERLAP_WORDS for t in token_texts(word)})
    # tokens no text holds: absent words, capitals, a space, an underscore
    # and the empty string
    strays = ["pear", "basketbal1", "Apple", "İ", "x y", "x_1", ""]
    for _ in range(3000):
        texts = ["".join(rng.choice(_OVERLAP_WORDS + _OVERLAP_SEPARATORS)
                         for _ in range(rng.randrange(0, 14)))
                 for _ in range(rng.randrange(0, 9))]
        tokens = rng.sample(vocabulary + strays, rng.randrange(0, 12))
        counts = overlap_counts(texts, tokens)
        assert counts == overlap_reference(texts, tokens), (texts, tokens)
        assert all(type(count) is int for count in counts)


@pytest.mark.parametrize("texts,tokens,expected", [
    # a non-ASCII text before ASCII ones leaves their offsets alone
    (["İstanbul ßßßß straße café", "red apple", "basketball", "red"],
     {"red", "apple", "basketball", "straße"}, [1, 2, 1, 1]),
    (["basketball basketbell", "basketbell", "BASKETBA basketballs"],
     {"basketball", "basketba"}, [1, 0, 1]),
    # repeated and absent tokens count once and not at all
    (["apple apple APPLE", "pear"], ["apple", "apple", "fig"], [1, 0]),
    (["", "?! ... _", "a"], {"a"}, [0, 0, 1]),
    (["red apple", "x1 42"], set(), [0, 0]),
    ([], {"red"}, []),
])
def test_overlap_counts_on_chosen_texts(texts, tokens, expected):
    assert overlap_reference(texts, tokens) == expected
    assert overlap_counts(texts, tokens) == expected


# ---------------------------------------------------------------------------
# sentences
# ---------------------------------------------------------------------------

def whitespace_split(text: str) -> list[str]:
    """The split at whitespace after ., ! or ?, stripped, blanks dropped."""
    return [s.strip() for s in re.split(r"(?<=[.!?])\s+", text) if s.strip()]


# words, numbers and abbreviations with inner points, ellipses, quotes,
# brackets that are not markers, and Unicode spaces
_SENTENCE_PARTS = ["fee", "U.S.", "e.g.", "3.5", "2.", "example.com", "$1.5m", "4.2(b)",
                   'stop."', "...", "\u2026", "?!", "!", "?", ".", "[", "]", "[x]", "(", "9",
                   " ", " ", " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u3000", "\x1c"]


def random_sentence_texts(seed: int, count: int, parts: list[str]) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choices(parts, k=rng.randrange(0, 16))) for _ in range(count)]


def test_sentences_equal_the_whitespace_split_on_marker_free_text():
    texts = [text for text in random_sentence_texts(32, 110_000, _SENTENCE_PARTS)
             if not re.search(r"\[\d+\]", text)]
    assert len(texts) > 100_000
    texts += ["", " ", "A. B! C? D", "U.S. sales rose.", "The fee is 2.5 percent."]
    for text in texts:
        assert [s.strip() for s in sentences(text)] == whitespace_split(text), repr(text)
    assert sentences("The fee is 2.5 percent. U.S. sales rose!") == \
        ["The fee is 2.5 percent.", " U.S.", " sales rose!"]


def test_sentences_join_to_the_text_without_its_blank_tail():
    parts = _SENTENCE_PARTS + ["[1]", "[2]", " [3]", "[12]"]
    for text in random_sentence_texts(33, 20_000, parts):
        pieces = sentences(text)
        joined = "".join(pieces)
        assert text.startswith(joined), repr(text)
        assert not text[len(joined):].strip(), repr(text)
        assert all(piece.strip() for piece in pieces), repr(text)
    # an end's markers, and punctuation right after them, are its sentence's
    assert sentences("Fees apply. [1][2]. Next [3]! tail ") == \
        ["Fees apply. [1][2].", " Next [3]!", " tail "]
    assert sentences("Fees apply.[1] Next") == ["Fees apply.[1]", " Next"]


@pytest.mark.parametrize("text", ["a" + "." * 20_000 + "b", "!?" * 10_000, ".[1]" * 5_000,
                                  "[" * 20_000, "." + "[" * 20_000, ". " * 10_000,
                                  "." + " " * 20_000 + "[1", ".[1" * 6_667],
                         ids=["dots", "bangs", "marked-dots", "brackets", "dot-brackets",
                              "ends", "dot-spaces", "dot-open-marker"])
def test_sentences_split_worst_cases_in_linear_time(text):
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        pieces = sentences(text)
        best = min(best, time.perf_counter() - started)
    assert "".join(pieces) == text.rstrip()
    assert best < 0.05
