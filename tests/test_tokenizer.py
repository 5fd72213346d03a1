from __future__ import annotations

import random
import re
import string

import numpy as np
import pytest

from esap import corpus
from esap.corpus import Document, chunk_document
from esap.tokenizer import term_ids, token_edges, token_spans, token_texts


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


def test_term_ids_is_one_token_texts_pass():
    rng = random.Random(23)
    alphabet = "abAB c.d-e_f9 İß\n"
    for _ in range(300):
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
                 for _ in range(rng.randrange(0, 8))]
        vocab, ids, lengths = term_ids(texts)
        tokens = [token_texts(text) for text in texts]
        assert ids.dtype == np.int32 and lengths.dtype == np.int64
        assert lengths.tolist() == [len(t) for t in tokens]
        # ids are numbered by first occurrence, text after text
        flat = [token for t in tokens for token in t]
        assert list(vocab) == list(dict.fromkeys(flat))
        assert list(vocab.values()) == list(range(len(vocab)))
        terms = list(vocab)
        assert [terms[i] for i in ids.tolist()] == flat
    vocab, ids, lengths = term_ids([])
    assert (vocab, ids.tolist(), lengths.tolist()) == ({}, [], [])
    vocab, _, _ = term_ids(["red apple"])
    with pytest.raises(KeyError):
        vocab["pear"]                     # a lookup never adds a term
