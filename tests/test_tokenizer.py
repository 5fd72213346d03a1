from __future__ import annotations

import random

from esap.tokenizer import token_spans, token_texts


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
