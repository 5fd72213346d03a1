from __future__ import annotations

import random

from esap.tokenizer import Token, token_texts, tokenize


def test_basic_tokens_and_spans():
    text = "The red Apple, sits."
    tokens = tokenize(text)
    assert [t.text for t in tokens] == ["the", "red", "apple", "sits"]
    # spans point at the original casing
    assert text[tokens[2].start:tokens[2].end] == "Apple"


def test_lowercase_and_digits():
    assert token_texts("ABC def42 7x") == ["abc", "def42", "7x"]


def test_underscore_is_a_separator():
    assert token_texts("snake_case") == ["snake", "case"]


def test_punctuation_only_yields_nothing():
    assert token_texts("... --- !!!") == []
    assert token_texts("") == []


def test_spans_are_disjoint_and_ordered():
    rng = random.Random(7)
    alphabet = "ab c.d-e_f9 \n\t"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        tokens = tokenize(text)
        for a, b in zip(tokens, tokens[1:]):
            assert a.end <= b.start
        for t in tokens:
            assert text[t.start:t.end].lower() == t.text


def test_token_is_value_like():
    assert Token(text="ab", start=0, end=2) == Token(text="ab", start=0, end=2)


def test_token_texts_match_tokenize_on_unicode():
    # "İ" lowercases to "i" plus a combining dot, "ǅ" is titlecase, "ß" and
    # "Σ" change under case mapping, U+0301 is a combining mark
    rng = random.Random(11)
    alphabet = "İßΣσǅ́_09aZ .-"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        assert token_texts(text) == [t.text for t in tokenize(text)], text
    assert token_texts("İstanbul") == ["i̇stanbul"]
