"""Deterministic tokenization used by the chunker, the indexes and every metric.

Tokens are maximal runs of Unicode letters/digits, lowercased. Punctuation
and whitespace act as separators, so the same rule doubles as the text
normalizer for quote matching and n-gram attribution.
"""

from __future__ import annotations

import re

# \w minus underscore: letter/digit runs only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def token_spans(text: str) -> list[tuple[int, int]]:
    """Ordered, non-overlapping half-open char spans of the tokens of text.

    ``text[a:b].lower()`` over the spans gives ``token_texts(text)``.
    """
    return [m.span() for m in _TOKEN_RE.finditer(text)]


def token_texts(text: str) -> list[str]:
    """Lowercased token strings only (the common case for scoring/metrics).

    Each token is lowercased after the split: lowering the text first would
    turn "İ" into "i" plus a combining dot, which the pattern does not match.
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]
