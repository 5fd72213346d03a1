"""Deterministic tokenization used by the chunker, the indexes and every metric.

Tokens are maximal runs of Unicode letters/digits, lowercased. Punctuation
and whitespace act as separators, so the same rule doubles as the text
normalizer for quote matching and n-gram attribution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# \w minus underscore: letter/digit runs only
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Token:
    text: str               # lowercased surface form
    start: int              # half-open char offsets into the source text
    end: int


def tokenize(text: str) -> list[Token]:
    """Split text into ordered, non-overlapping tokens with char spans."""
    return [
        Token(m.group(0).lower(), m.start(), m.end())
        for m in _TOKEN_RE.finditer(text)
    ]


def token_texts(text: str) -> list[str]:
    """Lowercased token strings only (the common case for scoring/metrics).

    Each token is lowercased after the split, as in ``tokenize``: lowering
    the text first would turn "İ" into "i" plus a combining dot, which the
    pattern does not match.
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]
