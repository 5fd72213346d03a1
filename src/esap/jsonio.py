"""One reader for JSON files the program did not write.

Bad UTF-8, bad JSON (``NaN`` and ``Infinity`` included, which Python's
``json`` would accept), a value of the wrong top-level type and a string
holding a lone surrogate (an escape such as ``\\ud800`` that no UTF-8
writer can encode) raise the error class the caller passes in
(``ConfigError``, ``CorruptIndex``, ``CorpusFormatError``, ...), naming the
file or the line. Checks on the fields inside a value stay with the caller.
``encodable`` is the one test of a string's text domain, for JSON values,
corpus documents and index builds alike.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# a JSON escape for a UTF-16 surrogate; a valid pair decodes to one character
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")

# the top-level kinds callers ask for, by the names messages give them
_KINDS = {"object": lambda value: isinstance(value, dict),
          "array of strings": lambda value: isinstance(value, list)
          and all(isinstance(item, str) for item in value)}


def encodable(text: str) -> bool:
    """UTF-8 can encode ``text``: it holds no lone surrogate. An ASCII
    string costs one ``isascii``."""
    return text.isascii() or not _SURROGATE_RE.search(text)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _refuse_lone_surrogates(value, error: type[Exception], where: str) -> None:
    """Raise ``error`` naming the top-level member any string of which, a
    name included, ``encodable`` refuses."""
    for key, item in value.items() if isinstance(value, dict) else [(None, value)]:
        stack = [key, item]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack.extend(node)
                stack.extend(node.values())
            elif isinstance(node, list):
                stack.extend(node)
            elif isinstance(node, str) and not encodable(node):
                named = "" if key is None else f": {json.dumps(key)}"
                raise error(f"{where}{named} holds a lone surrogate, which UTF-8 cannot encode")


def parse_json(data: bytes | memoryview, error: type[Exception], where: str, kind: str):
    """Parse ``data``, named ``where`` in messages, as one JSON ``kind``.

    The value is walked for lone surrogates only when the text holds a
    surrogate escape, so other text costs one scan.
    """
    try:
        text = str(data, "utf-8")
        value = json.loads(text, parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:    # bad UTF-8 or JSON, NaN, deep nesting
        raise error(f"{where} is not valid JSON: {exc}") from exc
    if not _KINDS[kind](value):
        raise error(f"{where} must be a JSON {kind}, got {type(value).__name__}")
    if _SURROGATE_ESCAPE_RE.search(text):
        _refuse_lone_surrogates(value, error, where)
    return value


def read_json(path: str | Path, error: type[Exception], what: str, kind: str):
    """Parse the file at ``path``, named ``what`` in messages, as one JSON ``kind``."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    return parse_json(data, error, what, kind)


def read_jsonl(path: str | Path, error: type[Exception]) -> list[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line, once all have parsed.

    An ``OSError`` from reading the file propagates as it is.
    """
    # bytes.splitlines splits where text-mode reading does: \n, \r\n and \r
    lines = Path(path).read_bytes().splitlines()
    return [(lineno, parse_json(line, error, f"line {lineno}", "object"))
            for lineno, line in enumerate(lines, start=1) if line.strip()]
