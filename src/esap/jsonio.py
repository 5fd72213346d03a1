"""One reader for JSON files the program did not write.

Bad UTF-8, bad JSON (``NaN`` and ``Infinity`` included, which Python's
``json`` would accept) and a value of the wrong top-level type raise the
error class the caller passes in (``ConfigError``, ``CorruptIndex``,
``CorpusFormatError``, ...), naming the file or the line. Checks on the
fields inside a value stay with the caller.
"""

from __future__ import annotations

import json
from pathlib import Path

# the top-level kinds callers ask for, by the names messages give them
_KINDS = {"object": lambda value: isinstance(value, dict),
          "array of strings": lambda value: isinstance(value, list)
          and all(isinstance(item, str) for item in value)}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def parse_json(data: bytes | memoryview, error: type[Exception], where: str, kind: str):
    """Parse ``data``, named ``where`` in messages, as one JSON ``kind``."""
    try:
        value = json.loads(str(data, "utf-8"), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:    # bad UTF-8 or JSON, NaN, deep nesting
        raise error(f"{where} is not valid JSON: {exc}") from exc
    if not _KINDS[kind](value):
        raise error(f"{where} must be a JSON {kind}, got {type(value).__name__}")
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
