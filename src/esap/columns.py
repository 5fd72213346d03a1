"""Raw little-endian columns, the sections of an index data file.

A string column is two sections: its strings joined into one UTF-8 block,
and ``<i8`` char offsets into the decoded block (one more than there are
strings, from 0 up to the block's length), so string i is
``block[offsets[i]:offsets[i + 1]]``. A number column is one section of a
fixed dtype. Readers take ``memoryview``s of verified file bytes; a
malformed column is a ``ValueError`` naming it, for the caller to name the
file. A string column may also be written from and read as its UTF-8 bytes
with byte offsets (``utf8_sections``, ``read_utf8``), which makes no
``str`` per string. ``are_strings`` and ``are_i8s`` say whether values can
be written as a column and read back equal.
"""

from __future__ import annotations

import numpy as np

from .errors import require
from .jsonio import encodable


def is_count(value) -> bool:
    """A JSON int >= 0 (a bool names no count)."""
    return type(value) is int and value >= 0


def _are(values: list, kind: type) -> bool:
    """Every value is a ``kind``, a subclass included; a bool is no int."""
    return all(issubclass(t, kind) and t is not bool for t in set(map(type, values)))


def are_strings(values: list) -> bool:
    """Every value is a str UTF-8 can encode; ASCII ones cost one ``isascii``."""
    return _are(values, str) and (all(map(str.isascii, values))
                                  or all(map(encodable, values)))


def are_i8s(values: list) -> bool:
    """Every value is an int within ``<i8``; ``values`` is not empty."""
    return _are(values, int) and -2**63 <= min(values) and max(values) < 2**63


def string_sections(name: str, strings: list[str]) -> list[tuple[str, bytes | np.ndarray]]:
    """The two sections of a string column: ``name`` and ``name_offsets``."""
    offsets = np.zeros(len(strings) + 1, dtype="<i8")
    np.cumsum(np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)),
              out=offsets[1:])
    return [(name, "".join(strings).encode("utf-8")), (f"{name}_offsets", offsets)]


def utf8_sections(name: str, data: bytes,
                  offsets: np.ndarray) -> list[tuple[str, bytes | np.ndarray]]:
    """The two sections of a string column given as its strings' UTF-8
    bytes end to end and their ``<i8`` byte offsets: the bytes as they are,
    and the char offsets, which outside ASCII count the bytes before each
    offset that start a char."""
    if not data.isascii():
        chars = np.zeros(len(data) + 1, dtype="<i8")
        np.cumsum(_char_starts(data), out=chars[1:])
        offsets = chars[offsets]
    return [(name, data), (f"{name}_offsets", np.ascontiguousarray(offsets, dtype="<i8"))]


def _char_starts(data: bytes) -> np.ndarray:
    """Whether each byte of UTF-8 data starts a char (is no continuation byte)."""
    return (np.frombuffer(data, np.uint8) & 0xC0) != 0x80


def _require_offsets(offsets: np.ndarray, length: int, name: str) -> None:
    require(offsets[0] == 0 and offsets[-1] == length and not (offsets[1:] < offsets[:-1]).any(),
            f"the {name} offsets do not run up from 0 to the block's length")


def read_array(view: memoryview, dtype: str, count: int, name: str) -> np.ndarray:
    """The ``count`` values of ``dtype`` that make up a section, as a
    read-only view of its bytes, which stay alive while the view does."""
    size = np.dtype(dtype).itemsize * count
    require(len(view) == size, f"the {name} section is {len(view)} bytes, expected {size}")
    return np.frombuffer(view, dtype, count)


def read_strings(sections: dict[str, memoryview], name: str, count: int) -> list[str]:
    """The ``count`` strings of the column ``string_sections`` wrote as ``name``."""
    offsets = read_array(sections[f"{name}_offsets"], "<i8", count + 1, f"{name}_offsets")
    try:
        block = str(sections[name], "utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"the {name} section is not UTF-8: {exc}") from exc
    _require_offsets(offsets, len(block), name)
    bounds = offsets.tolist()
    return [block[a:b] for a, b in zip(bounds, bounds[1:])]


def read_utf8(sections: dict[str, memoryview], name: str,
              count: int) -> tuple[bytes, np.ndarray]:
    """The column ``string_sections`` or ``utf8_sections`` wrote as ``name``,
    as its UTF-8 bytes, copied out of the section, and the ``<i8`` byte
    offsets of its ``count`` strings. One decode checks the bytes are
    UTF-8 and counts their chars; no ``str`` per string is made."""
    offsets = read_array(sections[f"{name}_offsets"], "<i8", count + 1, f"{name}_offsets")
    data = bytes(sections[name])
    try:
        chars = len(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"the {name} section is not UTF-8: {exc}") from exc
    _require_offsets(offsets, chars, name)
    if chars == len(data):                   # ASCII: a char is a byte
        return data, offsets.copy()
    return data, np.append(np.flatnonzero(_char_starts(data)), len(data))[offsets]
