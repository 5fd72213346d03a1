"""Pluggable ports: chat models, embedders, and SQL executors.

Production adapters talk to an OpenAI-style HTTP endpoint and to SQLite.
Test doubles (scripted queue, extractive stub, hashing embedder) are
first-class citizens so every pipeline can run deterministically offline.
Both engines reach a chat port only through ``reply`` (a required call)
and ``optional_reply`` (a call whose stage has a fallback); a request is one
user prompt. No adapter reads the environment: ``esap.cli`` alone reads the
variables the config names and passes their values in.
"""

from __future__ import annotations

import functools
import os
import re
import sqlite3
import time
import urllib.parse
from contextlib import closing
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import (
    ModelRefusal,
    NonSelectRejected,
    ScriptExhausted,
    SqlRuntimeError,
    SqlSyntaxError,
    SqlTimeout,
    TransportError,
)
from .tokenizer import Vocabulary, overlap_counts, sentences, term_ids, token_texts

EMBED_DIM = 256

DEFAULT_MODEL = "gpt-4o"


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[tuple[str, str], ...]    # (role, content) pairs

    def __post_init__(self):
        if not self.messages:
            raise ValueError("message list must be non-empty")

    @property
    def last_user(self) -> str:
        for role, content in reversed(self.messages):
            if role == "user":
                return content
        return self.messages[-1][1]


def chat_request(prompt: str) -> ChatRequest:
    """The request of one user prompt."""
    return ChatRequest(messages=(("user", prompt),))


@dataclass(frozen=True)
class ChatResponse:
    """One chat reply. ``text`` may be ``None`` only when the reply did not
    complete (``finish_reason`` other than ``"complete"``)."""
    text: str | None
    finish_reason: str = "complete"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    model: str = "stub"

    def __post_init__(self):
        if self.finish_reason == "complete" and self.text is None:
            raise ValueError("complete responses must carry text")


class ChatPort(Protocol):
    def chat(self, request: ChatRequest) -> ChatResponse: ...


def reply(chat: ChatPort, prompt: str) -> str:
    """The port's reply to one user prompt as text, ``""`` when it has none."""
    return chat.chat(chat_request(prompt)).text or ""


def optional_reply(chat: ChatPort, prompt: str) -> str | None:
    """``reply``, or ``None`` when the port raises ``ModelRefusal`` or
    ``TransportError``; any other error, ``ScriptExhausted`` too, propagates."""
    try:
        return reply(chat, prompt)
    except (ModelRefusal, TransportError):
        return None


# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------

class ScriptedModel:
    """Replays a fixed queue of reply strings, recording each request in
    ``requests`` so a test can check the prompts it was sent."""

    def __init__(self, script: list[str]):
        self._script = list(script)
        for at, entry in enumerate(self._script):
            if not isinstance(entry, str):
                raise ValueError(f"script entry {at} is {type(entry).__name__}, "
                                 "not a reply string")
        self._cursor = 0
        self.requests: list[ChatRequest] = []

    def chat(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        if self._cursor >= len(self._script):
            raise ScriptExhausted(
                f"scripted model exhausted after {len(self._script)} responses")
        text = self._script[self._cursor]
        self._cursor += 1
        return ChatResponse(text=text, model="scripted")

    @property
    def calls(self) -> int:
        return self._cursor


_SNIPPET_RE = re.compile(r"^\[(\d+)\] (.+)$", re.MULTILINE)


class ExtractiveStub:
    """Deterministic offline model whose grounding is perfect by construction.

    Prompts are classified by their own structure, never by snippet text:
    one that starts with ``REFINE_MARKER`` is a rewrite and echoes the
    question; one that starts with ``# CONTEXT`` is a draft; any other
    holding ``CRITIQUE_MARKER`` is a critique and approves; anything else
    is acknowledged.

    A draft answers with the context sentence holding the most distinct
    question tokens, citing the snippet it came from: the first in prompt
    order on ties, the first sentence when no sentence shares a
    token with the question, and ``No supporting context was retrieved.``
    when the prompt has no snippet line. Sentences are
    ``esap.tokenizer.sentences``: every end is followed by whitespace,
    which also separates tokens, so a snippet's own overlap bounds every
    sentence in it. Every snippet's bound comes from one pass over the
    context (``esap.tokenizer.overlap_counts``), not from tokenizing each
    snippet. Snippets are visited by bound descending, then in
    prompt order, and the visit stops at the first snippet that can
    neither beat the best sentence so far nor tie it from an earlier
    place in the prompt; every later snippet is bounded as low, so the
    answer is the same and most snippets are never split.
    """

    REFINE_MARKER = "Rewrite the user question"
    CRITIQUE_MARKER = "sufficient or insufficient"

    def chat(self, request: ChatRequest) -> ChatResponse:
        prompt = request.last_user
        if prompt.startswith(self.REFINE_MARKER):
            question = prompt.rsplit("QUESTION:", 1)[-1].strip()
            return ChatResponse(text=question or prompt.strip())
        if prompt.startswith("# CONTEXT"):
            return ChatResponse(text=self._extract(prompt))
        if self.CRITIQUE_MARKER in prompt:
            return ChatResponse(text="sufficient")
        return ChatResponse(text="Acknowledged.")

    def _extract(self, prompt: str) -> str:
        question = prompt.rsplit("QUESTION:", 1)[-1].strip()
        q_tokens = set(token_texts(question))
        snippets = _SNIPPET_RE.findall(prompt)
        bounds = overlap_counts([text for _, text in snippets], q_tokens)
        best_sentence = ""
        best_at = len(snippets)          # prompt place of the best sentence's snippet
        best_overlap = -1                # -1 (no sentence yet) is below every bound
        # a stable sort keeps prompt order among equal bounds
        for at in sorted(range(len(snippets)), key=bounds.__getitem__, reverse=True):
            bound = bounds[at]
            if bound < best_overlap or (bound == best_overlap and at > best_at):
                break
            sentence, overlap = "", -1   # the snippet's first best sentence
            for piece in sentences(snippets[at][1]):
                piece_overlap = len(q_tokens.intersection(token_texts(piece)))
                if piece_overlap > overlap:
                    sentence, overlap = piece.strip(), piece_overlap
                    if overlap == bound:         # the rest of the snippet ties at best
                        break
            if overlap > best_overlap or (overlap == best_overlap and at < best_at):
                best_sentence, best_at, best_overlap = sentence, at, overlap
        if not best_sentence:
            return "No supporting context was retrieved."
        return f"{best_sentence} [{int(snippets[best_at][0])}]"


# ---------------------------------------------------------------------------
# HTTP chat adapter
# ---------------------------------------------------------------------------

# every HTTP chat request is sent with these, and tried at most _HTTP_ATTEMPTS times
_HTTP_TEMPERATURE = 0.0
_HTTP_MAX_TOKENS = 1024
_HTTP_ATTEMPTS = 3


class HttpChatModel:
    """OpenAI-style chat-completions client with bounded retry.

    The endpoint, key and model come from the caller; nothing is read from
    the environment, and a base URL that is empty once trailing ``/`` are
    stripped is refused. Transport failures, 429 and 5xx are retried with
    exponential backoff up to ``_HTTP_ATTEMPTS`` attempts; the last error
    is surfaced verbatim. Other 4xx fail immediately.
    """

    def __init__(self, base_url: str, api_key: str = "", model: str = DEFAULT_MODEL,
                 backoff_base: float = 0.5, session=None):
        self.base_url = base_url.rstrip("/")
        if not self.base_url:
            raise TransportError("no chat endpoint: the base URL is empty")
        self.api_key = api_key
        self.model = model
        self.backoff_base = backoff_base
        if session is None:
            import requests
            session = requests.Session()
        self._session = session

    def chat(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": role, "content": content}
                         for role, content in request.messages],
            "temperature": _HTTP_TEMPERATURE,
            "max_tokens": _HTTP_MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {self.api_key}",
                   "Content-Type": "application/json"}
        url = f"{self.base_url}/chat/completions"
        last_error: Exception | None = None
        for attempt in range(_HTTP_ATTEMPTS):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                response = self._session.post(url, json=payload, headers=headers,
                                              timeout=60)
            except Exception as exc:
                last_error = exc
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"HTTP {response.status_code}")
                continue
            if response.status_code >= 400:
                raise TransportError(
                    f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                body = response.json()
                choice = body["choices"][0]
                text = choice["message"]["content"]
                # a null usage or count reads as 0, like an absent one
                usage = body.get("usage")
                usage = {} if usage is None else usage
                prompt_tokens, completion_tokens = (
                    0 if usage.get(key) is None else int(usage[key])
                    for key in ("prompt_tokens", "completion_tokens"))
            except Exception as exc:
                raise TransportError(f"malformed response body: {exc}") from exc
            if text is None or not str(text).strip():
                raise ModelRefusal("model returned empty content")
            return ChatResponse(
                text=str(text),
                finish_reason=choice.get("finish_reason", "complete"),
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                model=payload["model"],
            )
        raise TransportError(
            f"chat endpoint unreachable after {_HTTP_ATTEMPTS} attempts: "
            f"{last_error}")


# ---------------------------------------------------------------------------
# Embedders
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# terms that must still have a byte left for a byte column to run as an array
# step (about 6 us) rather than in the scalar loop (about 0.2 us a byte)
_ARRAY_COLUMN_MIN = 32


def _fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64 of data; from ``h``, the hash of the bytes before data."""
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_array(buffer: bytes, lengths: np.ndarray) -> np.ndarray:
    """``_fnv1a64`` of each term, as a uint64 array in order.

    The terms are ``buffer`` cut into pieces of ``lengths`` bytes, in order
    (a ``Vocabulary``'s ``data`` and ``np.diff(offsets)``). The buffer is
    hashed a byte column at a time: with the terms taken longest first, the
    terms that have a byte ``j`` are a prefix of that order, so column ``j``
    updates a prefix of the hashes. No terms x longest-term matrix is made. Once fewer than
    ``_ARRAY_COLUMN_MIN`` terms have a byte left, those few finish in the
    scalar loop, so a 10,000-byte token costs 10,000 loop steps, not
    10,000 array steps. uint64 arrays wrap on overflow, which is the
    ``& _MASK64`` of the scalar loop.
    """
    data = np.frombuffer(buffer, dtype=np.uint8)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    # live[j]: how many terms have a byte j, a prefix of the longest-first order
    live = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
    columns = int(np.count_nonzero(live >= _ARRAY_COLUMN_MIN))    # live never rises
    hashes = np.full(len(lengths), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, count in enumerate(live[:columns].tolist()):
        head = hashes[:count]
        head ^= data[starts[:count] + j]
        head *= prime
    tail = int(live[columns]) if columns < len(live) else 0
    for i, (start, length) in enumerate(zip(starts[:tail].tolist(),
                                            lengths[order[:tail]].tolist())):
        hashes[i] = _fnv1a64(buffer[start + columns:start + length], int(hashes[i]))
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


def _term_slots(buffer: bytes, lengths: np.ndarray,
                dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``_token_slot`` of each term of ``_fnv1a64_array`` as arrays: int
    slots and float64 signs."""
    hashes = _fnv1a64_array(buffer, lengths)
    slots = (hashes % np.uint64(dim)).astype(np.intp)
    signs = np.where(hashes >> np.uint64(63), -1.0, 1.0)
    return slots, signs


# memoized (token, dim) pairs of the single-text (query) path; a build
# hashes its vocabulary with ``_term_slots`` and never fills it. Five cached
# query tokens cost about 2 us, one ``_term_slots`` pass over them about
# 40 us. Bounded, so a process serving many distinct query tokens stops
# growing
_TOKEN_SLOT_CACHE = 1 << 17
# cells (rows x dim) per np.bincount block: 64 rows at the default dim, so
# the temporaries of a large batch stay near half a megabyte (float64 sums,
# and the keys and signs of the block's tokens)
_BLOCK_CELLS = 1 << 14


@functools.lru_cache(maxsize=_TOKEN_SLOT_CACHE)
def _token_slot(token: str, dim: int) -> tuple[int, float]:
    """Coordinate and sign of one token: FNV-1a 64 modulo dim, sign from the top bit."""
    h = _fnv1a64(token.encode("utf-8"))
    return h % dim, 1.0 if (h >> 63) == 0 else -1.0


class HashingEmbedder:
    """Deterministic feature-hashing embedder; no model weights required.

    Each token hashes to one of ``dim`` coordinates with a +/-1 sign taken
    from the hash's top bit, and a text's vector is the signed count of its
    tokens in each coordinate, not normalized: ``esap.dense`` scales every
    stored and query vector to unit length by one rule. Same text, same
    vector, on every platform.

    A row is one ``np.bincount`` of its tokens' signs over their slots. The
    sums are small integers, so the float32 rows equal those of adding +/-1
    token by token. ``embed_ids`` takes the output of
    ``esap.tokenizer.term_ids`` and hashes the whole vocabulary in one
    array pass over its bytes (``_term_slots``), so a build does no Python
    work per term and encodes none;
    ``embed(texts)`` tokenizes with ``term_ids`` and runs the same code,
    except that a single text (a query) skips the vocabulary and hashes its
    tokens as they come through the cached ``_token_slot``, which for a
    handful of tokens is about twenty times cheaper than the array pass.
    """

    def __init__(self, dim: int = EMBED_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    def embed(self, texts: list[str]) -> np.ndarray:
        if len(texts) != 1:
            return self.embed_ids(*term_ids(texts))
        dim = self.dim
        slot_sign = [_token_slot(token, dim) for token in token_texts(texts[0])]
        slots, signs = zip(*slot_sign) if slot_sign else ((), ())
        sums = np.bincount(slots, weights=signs, minlength=dim)
        return sums.astype(np.float32)[None]

    def embed_ids(self, vocab: Vocabulary, ids: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
        """Vectors of texts given as ``term_ids(texts)``, one row per text.

        Rows are summed in blocks of about ``_BLOCK_CELLS`` cells, so the
        float64 sums of a large batch are never held at once.
        """
        dim = self.dim
        slots, signs = _term_slots(vocab.data, np.diff(vocab.offsets), dim)
        n = len(lengths)
        out = np.empty((n, dim), dtype=np.float32)
        bounds = [0, *np.cumsum(lengths).tolist()]
        step = max(1, _BLOCK_CELLS // dim)
        for r0 in range(0, n, step):
            rows = min(step, n - r0)
            block = ids[bounds[r0]:bounds[r0 + rows]]
            keys = slots[block]
            keys += np.repeat(np.arange(0, rows * dim, dim), lengths[r0:r0 + rows])
            out[r0:r0 + rows] = np.bincount(keys, weights=signs[block],
                                            minlength=rows * dim).reshape(rows, dim)
        return out

    def __call__(self, texts: list[str]) -> np.ndarray:
        return self.embed(texts)


# ---------------------------------------------------------------------------
# SQL execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqlResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    truncated: bool = False

    @property
    def row_count(self) -> int:
        return len(self.rows)


# authorizer actions a statement may take: everything else is denied
_READ_ACTIONS = frozenset((sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ,
                           sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE))


def _open_read_only(path) -> sqlite3.Connection:
    """A read-only connection to the SQLite file at ``path``, any name.

    The absolute path is percent-encoded into a ``file:`` URI with an empty
    authority, so ``#``, ``?`` and ``%`` in a name, and a path starting with
    ``//``, name the file instead of a fragment, a query or a host; a file
    that is missing is an error, never created.
    """
    uri = "file://" + urllib.parse.quote(os.path.abspath(os.fspath(path))) + "?mode=ro"
    return sqlite3.connect(uri, uri=True)


class SqliteExecutor:
    """Read-only SQLite executor with an authorizer gate and row/time budgets.

    The statement runs as written, less trailing whitespace and semicolons.
    SQLite's authorizer allows only select, read, function and recursive
    actions while it compiles the statement, so anything else (writes,
    PRAGMA, ATTACH, transactions) is refused as ``NonSelectRejected``
    before it runs; a second statement is refused too, and so is one that
    returns no columns (REINDEX may compile without drawing an action; on
    the read-only connection it changes nothing). The connection is
    opened read-only as a second line of defense. Long queries are
    interrupted via the progress handler.
    """

    def __init__(self, db_path: str, max_rows: int = 1000,
                 timeout_s: float = 5.0):
        self.db_path = str(db_path)
        self.max_rows = max_rows
        self.timeout_s = timeout_s

    def execute(self, sql: str) -> SqlResult:
        try:
            conn = _open_read_only(self.db_path)
        except sqlite3.Error as exc:
            raise SqlRuntimeError(f"cannot open database: {exc}") from exc
        deadline = time.monotonic() + self.timeout_s
        denied: list[tuple[int, str | None]] = []

        def guard():
            return 1 if time.monotonic() > deadline else 0

        def authorize(action, arg, *_):
            if action in _READ_ACTIONS:
                return sqlite3.SQLITE_OK
            denied.append((action, arg))
            return sqlite3.SQLITE_DENY

        conn.set_progress_handler(guard, 2000)
        conn.set_authorizer(authorize)
        statement = sql.rstrip("; \t\n\r\f\v")
        try:
            cursor = conn.execute(statement)
            if cursor.description is None:
                # no columns: either there was nothing to compile (empty or
                # comment-only text; EXPLAIN of it is "incomplete input") or
                # a statement compiled without drawing an authorizer action
                # (REINDEX on a connection whose schema is not loaded yet)
                try:
                    conn.execute("EXPLAIN " + statement)
                except sqlite3.Error:
                    raise SqlSyntaxError(
                        "empty SQL statement: nothing returns rows") from None
                raise NonSelectRejected(
                    "only reads are allowed: the statement returns no rows")
            rows = cursor.fetchmany(self.max_rows + 1)
            columns = tuple(d[0] for d in cursor.description)
        except (sqlite3.Error, sqlite3.Warning) as exc:
            message = str(exc)
            if denied:
                raise NonSelectRejected(
                    "only reads are allowed: the SQLite authorizer denied "
                    "action %d (%r)" % denied[0]) from exc
            if "one statement" in message:
                # the sqlite3 module refuses a second statement before running
                # the first (ProgrammingError; older Pythons raise Warning)
                raise NonSelectRejected(
                    "multiple SQL statements are not allowed") from exc
            if "interrupted" in message.lower():
                raise SqlTimeout(
                    f"query exceeded {self.timeout_s}s budget") from exc
            if "syntax error" in message.lower():
                raise SqlSyntaxError(message) from exc
            raise SqlRuntimeError(message) from exc
        finally:
            conn.close()

        truncated = len(rows) > self.max_rows
        if truncated:
            rows = rows[:self.max_rows]
        return SqlResult(columns=columns,
                         rows=tuple(tuple(r) for r in rows),
                         truncated=truncated)


@dataclass
class SchemaColumn:
    name: str
    type: str


@dataclass
class SchemaTable:
    name: str
    columns: list[SchemaColumn] = field(default_factory=list)
    foreign_keys: list[tuple[str, str, str]] = field(default_factory=list)
    # (column, other_table, other_column)


def introspect_schema(db_path: str) -> list[SchemaTable]:
    """Read table/column/FK structure from SQLite."""
    tables = []
    try:
        with closing(_open_read_only(db_path)) as conn:
            names = [r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
            for name in names:
                quoted = '"' + name.replace('"', '""') + '"'
                columns = [SchemaColumn(name=r[1], type=r[2] or "TEXT")
                           for r in conn.execute(f"PRAGMA table_info({quoted})")]
                fks = [(r[3], r[2], r[4] or r[3]) for r in
                       conn.execute(f"PRAGMA foreign_key_list({quoted})")]
                tables.append(SchemaTable(name=name, columns=columns,
                                          foreign_keys=fks))
    except sqlite3.Error as exc:
        raise SqlRuntimeError(f"cannot read schema of {db_path}: {exc}") from exc
    return tables


def serialize_schema(tables: list[SchemaTable]) -> str:
    """One line per table, then one line per foreign key.

    table(col:type, col:type)
    table.col -> other.col
    """
    lines = []
    for table in tables:
        cols = ", ".join(f"{c.name}:{c.type}" for c in table.columns)
        lines.append(f"{table.name}({cols})")
    for table in tables:
        for col, other, other_col in table.foreign_keys:
            lines.append(f"{table.name}.{col} -> {other}.{other_col}")
    return "\n".join(lines)
