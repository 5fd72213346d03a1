"""Pluggable ports: chat models, embedders, and SQL executors.

Production adapters talk to an OpenAI-style HTTP endpoint and to SQLite.
Test doubles (scripted queue, extractive stub, hashing embedder) are
first-class citizens so every pipeline can run deterministically offline.
"""

from __future__ import annotations

import functools
import os
import re
import sqlite3
import time
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
from .tokenizer import token_texts

EMBED_DIM = 256

ENV_API_KEY = "ESAP_API_KEY"
ENV_BASE_URL = "ESAP_BASE_URL"
ENV_MODEL = "ESAP_MODEL"


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[tuple[str, str], ...]    # (role, content) pairs
    temperature: float = 0.0
    max_tokens: int = 1024
    model: str = ""

    def __post_init__(self):
        if not self.messages:
            raise ValueError("message list must be non-empty")

    @property
    def last_user(self) -> str:
        for role, content in reversed(self.messages):
            if role == "user":
                return content
        return self.messages[-1][1]


def chat_request(prompt: str, system: str = "", temperature: float = 0.0,
                 max_tokens: int = 1024) -> ChatRequest:
    messages: list[tuple[str, str]] = []
    if system:
        messages.append(("system", system))
    messages.append(("user", prompt))
    return ChatRequest(messages=tuple(messages), temperature=temperature,
                       max_tokens=max_tokens)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    finish_reason: str = "complete"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    model: str = "stub"

    def __post_init__(self):
        if self.finish_reason == "complete" and self.text is None:
            raise ValueError("complete responses must carry text")


class ChatPort(Protocol):
    def chat(self, request: ChatRequest) -> ChatResponse: ...


# ---------------------------------------------------------------------------
# Test doubles
# ---------------------------------------------------------------------------

class ScriptedModel:
    """Replays a fixed queue of responses; optional per-call request checks.

    Each script entry is either a string or a (predicate, string) pair. When
    a predicate is present it receives the ChatRequest and must return True,
    otherwise the mismatch is reported immediately; this keeps prompt drift
    from silently passing tests.
    """

    def __init__(self, script: list):
        self._script = list(script)
        self._cursor = 0
        self.requests: list[ChatRequest] = []

    def chat(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        if self._cursor >= len(self._script):
            raise ScriptExhausted(
                f"scripted model exhausted after {len(self._script)} responses")
        entry = self._script[self._cursor]
        self._cursor += 1
        if isinstance(entry, tuple):
            predicate, text = entry
            if not predicate(request):
                raise AssertionError(
                    f"scripted call {self._cursor} received unexpected request: "
                    f"{request.last_user[:200]!r}")
        else:
            text = entry
        return ChatResponse(text=text, model="scripted")

    @property
    def calls(self) -> int:
        return self._cursor


_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


class ExtractiveStub:
    """Deterministic offline model whose grounding is perfect by construction.

    Given an assembled context prompt it returns the context sentence with
    the highest token overlap against the question (earliest sentence on
    ties), citing the snippet it came from. Rewrite prompts echo the
    question; critique prompts approve; anything else is acknowledged.
    """

    REFINE_MARKER = "Rewrite the user question"
    CRITIQUE_MARKER = "sufficient or insufficient"

    def chat(self, request: ChatRequest) -> ChatResponse:
        prompt = request.last_user
        if self.REFINE_MARKER in prompt:
            question = prompt.rsplit("QUESTION:", 1)[-1].strip()
            return ChatResponse(text=question or prompt.strip())
        if self.CRITIQUE_MARKER in prompt:
            return ChatResponse(text="sufficient")
        if "# CONTEXT" in prompt:
            return ChatResponse(text=self._extract(prompt))
        return ChatResponse(text="Acknowledged.")

    def _extract(self, prompt: str) -> str:
        question = prompt.rsplit("QUESTION:", 1)[-1].strip()
        q_tokens = set(token_texts(question))
        snippets = re.findall(r"^\[(\d+)\] (.+)$", prompt, flags=re.MULTILINE)
        best_sentence = ""
        best_no = 1
        best_overlap = -1
        for number, text in snippets:
            for sentence in _SENTENCE_RE.split(text):
                sentence = sentence.strip()
                if not sentence:
                    continue
                overlap = len(q_tokens & set(token_texts(sentence)))
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_sentence = sentence
                    best_no = int(number)
        if not best_sentence:
            return "No supporting context was retrieved."
        return f"{best_sentence} [{best_no}]"


# ---------------------------------------------------------------------------
# HTTP chat adapter
# ---------------------------------------------------------------------------

class HttpChatModel:
    """OpenAI-style chat-completions client with bounded retry.

    Reads endpoint configuration from ESAP_API_KEY / ESAP_BASE_URL /
    ESAP_MODEL unless given explicitly. Transport failures, 429 and 5xx
    are retried with exponential backoff up to the attempt cap; the last
    error is surfaced verbatim. Other 4xx fail immediately.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, max_attempts: int = 3,
                 backoff_base: float = 0.5, session=None):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "gpt-4o")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        if session is None:
            import requests
            session = requests.Session()
        self._session = session
        if not self.base_url:
            raise TransportError(
                f"no chat endpoint configured; set {ENV_BASE_URL}")

    def chat(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": request.model or self.model,
            "messages": [{"role": role, "content": content}
                         for role, content in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}",
                   "Content-Type": "application/json"}
        url = f"{self.base_url}/chat/completions"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
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
            f"chat endpoint unreachable after {self.max_attempts} attempts: "
            f"{last_error}")


# ---------------------------------------------------------------------------
# Embedders
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# memoized (token, dim) pairs: above the 38,774-term vocabulary of the
# search benchmark's corpus, and bounded so a long-lived process stops growing
_TOKEN_SLOT_CACHE = 1 << 17


@functools.lru_cache(maxsize=_TOKEN_SLOT_CACHE)
def _token_slot(token: str, dim: int) -> tuple[int, float]:
    """Coordinate and sign of one token: FNV-1a 64 modulo dim, sign from the top bit."""
    h = _fnv1a64(token.encode("utf-8"))
    return h % dim, 1.0 if (h >> 63) == 0 else -1.0


class HashingEmbedder:
    """Deterministic feature-hashing embedder; no model weights required.

    Each token hashes to one of ``dim`` coordinates with a +/-1 sign taken
    from the hash's top bit; the result is L2-normalized (all-zero stays
    zero). Same text, same vector, on every platform.
    """

    def __init__(self, dim: int = EMBED_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    def embed(self, texts: list[str]) -> np.ndarray:
        dim = self.dim
        out = np.zeros((len(texts), dim), dtype=np.float32)
        for row, text in enumerate(texts):
            vec = out[row]
            for token in token_texts(text):
                slot, sign = _token_slot(token, dim)
                vec[slot] += sign
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec /= norm
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
        uri = f"file:{self.db_path}?mode=ro"
        try:
            conn = sqlite3.connect(uri, uri=True)
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
    uri = f"file:{db_path}?mode=ro"
    tables = []
    try:
        with closing(sqlite3.connect(uri, uri=True)) as conn:
            names = [r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
            for name in names:
                columns = [SchemaColumn(name=r[1], type=r[2] or "TEXT")
                           for r in conn.execute(f'PRAGMA table_info("{name}")')]
                fks = [(r[3], r[2], r[4] or r[3]) for r in
                       conn.execute(f'PRAGMA foreign_key_list("{name}")')]
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
