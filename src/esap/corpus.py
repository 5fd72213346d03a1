"""Versioned document store and token-window chunking.

Documents are immutable once written: every ingest or rollback appends a new
version under ``<kb>/docs/<doc_id>/<version>.json`` and a line to the
append-only ``<kb>/audit.log``. Chunking is a pure sliding token window.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import CorpusFormatError, InvalidChunkConfig, StoreWriteError, VersionNotFound
from .jsonio import read_json, read_jsonl
from .tokenizer import token_edges

DEFAULT_CHUNK_SIZE = 1000
DEFAULT_CHUNK_OVERLAP = 150

_DOC_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# the one name a stored version's file has: "<n>.json", n >= 1, no leading zero
_VERSION_FILE_RE = re.compile(r"[1-9][0-9]*\.json")
# Document's optional fields; absent, null or empty takes the default
_OPTIONAL_FIELDS = ("mime", "author", "created_at", "acl")


@dataclass(frozen=True)
class Document:
    doc_id: str
    version: int
    text: str
    mime: str = "text/plain"
    author: str = ""
    created_at: str = "1970-01-01T00:00:00Z"
    acl: frozenset[str] = field(default_factory=lambda: frozenset({"*"}))

    def to_json(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "version": self.version,
            "text": self.text,
            "mime": self.mime,
            "author": self.author,
            "created_at": self.created_at,
            "acl": sorted(self.acl),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Document":
        given = {name: data[name] for name in _OPTIONAL_FIELDS if data.get(name)}
        if "acl" in given:
            given["acl"] = frozenset(given["acl"])
        return cls(doc_id=data["doc_id"], version=int(data["version"]), text=data["text"],
                   **given)


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    version: int
    token_span: tuple[int, int]     # half-open token indices into the document
    text: str                       # source substring covering the span
    size_tokens: int


def chunk_document(doc: Document, size: int = DEFAULT_CHUNK_SIZE,
                   overlap: int = DEFAULT_CHUNK_OVERLAP) -> list[Chunk]:
    """Split a document into sliding token windows with stride size - overlap.

    The final window may be shorter; together the windows cover every token.
    An empty document yields no chunks.
    """
    if size <= 0:
        raise InvalidChunkConfig(f"chunk size must be positive, got {size}")
    if overlap < 0 or overlap >= size:
        raise InvalidChunkConfig(
            f"overlap must satisfy 0 <= overlap < size, got overlap={overlap} size={size}"
        )
    starts, ends = token_edges(doc.text)
    n = len(starts)
    # no window reaches past token n, so a size or stride above n (which
    # need not fit an int64) acts as n
    first = np.arange(chunk_count(n, size, overlap)) * min(size - overlap, n)
    last = np.minimum(first + min(size, n), n)
    bounds = zip(first.tolist(), last.tolist(), starts[first].tolist(), ends[last - 1].tolist())
    text, prefix = doc.text, f"{doc.doc_id}#v{doc.version}#"
    return [Chunk(chunk_id=f"{prefix}{idx:05d}", doc_id=doc.doc_id, version=doc.version,
                  token_span=(start, end), text=text[a:b], size_tokens=end - start)
            for idx, (start, end, a, b) in enumerate(bounds)]


def chunk_count(n_tokens: int, size: int, overlap: int) -> int:
    """Closed-form window count for n_tokens >= 1 (0 tokens -> 0 chunks)."""
    if n_tokens <= 0:
        return 0
    stride = size - overlap
    return -(-max(0, n_tokens - size) // stride) + 1


def _check_document(error: type[Exception], where: str, doc_id, text, **optional) -> None:
    """The one check of a document's fields, for corpus lines and library calls.

    Raises ``error(where + problem)`` at the first bad field. An optional
    field may be absent or null; the ACL is a list, set, frozenset or tuple
    of strings, never a bare string (which would be read as its letters).
    """
    if not isinstance(doc_id, str):
        raise error(f'{where}"id" must be a string, got {type(doc_id).__name__}')
    if not _DOC_ID_RE.fullmatch(doc_id):
        raise error(f'{where}"id" is malformed: {doc_id!r}')
    if not isinstance(text, str):
        raise error(f'{where}"text" must be a string, got {type(text).__name__}')
    acl = optional.pop("acl", None)
    for name, value in optional.items():
        if value is not None and not isinstance(value, str):
            raise error(f'{where}"{name}" must be a string or null, '
                        f'got {type(value).__name__}')
    if acl is not None and not (isinstance(acl, (list, set, frozenset, tuple))
                                and all(isinstance(p, str) for p in acl)):
        raise error(f'{where}"acl" must be a list of strings')


def _utcnow_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class VersionStore:
    """Directory-backed immutable version store with an append-only audit log.

    Single writer, many readers: mutations are serialized by an in-process
    lock and land atomically (temp file + rename). The directory is made by
    the first write; a store that was never written holds no documents.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    # -- paths -------------------------------------------------------------

    def _doc_dir(self, doc_id: str) -> Path:
        return self.root / "docs" / doc_id

    def _version_path(self, doc_id: str, version: int) -> Path:
        return self._doc_dir(doc_id) / f"{version}.json"

    @property
    def audit_path(self) -> Path:
        return self.root / "audit.log"

    # -- reads -------------------------------------------------------------

    def _latest_versions(self) -> dict[str, int]:
        """Latest version of each document, by doc_id in sorted order.

        A directory that holds no version yet (a crash between its ``mkdir``
        and the first write leaves one) holds no document.
        """
        docs = self.root / "docs"
        if not docs.is_dir():
            return {}
        latest = {}
        for doc_id in sorted(p.name for p in docs.iterdir() if p.is_dir()):
            versions = self.versions(doc_id)
            if versions:
                latest[doc_id] = versions[-1]
        return latest

    def doc_ids(self) -> list[str]:
        return list(self._latest_versions())

    def versions(self, doc_id: str) -> list[int]:
        """Stored version numbers, ascending; any other ``*.json`` in the
        document's directory is ``CorpusFormatError`` naming it."""
        d = self._doc_dir(doc_id)
        if not d.is_dir():
            return []
        versions = []
        for path in d.glob("*.json"):
            if not _VERSION_FILE_RE.fullmatch(path.name):
                raise CorpusFormatError(f"{path}: not a version file (expected <n>.json, "
                                        f"n >= 1 without leading zeros)")
            versions.append(int(path.stem))
        return sorted(versions)

    def latest_version(self, doc_id: str) -> int:
        versions = self.versions(doc_id)
        return versions[-1] if versions else 0

    def get(self, doc_id: str, version: int | None = None) -> Document:
        """The stored version, by default the latest, checked as a corpus line
        is; a bad file is ``CorpusFormatError`` naming it."""
        if version is None:
            version = self.latest_version(doc_id)
        path = self._version_path(doc_id, version)
        if version < 1 or not path.exists():
            raise VersionNotFound(f"{doc_id} has no version {version}")
        data = read_json(path, CorpusFormatError, str(path), "object")
        # True == 1 in Python, but a bool names no version
        if (data.get("doc_id"), data.get("version")) != (doc_id, version) \
                or type(data["version"]) is not int:
            raise CorpusFormatError(f'{path}: expected "doc_id" {doc_id!r}, "version" {version}')
        _check_document(CorpusFormatError, f"{path}: ", doc_id, data.get("text"),
                        **{name: data.get(name) for name in _OPTIONAL_FIELDS})
        return Document.from_json(data)

    def latest_documents(self) -> list[Document]:
        return [self.get(doc_id, version)
                for doc_id, version in self._latest_versions().items()]

    # -- writes ------------------------------------------------------------

    def _write_version(self, doc: Document, op: str) -> None:
        doc_dir = self._doc_dir(doc.doc_id)
        try:
            doc_dir.mkdir(parents=True, exist_ok=True)
            path = self._version_path(doc.doc_id, doc.version)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(doc.to_json(), ensure_ascii=False, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, path)
            audit = {
                "op": op,
                "doc_id": doc.doc_id,
                "version": doc.version,
                "timestamp": _utcnow_iso(),
            }
            with open(self.audit_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(audit, sort_keys=True) + "\n")
        except OSError as exc:
            raise StoreWriteError(f"cannot write {doc.doc_id} v{doc.version}: {exc}") from exc

    def ingest(self, doc_id: str, text: str, mime: str | None = None,
               author: str | None = None, created_at: str | None = None,
               acl: list[str] | set[str] | frozenset[str] | tuple[str, ...] | None = None,
               ) -> Document:
        """Store text as version 1 for a new doc_id, or version n+1 otherwise.

        Optional fields left None or empty take ``Document``'s defaults.
        """
        optional = {"mime": mime, "author": author, "created_at": created_at, "acl": acl}
        _check_document(StoreWriteError, "document: ", doc_id, text, **optional)
        with self._lock:
            doc = Document.from_json({"doc_id": doc_id, "text": text, **optional,
                                      "version": self.latest_version(doc_id) + 1})
            self._write_version(doc, "ingest")
            return doc

    def rollback(self, doc_id: str, target_version: int) -> Document:
        """Append a new version carrying the target version's content."""
        with self._lock:
            target = self.get(doc_id, target_version)
            doc = replace(target, version=self.latest_version(doc_id) + 1,
                          created_at=_utcnow_iso())
            self._write_version(doc, "rollback")
            return doc

    def diff(self, doc_id: str, version_a: int, version_b: int) -> str:
        """Line-based unified diff between two stored versions."""
        a = self.get(doc_id, version_a)
        b = self.get(doc_id, version_b)
        lines = difflib.unified_diff(
            a.text.splitlines(keepends=True),
            b.text.splitlines(keepends=True),
            fromfile=f"{doc_id}@v{version_a}",
            tofile=f"{doc_id}@v{version_b}",
        )
        return "".join(lines)


def read_corpus_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(line_number, record) for each document of a corpus JSONL file.

    One object per document: {"id", "text", "mime", "author", "created_at",
    "acl"}, each field checked as ``VersionStore.ingest`` checks it; "acl"
    is a list of strings. Unknown keys are ignored. Raises
    CorpusFormatError with the first malformed line's number.
    """
    records = read_jsonl(path, CorpusFormatError)
    for lineno, obj in records:
        if "id" not in obj or "text" not in obj:
            raise CorpusFormatError(f'line {lineno}: expected an object with "id" and "text"')
        _check_document(CorpusFormatError, f"line {lineno}: ", obj["id"], obj["text"],
                        **{name: obj.get(name) for name in _OPTIONAL_FIELDS})
    return records


def ingest_corpus(store: VersionStore, path: str | Path) -> tuple[int, int]:
    """Ingest a corpus JSONL file; returns (new doc count, re-ingested count).

    All or nothing: every record is checked before the first is stored.
    """
    ingested = updated = 0
    for _, obj in read_corpus_jsonl(path):
        doc = store.ingest(obj["id"], obj["text"],
                           **{name: obj.get(name) for name in _OPTIONAL_FIELDS})
        if doc.version > 1:
            updated += 1
        else:
            ingested += 1
    return ingested, updated
