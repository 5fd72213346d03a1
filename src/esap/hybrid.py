"""Hybrid retrieval: lexical + dense search fused by reciprocal rank.

A built index is a self-contained directory:

    index/meta.json     parameters, format version, checksums
    index/lexical.bin   magic + 8-byte header length + JSON header, then
                        raw little-endian sections
    index/dense.bin     magic + 8-byte header length + JSON header (dim, n),
                        then the raw float32 vectors

The lexical header is small: the chunk, document, term and posting counts,
the tf type, ``doc_acl`` and each section's byte length, in file order.
The sections (``esap.columns``) are the chunk table in chunk_id order, so
position order is file order: chunk ids, a document table (the doc_ids, and
one ``<i4`` row into it per chunk), chunk texts (string columns: one UTF-8
block each, with ``<i8`` char offsets), then version, token span and
size_tokens as ``<i8`` columns; then the BM25 sections.

This module writes and reads ``meta.json`` (k1 and b among it), the
checksums, the framing of both data files, the section table and the chunk
table. The BM25 header keys and sections and every check on them belong to
``esap.lexical`` (``to_columns``, ``from_columns``), which stores term
frequencies and rebuilds the weights at load exactly as the build computed
them. A load tokenizes nothing. The dense header keeps ``"mode": "exact"``
and ``"graph": null`` for the shape earlier builds read; a graph stored by
an earlier build is ignored.

Format 3 is the only format a load reads. Any other ``format_version``,
formats 1 and 2 included, is ``FormatVersionMismatch``: the index is derived
from the kb, and ``esap index`` rebuilds it.

Each data file is hashed as it is written; a load reads it once, refuses it
unless meta.json holds a matching checksum, and parses only the bytes it
verified. A file whose checksum holds but whose content is malformed is
``CorruptIndex`` naming the file.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .columns import is_count, read_array, read_strings, string_sections
from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE, Chunk
from .dense import AnnParams, DenseIndex, build_dense_from_texts, search_dense
from .errors import CorruptIndex, EmptyCorpus, EmptyIndex, FormatVersionMismatch, require
from .jsonio import parse_json, read_json
from .lexical import (DEFAULT_B, DEFAULT_K1, SECTIONS, LexicalIndex, build_lexical,
                      from_columns, search_lexical, to_columns)
from .tokenizer import term_ids

FORMAT_VERSION = 3
DEFAULT_K = 50
DEFAULT_RRF_C = 60
# each retriever ranks this many times k of the principal's readable chunks
FETCH_FACTOR = 4
DENSE_MAGIC = b"ESAPDNS1"
LEXICAL_MAGIC = b"ESAPLEX3"


@dataclass(frozen=True)
class GuardRule:
    kind: str
    pattern: str

    def compile(self) -> re.Pattern:
        return re.compile(self.pattern)


DEFAULT_GUARDS = (
    GuardRule("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    GuardRule("ssn", r"\d{3}-\d{2}-\d{4}"),
    GuardRule("phone", r"\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}"),
)


def apply_guards(text: str, rules: tuple[GuardRule, ...] = DEFAULT_GUARDS) -> str:
    """Redact every rule match; earlier rules win on overlapping spans."""
    for rule in rules:
        text = rule.compile().sub(f"[REDACTED:{rule.kind}]", text)
    return text


@dataclass(frozen=True)
class Hit:
    chunk_id: str
    doc_id: str
    score: float
    text: str


@dataclass
class HybridParams:
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    rrf_c: int = DEFAULT_RRF_C
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP
    ann: AnnParams = field(default_factory=AnnParams)


@dataclass
class HybridIndex:
    lexical: LexicalIndex
    dense: DenseIndex
    chunks: dict[str, Chunk]                   # chunk_id -> chunk
    doc_acl: dict[str, list[str]]              # doc_id -> principals
    params: HybridParams
    # principal -> read-only mask over positions, built on first use
    _masks: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)
    # guard tuple -> chunk_id -> redacted text, filled on first return
    _guarded: dict[tuple[GuardRule, ...], dict[str, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def chunk_ids(self) -> list[str]:
        """Position -> chunk_id, ascending: the lexical index's list."""
        return self.lexical.chunk_ids

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    def allowed(self, principal: str) -> np.ndarray:
        """Boolean mask over positions of the chunks the principal may read.

        Decided once per principal by ``filter_acl`` over the whole chunk
        table (each chunk paired with its position), then cached.
        """
        mask = self._masks.get(principal)
        if mask is None:
            table = [(cid, pos) for pos, cid in enumerate(self.chunk_ids)]
            kept = filter_acl(table, self.chunks, self.doc_acl, principal)
            mask = np.zeros(self.n_chunks, dtype=bool)
            mask[np.array([pos for _, pos in kept], dtype=np.intp)] = True
            mask.flags.writeable = False
            self._masks[principal] = mask
        return mask

    def guarded_texts(self, guards: tuple[GuardRule, ...]) -> dict[str, str]:
        """The guard tuple's cache, chunk_id -> redacted text; ``guarded``
        fills it."""
        return self._guarded.setdefault(guards, {})

    def guarded(self, chunk_id: str, guards: tuple[GuardRule, ...],
                texts: dict[str, str] | None = None) -> str:
        """The chunk's text under ``apply_guards``, computed once per guard tuple.

        ``texts`` is ``guarded_texts(guards)`` for a caller that looked it up
        already; hashing a guard tuple hashes every rule in it. A chunk
        without a match costs one reference: ``re.sub`` hands back its input
        unchanged. Two first lookups at once only repeat the same pure
        computation.
        """
        if texts is None:
            texts = self.guarded_texts(guards)
        text = texts.get(chunk_id)
        if text is None:
            text = texts[chunk_id] = apply_guards(self.chunks[chunk_id].text, guards)
        return text


def build_hybrid(chunks: list[Chunk], embed, doc_acl: dict[str, list[str]],
                 params: HybridParams | None = None) -> HybridIndex:
    """Index the chunks: BM25 and dense vectors, both in chunk_id order.

    The chunk texts are tokenized once, by ``term_ids``; BM25 is built from
    those ids, and so are the vectors when ``embed`` has an ``embed_ids``
    method (``HashingEmbedder``). Any other embedder gets the texts.
    """
    if not chunks:
        raise EmptyCorpus("cannot build an index over zero chunks")
    params = params or HybridParams()
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    texts = [c.text for c in ordered]
    terms = term_ids(texts)
    lexical = build_lexical(ordered, k1=params.k1, b=params.b, terms=terms)
    dense = build_dense_from_texts(texts, [c.chunk_id for c in ordered],
                                   embed, params.ann, terms=terms)
    return HybridIndex(
        lexical=lexical,
        dense=dense,
        chunks={c.chunk_id: c for c in ordered},
        doc_acl=dict(doc_acl),
        params=params,
    )


def fuse(lexical_ranking: list[str], dense_ranking: list[str],
         c: int = DEFAULT_RRF_C) -> list[tuple[str, float]]:
    """Fuse one lexical and one dense ranking; see rrf_fuse."""
    return rrf_fuse([lexical_ranking, dense_ranking], c=c)


def rrf_fuse(rankings: list[list[str]], c: int = DEFAULT_RRF_C) -> list[tuple[str, float]]:
    """Reciprocal rank fusion: score(x) = sum over lists of 1/(c + rank).

    Ranks start at 1. Items absent from a list contribute nothing for it.
    Output is sorted by fused score descending, then id ascending.
    """
    scores: dict[str, float] = {}
    for ranking in rankings:
        for rank, item in enumerate(ranking, start=1):
            scores[item] = scores.get(item, 0.0) + 1.0 / (c + rank)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def filter_acl(ranked: list[tuple[str, float]], chunks: dict[str, Chunk],
               doc_acl: dict[str, list[str]], principal: str) -> list[tuple[str, float]]:
    """Keep chunks whose document grants the principal (or everyone); order preserved."""
    out = []
    for chunk_id, score in ranked:
        acl = doc_acl.get(chunks[chunk_id].doc_id, ["*"])
        if "*" in acl or principal in acl:
            out.append((chunk_id, score))
    return out


def search_hybrid(index: HybridIndex, query: str, embed, k: int = DEFAULT_K,
                  principal: str = "*",
                  guards: tuple[GuardRule, ...] = DEFAULT_GUARDS) -> list[Hit]:
    """Fused top-k over the chunks the principal may read, PII redacted.

    Access is decided before any cut: each retriever ranks only the
    principal's readable chunks (``HybridIndex.allowed``) and keeps the top
    ``FETCH_FACTOR * k`` of them, and the two lists are fused by reciprocal
    rank. So the list holds fewer than k hits only when fewer than k
    readable chunks exist, and a hit's score ``1/(c + rank)`` counts ranks
    within the principal's own view, never hidden documents. A principal
    who may read nothing gets ``[]``. Redaction happens last, on the text
    actually returned: ``apply_guards`` runs once per chunk and guard tuple,
    the first time that chunk is returned, and later hits read the result
    cached on the index (``HybridIndex.guarded``; the guard tuple's cache is
    looked up once per search).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if index.n_chunks == 0:
        raise EmptyIndex("index contains no chunks")
    allowed = index.allowed(principal)
    fetch = min(FETCH_FACTOR * k, int(np.count_nonzero(allowed)))
    if fetch == 0:
        return []
    lex_hits = search_lexical(index.lexical, query, fetch, allowed)
    query_vec = np.asarray(embed([query]), dtype=np.float32)[0]
    norm = float(np.linalg.norm(query_vec))
    if norm > 0.0:
        query_vec = query_vec / norm
    dense_hits = search_dense(index.dense, query_vec, fetch, allowed)
    rankings = [
        [cid for cid, _ in lex_hits],
        [index.chunk_ids[pos] for pos, _ in dense_hits],
    ]
    texts = index.guarded_texts(guards)
    out = []
    for chunk_id, score in rrf_fuse(rankings, c=index.params.rrf_c)[:k]:
        chunk = index.chunks[chunk_id]
        out.append(Hit(chunk_id=chunk_id, doc_id=chunk.doc_id, score=score,
                       text=index.guarded(chunk_id, guards, texts)))
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# the chunk table's sections, in file order; the BM25 sections follow them
_CHUNK_SECTIONS = ("chunk_id", "chunk_id_offsets", "doc_id", "doc_id_offsets", "doc_row",
                   "text", "text_offsets", "version", "token_span", "size_tokens")


def _write(path: Path, parts) -> str:
    """Write the parts to path in order; returns the sha256 of those bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
    return digest.hexdigest()


def _framed(magic: bytes, header: dict) -> list[bytes]:
    """A data file's leading parts: magic, 8-byte header length, JSON header."""
    raw = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return [magic, len(raw).to_bytes(8, "little"), raw]


def save_hybrid(index: HybridIndex, kb_root: str | Path) -> Path:
    """Write the index under <kb>/index/ in format 3; returns that directory."""
    out_dir = Path(kb_root) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    ordered = [index.chunks[cid] for cid in index.chunk_ids]
    docs = {doc_id: row for row, doc_id in
            enumerate(dict.fromkeys(c.doc_id for c in ordered))}
    bm25_header, bm25_sections = to_columns(index.lexical)
    sections = [
        *string_sections("chunk_id", index.chunk_ids),
        *string_sections("doc_id", list(docs)),
        ("doc_row", np.array([docs[c.doc_id] for c in ordered], dtype="<i4")),
        *string_sections("text", [c.text for c in ordered]),
        ("version", np.array([c.version for c in ordered], dtype="<i8")),
        ("token_span", np.array([c.token_span for c in ordered], dtype="<i8")),
        ("size_tokens", np.array([c.size_tokens for c in ordered], dtype="<i8")),
        *bm25_sections,
    ]
    header = {"chunks": len(ordered), "docs": len(docs), **bm25_header,
              "doc_acl": index.doc_acl,
              "sections": {name: memoryview(part).nbytes for name, part in sections}}
    lexical_parts = _framed(LEXICAL_MAGIC, header) + [part for _, part in sections]

    vectors = np.ascontiguousarray(index.dense.vectors, dtype=np.float32)
    dense_parts = _framed(DENSE_MAGIC, {"dim": index.dense.dim, "n": vectors.shape[0],
                                        "mode": "exact", "graph": None})
    meta = {
        "format_version": FORMAT_VERSION,
        "dim": index.dense.dim,
        "k1": index.params.k1,
        "b": index.params.b,
        "rrf_c": index.params.rrf_c,
        "ann": index.params.ann.to_json(),
        "chunk": {"size": index.params.chunk_size,
                  "overlap": index.params.chunk_overlap},
        "checksums": {
            "lexical.bin": _write(out_dir / "lexical.bin", lexical_parts),
            "dense.bin": _write(out_dir / "dense.bin", [*dense_parts, vectors]),
        },
    }
    _write(out_dir / "meta.json",
           [(json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")])
    return out_dir


def _unframed(data: bytes, magic: bytes, name: str) -> tuple[dict, int]:
    """The JSON header of a data file written by ``_framed``, and the offset
    of the payload after it."""
    if not data.startswith(magic):
        raise CorruptIndex(f"bad {name} magic: {data[:len(magic)]!r}")
    start = len(magic) + 8
    end = start + int.from_bytes(data[len(magic):start], "little")
    if end > len(data):
        raise CorruptIndex(f"bad {name}: a {end - start}-byte header in a "
                           f"{len(data)}-byte file")
    # decoded from a view: a slice would copy the header's bytes first
    return parse_json(memoryview(data)[start:end], CorruptIndex, f"{name} header",
                      "object"), end


def _sections(header: dict, payload: memoryview) -> dict[str, memoryview]:
    """The payload split into its sections, by name: views, not copies.

    The header's section table names the chunk table's sections and then
    the BM25 sections, in file order, and their byte lengths add up to the
    payload's.
    """
    lengths = header.get("sections")
    require(type(lengths) is dict and tuple(lengths) == _CHUNK_SECTIONS + SECTIONS
            and all(map(is_count, lengths.values())),
            "the section table does not list every section's byte length in order")
    total = sum(lengths.values())
    require(total == len(payload),
            f"the sections add up to {total} bytes, the payload is {len(payload)}")
    sections, start = {}, 0
    for name, size in lengths.items():
        sections[name] = payload[start:start + size]
        start += size
    return sections


def _read_lexical(data: bytes, params: HybridParams) -> tuple[list[Chunk], dict, LexicalIndex]:
    """Chunks, ACLs and BM25 from lexical.bin; BM25 is rebuilt from term
    frequencies, not from text.

    The chunk_ids ascend, so section order is position order, and every
    chunk's document row is in the document table.
    """
    header, offset = _unframed(data, LEXICAL_MAGIC, "lexical.bin")
    sections = _sections(header, memoryview(data)[offset:])
    n, n_docs = header.get("chunks"), header.get("docs")
    require(is_count(n) and n > 0 and is_count(n_docs),
            "the chunk or document count is not a count, or no chunk is stored")
    doc_acl = header.get("doc_acl")
    require(type(doc_acl) is dict
            and all(type(acl) is list and set(map(type, acl)) <= {str}
                    for acl in doc_acl.values()),
            "doc_acl is not an object of principal lists")

    ids = read_strings(sections, "chunk_id", n)
    require(all(map(operator.lt, ids, ids[1:])), "chunk_ids do not ascend")
    doc_ids = read_strings(sections, "doc_id", n_docs)
    rows = read_array(sections["doc_row"], "<i4", n, "doc_row")
    require(0 <= rows.min() and rows.max() < n_docs, "a doc row is out of range")
    spans = read_array(sections["token_span"], "<i8", 2 * n, "token_span").tolist()
    chunks = list(map(Chunk, ids, map(doc_ids.__getitem__, rows.tolist()),
                      read_array(sections["version"], "<i8", n, "version").tolist(),
                      zip(spans[0::2], spans[1::2]), read_strings(sections, "text", n),
                      read_array(sections["size_tokens"], "<i8", n, "size_tokens").tolist()))
    return chunks, doc_acl, from_columns(header, sections, ids, params.k1, params.b)


def load_hybrid(kb_root: str | Path) -> HybridIndex:
    """Load and verify an index directory; never serves a corrupt file.

    Each data file is read once, refused unless ``meta.json`` holds a
    matching checksum for it, and parsed from the very bytes verified.
    """
    in_dir = Path(kb_root) / "index"
    meta = read_json(in_dir / "meta.json", CorruptIndex, "meta.json", "object")

    version = meta.get("format_version")
    # 3.0 == 3 in Python, but names no format
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index format {version!r} unsupported, expected {FORMAT_VERSION}; "
            f"run `esap index` to rebuild it")
    try:
        checksums = dict(meta["checksums"])
        params = HybridParams(k1=float(meta["k1"]), b=float(meta["b"]),
                              rrf_c=int(meta["rrf_c"]),
                              chunk_size=int(meta["chunk"]["size"]),
                              chunk_overlap=int(meta["chunk"]["overlap"]),
                              ann=AnnParams.from_json(meta["ann"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndex(f"bad meta.json: {type(exc).__name__}: {exc}") from exc

    def read_verified(name: str) -> bytes:
        if name not in checksums:
            raise CorruptIndex(f"meta.json holds no checksum for {name}")
        try:
            data = (in_dir / name).read_bytes()
        except FileNotFoundError as exc:
            raise CorruptIndex(f"missing index file {name}") from exc
        expected, actual = str(checksums[name]), hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise CorruptIndex(
                f"checksum mismatch for {name}: expected {expected[:12]}..., "
                f"got {actual[:12]}...")
        return data

    # BM25 is complete before dense.bin is read, so the two files are never
    # held at once
    try:
        chunks, doc_acl, lexical = _read_lexical(read_verified("lexical.bin"), params)
    except ValueError as exc:
        raise CorruptIndex(f"bad lexical.bin: {exc}") from exc

    blob = read_verified("dense.bin")
    header, offset = _unframed(blob, DENSE_MAGIC, "dense.bin")
    try:
        n, dim = int(header["n"]), int(header["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndex(f"bad dense.bin header: {type(exc).__name__}: {exc}") from exc
    if len(blob) - offset != n * dim * 4:
        raise CorruptIndex(f"dense.bin payload is {len(blob) - offset} bytes, "
                           f"expected {n * dim * 4}")
    # copied out of the file bytes: a view at ``offset`` may be unaligned,
    # which slows every matrix-vector product
    vectors = np.frombuffer(blob, np.float32, n * dim, offset).reshape(n, dim).copy()

    return HybridIndex(lexical=lexical, dense=DenseIndex(vectors),
                       chunks={c.chunk_id: c for c in chunks},
                       doc_acl=doc_acl, params=params)
