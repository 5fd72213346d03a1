"""Hybrid retrieval: lexical + dense search fused by reciprocal rank.

A built index is a self-contained directory:

    index/meta.json     parameters, format version, checksums
    index/lexical.bin   magic + 8-byte header length + JSON header, then
                        the BM25 columns raw
    index/dense.bin     magic + 8-byte header length + JSON header (dim, n),
                        then the raw float32 vectors

This module writes and reads ``meta.json`` (k1 and b among it), the
checksums, the framing of both data files and the first two keys of the
lexical header: the chunk table as columns (one list per ``Chunk`` field,
in chunk_id order, so list order is position order) and ``doc_acl``. The
rest of ``lexical.bin`` (the BM25 header keys and the payload) and every
check on it belong to ``esap.lexical`` (``to_columns``, ``from_columns``).
A load tokenizes nothing: it copies BM25 out of the file bytes. The dense
header keeps ``"mode": "exact"`` and ``"graph": null`` for the shape earlier
builds read; a graph stored by an earlier build is ignored.

Format 2 is the only format a load reads. Any other ``format_version``,
format 1 included, is ``FormatVersionMismatch``: the index is derived from
the kb, and ``esap index`` rebuilds it.

Each data file is hashed as it is written; a load reads it once, refuses it
unless meta.json holds a matching checksum, and parses only the bytes it
verified. A file whose checksum holds but whose content is malformed is
``CorruptIndex`` naming the file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE, Chunk
from .dense import AnnParams, DenseIndex, build_dense_from_texts, search_dense
from .errors import CorruptIndex, EmptyCorpus, EmptyIndex, FormatVersionMismatch, require
from .jsonio import parse_json, read_json
from .lexical import (DEFAULT_B, DEFAULT_K1, LexicalIndex, build_lexical, from_columns,
                      search_lexical, to_columns)
from .tokenizer import term_ids

FORMAT_VERSION = 2
DEFAULT_K = 50
DEFAULT_RRF_C = 60
# each retriever ranks this many times k of the principal's readable chunks
FETCH_FACTOR = 4
DENSE_MAGIC = b"ESAPDNS1"
LEXICAL_MAGIC = b"ESAPLEX2"


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

    def guarded(self, chunk_id: str, guards: tuple[GuardRule, ...]) -> str:
        """The chunk's text under ``apply_guards``, computed once per guard tuple.

        A chunk without a match costs one reference: ``re.sub`` hands back
        its input unchanged. Two first lookups at once only repeat the same
        pure computation.
        """
        texts = self._guarded.setdefault(guards, {})
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
    cached on the index (``HybridIndex.guarded``).
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
    out = []
    for chunk_id, score in rrf_fuse(rankings, c=index.params.rrf_c)[:k]:
        chunk = index.chunks[chunk_id]
        out.append(Hit(chunk_id=chunk_id, doc_id=chunk.doc_id, score=score,
                       text=index.guarded(chunk_id, guards)))
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# the chunk table's columns, in both directions: Chunk's own fields in order,
# each with the one type its values take (a token span is a JSON pair)
_CHUNK_COLUMNS = {"chunk_id": str, "doc_id": str, "version": int, "token_span": list,
                  "text": str, "size_tokens": int}


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
    """Write the index under <kb>/index/ in format 2; returns that directory."""
    out_dir = Path(kb_root) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    ordered = [index.chunks[cid] for cid in index.chunk_ids]
    columns = {name: [getattr(c, name) for c in ordered] for name in _CHUNK_COLUMNS}
    bm25_header, bm25_payload = to_columns(index.lexical)
    lexical_parts = _framed(LEXICAL_MAGIC, {"chunks": columns, "doc_acl": index.doc_acl,
                                            **bm25_header}) + bm25_payload

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
    # decoded from a view: a slice would first copy the header, which in
    # lexical.bin holds every chunk text
    return parse_json(memoryview(data)[start:end], CorruptIndex, f"{name} header",
                      "object"), end


def _chunk_table(columns) -> list[Chunk]:
    """The chunks of a chunk table given as columns, in position order.

    Every column is a list of its one type and all have the same length,
    each token span is a pair of ints, and the chunk_ids ascend, so list
    order is position order.
    """
    require(type(columns) is dict, "the chunk table is not an object of columns")
    cols = [columns.get(name) for name in _CHUNK_COLUMNS]
    for (name, kind), col in zip(_CHUNK_COLUMNS.items(), cols):
        require(type(col) is list and set(map(type, col)) <= {kind},
                f"the {name} column is missing or holds a value of another type")
    require(len(set(map(len, cols))) == 1, "chunk columns of unequal length")
    spans = columns["token_span"]
    require(set(map(len, spans)) <= {2}
            and set(map(type, itertools.chain.from_iterable(spans))) <= {int},
            "a token_span is not a pair of ints")
    ids = columns["chunk_id"]
    require(all(map(operator.lt, ids, ids[1:])), "chunk_ids do not ascend")
    return [Chunk(chunk_id=cid, doc_id=doc, version=version, token_span=tuple(span),
                  text=text, size_tokens=size)
            for cid, doc, version, span, text, size in zip(*cols)]


def _read_lexical(data: bytes, params: HybridParams) -> tuple[list[Chunk], dict, LexicalIndex]:
    """Chunks, ACLs and BM25 from lexical.bin; BM25 is copied, not built."""
    header, offset = _unframed(data, LEXICAL_MAGIC, "lexical.bin")
    chunks = _chunk_table(header.get("chunks"))
    doc_acl = header.get("doc_acl")
    require(type(doc_acl) is dict
            and all(type(acl) is list and set(map(type, acl)) <= {str}
                    for acl in doc_acl.values()),
            "doc_acl is not an object of principal lists")
    return chunks, doc_acl, from_columns(header, memoryview(data)[offset:],
                                         header["chunks"]["chunk_id"], params.k1, params.b)


def load_hybrid(kb_root: str | Path) -> HybridIndex:
    """Load and verify an index directory; never serves a corrupt file.

    Each data file is read once, refused unless ``meta.json`` holds a
    matching checksum for it, and parsed from the very bytes verified.
    """
    in_dir = Path(kb_root) / "index"
    meta = read_json(in_dir / "meta.json", CorruptIndex, "meta.json", "object")

    version = meta.get("format_version")
    # 2.0 == 2 in Python, but names no format
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
