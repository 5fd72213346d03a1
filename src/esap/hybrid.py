"""Hybrid retrieval: lexical + dense search fused by reciprocal rank.

A built index is a self-contained directory:

    index/meta.json     parameters, format version, checksums
    index/lexical.bin   gzip JSON: chunk table and document ACLs
    index/dense.bin     magic + JSON header (dim, n) + raw float32 vectors

The BM25 index is a pure function of the chunk table and k1/b, so it is not
stored: loading rebuilds it. The dense header keeps ``"mode": "exact"`` and
``"graph": null`` for the format version 1 shape; a graph stored by an
earlier build is ignored and the index is searched exactly. Each data file
is hashed as it is written; a load reads it once, refuses it unless meta.json
holds a matching checksum, and parses only the bytes it verified.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE, Chunk
from .dense import AnnParams, DenseIndex, build_dense_from_texts, search_dense
from .errors import CorruptIndex, EmptyCorpus, EmptyIndex, FormatVersionMismatch
from .jsonio import read_json
from .lexical import DEFAULT_B, DEFAULT_K1, LexicalIndex, build_lexical, search_lexical

FORMAT_VERSION = 1
DEFAULT_K = 50
DEFAULT_RRF_C = 60
# each retriever ranks this many times k of the principal's readable chunks
FETCH_FACTOR = 4
DENSE_MAGIC = b"ESAPDNS1"


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
    if not chunks:
        raise EmptyCorpus("cannot build an index over zero chunks")
    params = params or HybridParams()
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    lexical = build_lexical(ordered, k1=params.k1, b=params.b)
    dense = build_dense_from_texts([c.text for c in ordered],
                                   [c.chunk_id for c in ordered],
                                   embed, params.ann)
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

# the chunk-table row format, in both directions: Chunk's own fields in order
_CHUNK_FIELDS = tuple(f.name for f in fields(Chunk))


def _write(path: Path, parts) -> str:
    """Write the parts to path in order; returns the sha256 of those bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
    return digest.hexdigest()


def save_hybrid(index: HybridIndex, kb_root: str | Path) -> Path:
    """Write the index under <kb>/index/; returns that directory."""
    out_dir = Path(kb_root) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [{name: getattr(index.chunks[cid], name) for name in _CHUNK_FIELDS}
            for cid in index.chunk_ids]
    raw = json.dumps({"chunks": rows, "doc_acl": index.doc_acl},
                     ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the gzip container byte-stable across rebuilds; level 6
    # is a quarter of level 9's time for about 7% more bytes; the filename
    # keeps the header of files streamed to disk by earlier builds
    gz_bytes = io.BytesIO()
    with gzip.GzipFile(filename="lexical.bin", fileobj=gz_bytes, mode="wb",
                       compresslevel=6, mtime=0) as gz:
        gz.write(raw)

    vectors = np.ascontiguousarray(index.dense.vectors, dtype=np.float32)
    header = json.dumps({"dim": index.dense.dim, "n": vectors.shape[0], "mode": "exact",
                         "graph": None}, separators=(",", ":")).encode("utf-8")
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
            "lexical.bin": _write(out_dir / "lexical.bin", [gz_bytes.getbuffer()]),
            "dense.bin": _write(out_dir / "dense.bin", [
                DENSE_MAGIC, len(header).to_bytes(8, "little"), header, vectors]),
        },
    }
    _write(out_dir / "meta.json",
           [(json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8")])
    return out_dir


def load_hybrid(kb_root: str | Path) -> HybridIndex:
    """Load and verify an index directory; never serves a corrupt file.

    Each data file is read once, refused unless ``meta.json`` holds a
    matching checksum for it, and parsed from the very bytes verified.
    """
    in_dir = Path(kb_root) / "index"
    meta = read_json(in_dir / "meta.json", CorruptIndex, "meta.json", "object")

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index format {version!r} unsupported, expected {FORMAT_VERSION}")
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

    lex = json.loads(gzip.decompress(read_verified("lexical.bin")))
    # files written before the BM25 state was dropped also hold postings,
    # chunk_lengths, k1 and b; they are ignored
    ordered = []
    for row in lex["chunks"]:
        row["token_span"] = tuple(row["token_span"])
        ordered.append(Chunk(**{name: row[name] for name in _CHUNK_FIELDS}))
    # BM25 is built before dense.bin is read, so the two are never held at once
    lexical = build_lexical(ordered, k1=params.k1, b=params.b)

    blob = read_verified("dense.bin")
    if not blob.startswith(DENSE_MAGIC):
        raise CorruptIndex(f"bad dense.bin magic: {blob[:len(DENSE_MAGIC)]!r}")
    start = len(DENSE_MAGIC) + 8
    offset = start + int.from_bytes(blob[start - 8:start], "little")
    header = json.loads(blob[start:offset])
    n, dim = int(header["n"]), int(header["dim"])
    if len(blob) - offset != n * dim * 4:
        raise CorruptIndex(f"dense.bin payload is {len(blob) - offset} bytes, "
                           f"expected {n * dim * 4}")
    # copied out of the file bytes: a view at ``offset`` may be unaligned,
    # which slows every matrix-vector product
    vectors = np.frombuffer(blob, np.float32, n * dim, offset).reshape(n, dim).copy()

    return HybridIndex(lexical=lexical, dense=DenseIndex(vectors),
                       chunks={c.chunk_id: c for c in ordered},
                       doc_acl=lex["doc_acl"], params=params)
