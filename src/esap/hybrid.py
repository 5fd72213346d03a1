"""Hybrid retrieval: lexical + dense search fused by reciprocal rank.

A built index is a self-contained directory:

    index/meta.json     parameters, format version, checksums
    index/lexical.bin   gzip JSON: chunk table and document ACLs
    index/dense.bin     magic + JSON header (dim, n) + raw float32 vectors

The BM25 index is a pure function of the chunk table and k1/b, so it is not
stored: loading rebuilds it. The dense header keeps ``"mode": "exact"`` and
``"graph": null`` for the format version 1 shape; a graph stored by an
earlier build is ignored and the index is searched exactly. Checksums are
verified on load; any mismatch refuses the index rather than serving
silently wrong results.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Chunk
from .dense import AnnParams, DenseIndex, build_dense_from_texts, search_dense
from .errors import CorruptIndex, EmptyCorpus, EmptyIndex, FormatVersionMismatch
from .lexical import LexicalIndex, build_lexical, search_lexical

FORMAT_VERSION = 1
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
    k1: float = 1.2
    b: float = 0.75
    rrf_c: int = DEFAULT_RRF_C
    chunk_size: int = 1000
    chunk_overlap: int = 150
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


def search_hybrid(index: HybridIndex, query: str, embed, k: int = 50,
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
    actually returned.
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
                       text=apply_guards(chunk.text, guards)))
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_hybrid(index: HybridIndex, kb_root: str | Path) -> Path:
    """Write the index under <kb>/index/; returns that directory."""
    out_dir = Path(kb_root) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    lexical_payload = {
        "chunks": [
            {
                "chunk_id": c.chunk_id,
                "doc_id": c.doc_id,
                "version": c.version,
                "token_span": list(c.token_span),
                "text": c.text,
                "size_tokens": c.size_tokens,
            }
            for c in (index.chunks[cid] for cid in index.chunk_ids)
        ],
        "doc_acl": index.doc_acl,
    }
    lexical_path = out_dir / "lexical.bin"
    raw = json.dumps(lexical_payload, ensure_ascii=False,
                     separators=(",", ":")).encode("utf-8")
    # mtime=0 keeps the gzip container byte-stable across rebuilds; level 6
    # is a quarter of level 9's time for about 7% more bytes
    with open(lexical_path, "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", compresslevel=6, mtime=0) as gz:
            gz.write(raw)

    dense_header = {
        "dim": index.dense.dim,
        "n": int(index.dense.vectors.shape[0]),
        "mode": "exact",
        "graph": None,
    }
    header_bytes = json.dumps(dense_header, separators=(",", ":")).encode("utf-8")
    dense_path = out_dir / "dense.bin"
    with open(dense_path, "wb") as fh:
        fh.write(DENSE_MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        fh.write(np.ascontiguousarray(index.dense.vectors, dtype=np.float32).tobytes())

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
            "lexical.bin": _sha256(lexical_path),
            "dense.bin": _sha256(dense_path),
        },
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def load_hybrid(kb_root: str | Path) -> HybridIndex:
    """Load and verify an index directory; never serves a corrupt file."""
    in_dir = Path(kb_root) / "index"
    meta_path = in_dir / "meta.json"
    if not meta_path.exists():
        raise CorruptIndex(f"missing {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorruptIndex(f"unreadable meta.json: {exc}") from exc

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index format {version!r} unsupported, expected {FORMAT_VERSION}")

    for name, expected in meta.get("checksums", {}).items():
        path = in_dir / name
        if not path.exists():
            raise CorruptIndex(f"missing index file {name}")
        actual = _sha256(path)
        if actual != expected:
            raise CorruptIndex(
                f"checksum mismatch for {name}: expected {expected[:12]}..., "
                f"got {actual[:12]}...")

    with gzip.open(in_dir / "lexical.bin", "rb") as gz:
        lex = json.loads(gz.read().decode("utf-8"))
    # files written before the BM25 state was dropped also hold postings,
    # chunk_lengths, k1 and b; they are ignored
    ordered = [Chunk(chunk_id=row["chunk_id"], doc_id=row["doc_id"],
                     version=row["version"],
                     token_span=tuple(row["token_span"]),
                     text=row["text"], size_tokens=row["size_tokens"])
               for row in lex["chunks"]]
    k1, b = float(meta["k1"]), float(meta["b"])
    lexical = build_lexical(ordered, k1=k1, b=b)

    with open(in_dir / "dense.bin", "rb") as fh:
        magic = fh.read(len(DENSE_MAGIC))
        if magic != DENSE_MAGIC:
            raise CorruptIndex(f"bad dense.bin magic: {magic!r}")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        payload = fh.read()
    n, dim = int(header["n"]), int(header["dim"])
    expected_bytes = n * dim * 4
    if len(payload) != expected_bytes:
        raise CorruptIndex(
            f"dense.bin payload is {len(payload)} bytes, expected {expected_bytes}")
    vectors = np.frombuffer(payload, dtype=np.float32).reshape(n, dim).copy()

    ann = AnnParams.from_json(meta["ann"])
    dense = DenseIndex(vectors=vectors, dim=dim, params=ann)
    params = HybridParams(k1=k1, b=b, rrf_c=int(meta["rrf_c"]),
                          chunk_size=int(meta["chunk"]["size"]),
                          chunk_overlap=int(meta["chunk"]["overlap"]),
                          ann=ann)
    return HybridIndex(lexical=lexical, dense=dense,
                       chunks={c.chunk_id: c for c in ordered},
                       doc_acl=lex["doc_acl"], params=params)
