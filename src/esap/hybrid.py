"""Hybrid retrieval: lexical + dense search fused by reciprocal rank.

A built index is one file, ``<kb>/index/index.bin`` (format 6):

    head          one JSON line: format version, parameters (the vector
                  width ``dim`` among them), each part's length and sha256
    lexical part  magic + 8-byte header length + JSON header, then raw
                  little-endian sections
    dense part    magic, then the raw little-endian float32 vectors,
                  dimension-major: one row per dimension, each holding
                  every chunk's value in position order

The lexical header is small: the chunk, document, term and posting counts,
the tf type, ``doc_acl`` and each section's byte length, in file order.
The sections (``esap.columns``) are the chunk table's, then BM25's. A chunk
is a position, its rank in chunk_id order, in memory as in the file.
``HybridIndex.chunks`` is a ``ChunkTable``: columns in position order, made
once by a build and wrapped around the verified sections by a load. Access
is decided per document row; fusion, hits and the guard cache use positions.

This module writes and reads the head (k1 and b among it), the framing of
both parts, the section table and the chunk table. The BM25 header keys and
sections and every check on them belong to ``esap.lexical``
(``to_columns``, ``from_columns``, the vocabulary's through
``esap.tokenizer.Vocabulary``), which stores term frequencies, not
weights. Neither a build nor a load computes a weight: a search computes
its query rows' weights, with the same bits for either index, and keeps
none. A load tokenizes nothing. The dense part states no shape of its own:
its row count is the head's ``dim`` and its row length the chunk table's
count, so vectors of another chunk count or width are refused. A load
serves the matrix in place, as the read-only ``DenseIndex.columns`` view of
the verified bytes: the 8-byte magic keeps them float32-aligned, and no
value is copied.

A save writes the file under a temporary name and renames it over
``index.bin``; a load opens it once, so a load that runs while a save does
reads the previous index or the new one, whole, never a mix. Nothing is
fsynced yet (ROADMAP item 4): the rename protects concurrent readers, not an
index saved just before a power loss. A load refuses a part unless its sha256
is the head's and parses only the bytes verified. A head key missing or of
another JSON type than a save writes (a bool is not a number), parts that
do not fill the file and a malformed part are ``CorruptIndex``.

Format 6 is the only format a load reads. Any other, a format 1 to 5
directory (``meta.json``, no ``index.bin``) included, is
``FormatVersionMismatch``: ``esap index`` rebuilds the index from the kb.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np

from .columns import are_i8s, are_strings, is_count, read_array, read_strings, string_sections
from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE, Chunk
from .dense import (AnnParams, DenseIndex, build_dense_from_texts, embed_query, search_dense,
                    top_k)
from .errors import CorruptIndex, DataError, EmptyCorpus, FormatVersionMismatch, require
from .jsonio import parse_json, read_json
# perfbench/tracer.py wraps search_lexical and filter_acl here; serving code calls neither
from .lexical import (DEFAULT_B, DEFAULT_K1, SECTIONS, LexicalIndex, _candidates,
                      build_lexical, from_columns, search_lexical, to_columns)
from .tokenizer import term_ids

FORMAT_VERSION = 6
DEFAULT_K = 50
DEFAULT_RRF_C = 60
# each retriever ranks this many times k of the principal's readable chunks
FETCH_FACTOR = 4
DENSE_MAGIC = b"ESAPDNS2"
LEXICAL_MAGIC = b"ESAPLEX3"


@dataclass(frozen=True)
class GuardRule:
    kind: str
    pattern: str


DEFAULT_GUARDS = (
    GuardRule("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    GuardRule("ssn", r"\d{3}-\d{2}-\d{4}"),
    GuardRule("phone", r"\(?\d{3}\)?[-. ]?\d{3}[-. ]?\d{4}"),
)


def apply_guards(text: str, rules: tuple[GuardRule, ...] = DEFAULT_GUARDS) -> str:
    """Replace every non-empty rule match with the rule's marker, taken
    literally; earlier rules win on overlapping spans."""
    for rule in rules:
        marker = f"[REDACTED:{rule.kind}]"
        text = re.sub(rule.pattern, lambda match: marker if match.group() else "", text)
    return text


# ``esap query`` prints each hit field for field, in this order
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


@dataclass(frozen=True, eq=False)
class ChunkTable(Mapping):
    """chunk_id -> ``Chunk`` over read-only columns in position order; a lookup bisects ``ids``."""

    ids: list[str]                 # position -> chunk_id, ascending
    doc_ids: list[str]             # the document table: row -> doc_id
    doc_row: np.ndarray            # <i4 document row of each chunk
    version: np.ndarray            # <i8
    token_span: np.ndarray         # <i8, (n, 2)
    size_tokens: np.ndarray        # <i8
    texts: list[str]

    def __post_init__(self):
        bad = next((b for a, b in zip(self.ids, self.ids[1:]) if not a < b), None)
        require(bad is None, f"chunk_id {bad!r} repeats or is out of order")
        require(0 <= self.doc_row.min() and self.doc_row.max() < len(self.doc_ids),
                "a doc row is out of range")
        for column in (self.doc_row, self.version, self.token_span, self.size_tokens):
            column.flags.writeable = False

    @classmethod
    def from_sections(cls, sections: dict[str, memoryview], n: int, n_docs: int) -> ChunkTable:
        """The table ``to_sections`` wrote; the numbers are copied out of the file bytes."""
        def column(name, count=n, dtype="<i8"):
            return read_array(sections[name], dtype, count, name).copy()
        return cls(read_strings(sections, "chunk_id", n), read_strings(sections, "doc_id", n_docs),
                   column("doc_row", dtype="<i4"), column("version"),
                   column("token_span", 2 * n).reshape(n, 2), column("size_tokens"),
                   read_strings(sections, "text", n))

    def to_sections(self) -> list[tuple[str, bytes | np.ndarray]]:
        """The ``_CHUNK_SECTIONS`` of the lexical part, in file order."""
        return [*string_sections("chunk_id", self.ids), *string_sections("doc_id", self.doc_ids),
                ("doc_row", self.doc_row), *string_sections("text", self.texts),
                ("version", self.version), ("token_span", self.token_span),
                ("size_tokens", self.size_tokens)]

    def __getitem__(self, chunk_id: str) -> Chunk:
        pos = bisect_left(self.ids, chunk_id) if isinstance(chunk_id, str) else len(self.ids)
        if pos == len(self.ids) or self.ids[pos] != chunk_id:
            raise KeyError(chunk_id)
        return Chunk(chunk_id, self.doc_ids[self.doc_row[pos]], int(self.version[pos]),
                     tuple(self.token_span[pos].tolist()), self.texts[pos],
                     int(self.size_tokens[pos]))

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class HybridIndex:
    lexical: LexicalIndex
    dense: DenseIndex
    chunks: ChunkTable             # its ids are the lexical index's chunk_ids
    doc_acl: dict[str, list[str]]              # doc_id -> principals
    params: HybridParams
    # principal -> read-only mask over positions, built on first use
    _masks: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)
    # guard tuple -> position -> redacted text, filled by ``search_hybrid``
    # the first time it returns that chunk under that tuple
    _guarded: dict[tuple[GuardRule, ...], dict[int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def chunk_ids(self) -> list[str]:
        """Position -> chunk_id, ascending: the lexical index's list."""
        return self.chunks.ids

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_ids)

    def allowed(self, principal: str) -> np.ndarray:
        """Read-only mask over positions of the chunks the principal may read:
        ``filter_acl``'s rule decided once per document row, gathered through
        ``doc_row`` and cached."""
        mask = self._masks.get(principal)
        if mask is None:
            acls = [self.doc_acl.get(doc_id, ["*"]) for doc_id in self.chunks.doc_ids]
            readable = np.array([principal in acl or "*" in acl for acl in acls], dtype=bool)
            mask = readable[self.chunks.doc_row]
            mask.flags.writeable = False
            self._masks[principal] = mask
        return mask

    def guarded(self, guards: tuple[GuardRule, ...]) -> dict[int, str]:
        """The guard tuple's memo, position -> redacted text; equal tuples
        share one. ``setdefault`` looks up and inserts in one call, so the
        tuple, and with it each rule, is hashed once."""
        return self._guarded.setdefault(guards, {})


def _are_spans(spans: list) -> bool:
    return (set(map(type, spans)) == {tuple} and set(map(len, spans)) == {2}
            and are_i8s(list(chain.from_iterable(spans))))


# (field, test of a non-empty column, what it wants) for each field of a chunk
_CHUNK_FIELDS = (
    ("chunk_id", are_strings, "a string UTF-8 can encode"),
    ("doc_id", are_strings, "a string UTF-8 can encode"),
    ("text", are_strings, "a string UTF-8 can encode"),
    ("version", are_i8s, "an int within <i8"),
    ("token_span", _are_spans, "a pair of ints within <i8"),
    ("size_tokens", are_i8s, "an int within <i8"),
)


def _are_acls(acls: Mapping) -> bool:
    """doc_id -> list of principals, every string UTF-8-encodable."""
    return (are_strings(list(acls)) and set(map(type, acls.values())) <= {list}
            and are_strings(list(chain.from_iterable(acls.values()))))


def _check_input(chunks: list[Chunk], doc_acl) -> None:
    """Refuse what a save cannot write or a load cannot give back equal, as
    ``DataError`` naming the first bad chunk or document: a chunk field that
    fails its ``_CHUNK_FIELDS`` column test, or a ``doc_acl`` that does not
    map strings to lists of strings, all UTF-8-encodable."""
    for name, ok, wanted in _CHUNK_FIELDS:
        if not ok(list(map(attrgetter(name), chunks))):
            bad = next(c for c in chunks if not ok([getattr(c, name)]))
            raise DataError(f"chunk {bad.chunk_id!r}: {name} must be {wanted}")

    if not isinstance(doc_acl, Mapping):
        raise DataError(f"doc_acl must map doc_ids to ACL lists, got {type(doc_acl).__name__}")
    if not _are_acls(doc_acl):
        bad = next(d for d, acl in doc_acl.items() if not _are_acls({d: acl}))
        raise DataError(f"document {bad!r}: its ACL must be a list of strings UTF-8 can encode")


def build_hybrid(chunks: list[Chunk], embed, doc_acl: dict[str, list[str]],
                 params: HybridParams | None = None) -> HybridIndex:
    """Index the chunks: BM25 and dense vectors, both in chunk_id order.

    The chunk texts are tokenized once, by ``term_ids``; BM25 is built from
    those ids, and so are the vectors when ``embed`` has an ``embed_ids``
    method (``HashingEmbedder``). Any other embedder gets the texts.
    Chunks and ACLs a save could not write or a load could not serve are
    ``DataError`` before any work (``_check_input``).
    """
    if not chunks:
        raise EmptyCorpus("cannot build an index over zero chunks")
    _check_input(chunks, doc_acl)
    params = params or HybridParams()
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    texts = [c.text for c in ordered]
    terms = term_ids(texts)
    lexical = build_lexical(ordered, k1=params.k1, b=params.b, terms=terms)
    rows: dict[str, int] = {}      # doc_id -> its row in the document table
    doc_row = [rows.setdefault(c.doc_id, len(rows)) for c in ordered]
    try:
        table = ChunkTable(lexical.chunk_ids, list(rows), np.array(doc_row, dtype="<i4"),
                           np.array([c.version for c in ordered], dtype="<i8"),
                           np.array([c.token_span for c in ordered], dtype="<i8"),
                           np.array([c.size_tokens for c in ordered], dtype="<i8"), texts)
    except ValueError as exc:
        raise DataError(f"cannot index the chunks: {exc}") from exc
    dense = build_dense_from_texts(texts, table.ids, embed, params.ann, terms=terms)
    return HybridIndex(lexical=lexical, dense=dense, chunks=table, doc_acl=dict(doc_acl),
                       params=params)


def fuse(lexical_ranking: list[str], dense_ranking: list[str],
         c: int = DEFAULT_RRF_C) -> list[tuple[str, float]]:
    """Fuse one lexical and one dense ranking; see rrf_fuse."""
    return rrf_fuse([lexical_ranking, dense_ranking], c=c)


def rrf_fuse(rankings, c: int = DEFAULT_RRF_C, k: int | None = None) -> list[tuple]:
    """Reciprocal rank fusion: score(x) = sum over lists of 1/(c + rank).

    Ranks start at 1. Items absent from a list contribute nothing for it.
    Output is the top ``k`` fused items (all of them when ``k`` is None),
    ordered by ``top_k``: fused score descending, then item ascending.

    A ranking is a numpy array (``search_hybrid``'s int positions) or any
    other sequence, such as chunk ids; the items of a non-array ranking are
    compared as Python compares them. The entries are sorted by item,
    stably, so each item's terms stay in list order, and ``np.bincount``
    adds them in that order, as a running sum over the lists would: the
    scores are the same floats, bit for bit.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = [r if isinstance(r, np.ndarray) else np.fromiter(r, dtype=object, count=len(r))
              for r in rankings if len(r)]
    if not ranked:
        return []
    items = np.concatenate(ranked)
    weights = 1.0 / np.concatenate([np.arange(c + 1, c + 1 + len(r)) for r in ranked])
    by_item = items.argsort(kind="stable")
    items = items[by_item]
    first = np.empty(len(items), dtype=bool)        # the first entry of each item
    first[0] = True
    np.not_equal(items[1:], items[:-1], out=first[1:])
    # slot i + 1 holds the i-th smallest item; slot 0 stays empty
    scores = np.bincount(np.add.accumulate(first, dtype=np.intp),
                         weights=weights[by_item])[1:]
    items, scores = top_k(items[first], scores, len(scores) if k is None else k)
    return list(zip(items.tolist(), scores.tolist()))


def filter_acl(ranked: list[tuple[str, float]], chunks: Mapping[str, Chunk],
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
    who may read nothing gets ``[]``, and so does a query that matches no
    readable chunk's term and embeds to the zero vector (one with no tokens,
    such as ``"???"``), as every chunk would tie. Redaction happens last, on the text
    actually returned: ``apply_guards`` runs once per chunk and guard tuple,
    the first time that chunk is returned, and later hits read the result
    cached on the index (``HybridIndex.guarded``; the guard tuple's memo is
    looked up once per search). A clean chunk's entry is its own text, as
    ``re.sub`` hands back its input; two first lookups at once only repeat
    the same pure computation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    allowed = index.allowed(principal)
    readable = int(np.count_nonzero(allowed))
    fetch = min(FETCH_FACTOR * k, readable)
    if fetch == 0:
        return []
    # a principal who may read every chunk needs no mask
    if readable == index.n_chunks:
        allowed = None
    lex_positions, _ = top_k(*_candidates(index.lexical, query, allowed), fetch)
    vector = embed_query(embed, query)
    # no query term matches and the vector is zero: every chunk would tie
    if not lex_positions.size and not vector.any():
        return []
    dense_hits = search_dense(index.dense, vector, fetch, allowed)
    dense_positions = np.fromiter((pos for pos, _ in dense_hits), dtype=np.intp,
                                  count=len(dense_hits))
    # positions ascend in chunk_id order, so fusing them ties as fusing ids
    fused = rrf_fuse([lex_positions, dense_positions], c=index.params.rrf_c, k=k)
    table, memo = index.chunks, index.guarded(guards)
    hits = []
    for pos, score in fused:
        text = memo.get(pos)
        if text is None:            # by the module's name, which the tracer wraps
            text = memo[pos] = apply_guards(table.texts[pos], guards)
        hits.append(Hit(chunk_id=table.ids[pos], doc_id=table.doc_ids[table.doc_row[pos]],
                        score=score, text=text))
    return hits


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# the chunk table's sections, in file order; the BM25 sections follow them
_CHUNK_SECTIONS = ("chunk_id", "chunk_id_offsets", "doc_id", "doc_id_offsets", "doc_row",
                   "text", "text_offsets", "version", "token_span", "size_tokens")


def _head(params: HybridParams, dim: int, parts: dict) -> dict:
    """index.bin's head: the settings, the vector width and each part's length and sha256."""
    return {"format_version": FORMAT_VERSION, "dim": dim, "k1": float(params.k1),
            "b": float(params.b), "rrf_c": int(params.rrf_c),
            "ann": {key: value if key == "mode" else int(value)
                    for key, value in params.ann.to_json().items()},
            "chunk": {"size": int(params.chunk_size), "overlap": int(params.chunk_overlap)},
            "parts": parts}


def _types(value):
    """A JSON value's type names, nested as its objects are."""
    return ({key: _types(item) for key, item in value.items()} if type(value) is dict
            else type(value).__name__)


# the type of each head value a save writes; a load refuses any other
_HEAD_TYPES = _types(_head(HybridParams(), 0,
                           dict.fromkeys(("lexical", "dense"), {"bytes": 0, "sha256": ""})))


def save_hybrid(index: HybridIndex, kb_root: str | Path) -> Path:
    """Write the index as <kb>/index/index.bin (format 6); returns that directory.

    The head and both parts go to a temporary file of this save's own, which
    is renamed over index.bin: a concurrent load reads the previous index or
    this one, whole. A save that fails removes the temporary file and leaves
    the previous index as it was. Format 5's files go after the rename.
    """
    out_dir = Path(kb_root) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    bm25_header, bm25_sections = to_columns(index.lexical)
    sections = [*index.chunks.to_sections(), *bm25_sections]
    header = {"chunks": index.n_chunks, "docs": len(index.chunks.doc_ids), **bm25_header,
              "doc_acl": index.doc_acl,
              "sections": {name: memoryview(part).nbytes for name, part in sections}}
    raw = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    parts = {"lexical": [LEXICAL_MAGIC, len(raw).to_bytes(8, "little"), raw,
                         *(part for _, part in sections)],
             "dense": [DENSE_MAGIC, np.ascontiguousarray(index.dense.columns, "<f4")]}
    digests = {}
    for name, blocks in parts.items():
        digest = hashlib.sha256()
        for block in blocks:
            digest.update(block)
        digests[name] = {"bytes": sum(memoryview(block).nbytes for block in blocks),
                         "sha256": digest.hexdigest()}
    head = (json.dumps(_head(index.params, index.dense.dim, digests)) + "\n").encode("utf-8")

    tmp = out_dir / f"index.bin.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chain([head], *parts.values()))
        os.replace(tmp, out_dir / "index.bin")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    for name in ("meta.json", "lexical.bin", "dense.bin"):
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


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


def _read_lexical(data: bytes, params: HybridParams) -> tuple[ChunkTable, dict, LexicalIndex]:
    """The chunk table, ACLs and BM25 from the lexical part; BM25 is read as
    term frequencies, not rebuilt from text."""
    require(data.startswith(LEXICAL_MAGIC), f"the magic is {data[:len(LEXICAL_MAGIC)]!r}")
    start = len(LEXICAL_MAGIC) + 8
    end = start + int.from_bytes(data[len(LEXICAL_MAGIC):start], "little")
    require(end <= len(data), f"a {end - start}-byte header in a {len(data)}-byte file")
    # decoded from a view: a slice would copy the header's bytes first
    view = memoryview(data)
    header = parse_json(view[start:end], ValueError, "the header", "object")
    sections = _sections(header, view[end:])
    n, n_docs = header.get("chunks"), header.get("docs")
    require(is_count(n) and n > 0 and is_count(n_docs),
            "the chunk or document count is not a count, or no chunk is stored")
    doc_acl = header.get("doc_acl")
    require(type(doc_acl) is dict and _are_acls(doc_acl),
            "doc_acl is not an object of principal lists")
    table = ChunkTable.from_sections(sections, n, n_docs)
    return table, doc_acl, from_columns(header, sections, table.ids, params.k1, params.b)


def _check_format(version) -> None:
    # 3.0 == 3 in Python, but names no format
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index format {version!r} unsupported, expected {FORMAT_VERSION}; "
            f"run `esap index` to rebuild it")


def load_hybrid(kb_root: str | Path) -> HybridIndex:
    """Load and verify <kb>/index/index.bin; never serves a corrupt part.

    The file is opened once, so an index.bin renamed over it meanwhile
    changes nothing this load reads. The lexical part is read, verified,
    parsed and released before the dense part is read into a buffer of its
    own. A directory of formats 1 to 5 (``meta.json``, no ``index.bin``) is
    ``FormatVersionMismatch``.
    """
    in_dir = Path(kb_root) / "index"
    try:
        fh = open(in_dir / "index.bin", "rb")
    except OSError as exc:
        if (in_dir / "meta.json").is_file():
            # formats 1 to 5 kept their settings in meta.json, beside the data files
            _check_format(read_json(in_dir / "meta.json", CorruptIndex, "meta.json", "object")
                          .get("format_version"))
        raise CorruptIndex(f"cannot read index.bin: {exc}") from exc
    with fh:
        head = parse_json(fh.readline(), CorruptIndex, "the head of index.bin", "object")
        _check_format(head.get("format_version"))
        types = _types(head)
        wrong = [key for key in sorted(types | _HEAD_TYPES)
                 if types.get(key) != _HEAD_TYPES.get(key)]
        if wrong:
            raise CorruptIndex(f"bad head in index.bin: {', '.join(wrong)} missing or mistyped")
        dim, parts = head["dim"], head["parts"]
        sizes = [part["bytes"] for part in parts.values()]
        after = os.fstat(fh.fileno()).st_size - fh.tell()
        if not (is_count(dim) and all(map(is_count, sizes)) and sum(sizes) == after):
            raise CorruptIndex(f"bad head in index.bin: dim {dim}, parts of {sizes} bytes, "
                               f"{after} bytes after the head")
        params = HybridParams(k1=head["k1"], b=head["b"], rrf_c=head["rrf_c"],
                              chunk_size=head["chunk"]["size"],
                              chunk_overlap=head["chunk"]["overlap"],
                              ann=AnnParams.from_json(head["ann"]))

        def read_verified(name: str) -> bytes:
            data = fh.read(parts[name]["bytes"])
            expected, actual = parts[name]["sha256"], hashlib.sha256(data).hexdigest()
            if actual != expected:
                raise CorruptIndex(
                    f"checksum mismatch for the {name} part: expected {expected[:12]}..., "
                    f"got {actual[:12]}...")
            return data

        # BM25 is complete before the dense part is read
        try:
            table, doc_acl, lexical = _read_lexical(read_verified("lexical"), params)
        except ValueError as exc:
            raise CorruptIndex(f"bad lexical part: {exc}") from exc
        blob = read_verified("dense")

    n = len(table)
    try:
        require(blob.startswith(DENSE_MAGIC), f"the magic is {blob[:len(DENSE_MAGIC)]!r}")
        values = read_array(memoryview(blob)[len(DENSE_MAGIC):], "<f4", dim * n, "vectors")
    except ValueError as exc:
        raise CorruptIndex(f"bad dense part: {exc}") from exc

    return HybridIndex(lexical=lexical, dense=DenseIndex(values.reshape(dim, n)), chunks=table,
                       doc_acl=doc_acl, params=params)
