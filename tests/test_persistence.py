from __future__ import annotations

import builtins
import gzip
import hashlib
import io
import json
import operator
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esap import hybrid, lexical, tokenizer
from esap.corpus import Document, chunk_document
from esap.dense import search_dense
from esap.errors import CorruptIndex, FormatVersionMismatch
from esap.hybrid import (
    DENSE_MAGIC,
    LEXICAL_MAGIC,
    HybridParams,
    build_hybrid,
    load_hybrid,
    save_hybrid,
    search_hybrid,
)
from esap.lexical import LexicalIndex
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts, make_toy_kb_documents

# the toy kb's ACL in build_index: some documents hidden from some PRINCIPALS
TOY_ACL = {"fruit-cherry": ["bob"], "policy-returns": ["alice", "bob"]}
QUERIES = ("red apple", "shipping cherries", "refund policy", "zzz")
PRINCIPALS = ("*", "alice", "bob", "carol")


def build_index(docs=None, **bm25):
    """The toy kb (or ``docs``) chunked 30/5 under TOY_ACL."""
    docs = docs or make_toy_kb_documents()
    return build_hybrid([c for d in docs for c in chunk_document(d, size=30, overlap=5)],
                        HashingEmbedder(),
                        {d.doc_id: TOY_ACL.get(d.doc_id, ["*"]) for d in docs},
                        HybridParams(chunk_size=30, chunk_overlap=5, **bm25))


def replace_data_file(index_dir: Path, name: str, data: bytes) -> None:
    """Write a data file and record its sha256, so only its content is wrong."""
    (index_dir / name).write_bytes(data)
    meta_path = index_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"][name] = hashlib.sha256(data).hexdigest()
    meta_path.write_text(json.dumps(meta))


def assert_same_hits(a, b, k: int = 5) -> None:
    embed = HashingEmbedder()
    for query in QUERIES:
        for principal in PRINCIPALS:
            hits_a = search_hybrid(a, query, embed, k=k, principal=principal)
            hits_b = search_hybrid(b, query, embed, k=k, principal=principal)
            assert [(h.chunk_id, h.score, h.text) for h in hits_a] == \
                   [(h.chunk_id, h.score, h.text) for h in hits_b], (query, principal)


def assert_same_lexical(a: LexicalIndex, b: LexicalIndex) -> None:
    # dataclass == would compare the numpy arrays elementwise and raise
    assert (a.chunk_ids, a.postings, a.bounds, a.n_chunks, a.avgdl, a.k1, a.b) == \
           (b.chunk_ids, b.postings, b.bounds, b.n_chunks, b.avgdl, b.k1, b.b)
    for x, y in ((a.positions, b.positions), (a.weights, b.weights)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def test_round_trip_preserves_search_results(tmp_path):
    index = build_index(k1=1.6, b=0.4)
    save_hybrid(index, tmp_path)
    loaded = load_hybrid(tmp_path)
    assert_same_lexical(loaded.lexical, index.lexical)
    embed = HashingEmbedder()
    for query in ("red apple", "shipping cherries", "refund policy"):
        a = search_hybrid(index, query, embed, k=4)
        b = search_hybrid(loaded, query, embed, k=4)
        assert [(h.chunk_id, h.score) for h in a] == \
               [(h.chunk_id, h.score) for h in b]
    assert np.array_equal(index.dense.vectors, loaded.dense.vectors)
    assert loaded.params.chunk_size == 30
    assert loaded.doc_acl == index.doc_acl


def test_layered_graph_from_earlier_builds_is_served(tmp_path):
    docs = [Document(doc_id=f"t-{i:03d}", version=1, text=text)
            for i, text in enumerate(make_clustered_texts(300, seed=6))]
    params = HybridParams(chunk_size=200, chunk_overlap=20)
    params.ann.mode = "ann"
    embed = HashingEmbedder()
    index = build_hybrid([c for d in docs for c in chunk_document(d, size=200, overlap=20)],
                         embed, {d.doc_id: ["*"] for d in docs}, params)
    index_dir = save_hybrid(index, tmp_path)
    blob = (index_dir / "dense.bin").read_bytes()
    start = len(DENSE_MAGIC) + 8
    header = json.loads(blob[start:start + int.from_bytes(blob[start - 8:start], "little")])
    assert (header["mode"], header["graph"]) == ("exact", None)

    vectors = index.dense.vectors
    n, m = vectors.shape[0], params.ann.m
    sims = vectors @ vectors.T
    np.fill_diagonal(sims, -np.inf)
    base = [np.argsort(-sims[node], kind="stable")[:2 * m].tolist() for node in range(n)]
    # two levels, as the per-node HNSW build wrote them (every tenth node
    # also on level 1), and one level, as the batch build wrote them
    upper = list(range(0, n, 10))
    layered = {"levels": [1 if node in upper else 0 for node in range(n)],
               "adj": [[nbrs, sorted(upper, key=lambda u: -sims[node, u])[:m]]
                       if node in upper else [nbrs] for node, nbrs in enumerate(base)],
               "entry": upper[-1], "max_level": 1}
    single = {"levels": [0] * n, "adj": [[nbrs] for nbrs in base],
              "entry": 0, "max_level": 0}
    queries = embed(make_clustered_texts(50, seed=7))
    for graph in (layered, single):
        header = json.dumps({"dim": int(vectors.shape[1]), "n": n, "mode": "ann",
                             "graph": graph}).encode("utf-8")
        replace_data_file(index_dir, "dense.bin", DENSE_MAGIC + len(header).to_bytes(8, "little")
                          + header + vectors.tobytes())

        loaded = load_hybrid(tmp_path)
        assert loaded.dense.mode == "exact"
        assert np.array_equal(loaded.dense.vectors, vectors)
        for query in queries:
            positions = [pos for pos, _ in search_dense(loaded.dense, query, 10)]
            truth = np.lexsort((np.arange(n), -(vectors @ query)))[:10]
            assert positions == truth.tolist()


def test_save_is_byte_deterministic(tmp_path):
    index = build_index()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    save_hybrid(index, dir_a)
    save_hybrid(build_index(), dir_b)
    for name in ("meta.json", "lexical.bin", "dense.bin"):
        assert (dir_a / "index" / name).read_bytes() == \
               (dir_b / "index" / name).read_bytes(), name


def test_meta_keys_are_fixed(tmp_path):
    save_hybrid(build_index(), tmp_path)
    meta = json.loads((tmp_path / "index" / "meta.json").read_text())
    for key in ("format_version", "dim", "k1", "b", "rrf_c", "ann", "chunk",
                "checksums"):
        assert key in meta, key
    assert {"m", "ef_c", "ef_s"} <= set(meta["ann"])
    assert set(meta["chunk"]) == {"size", "overlap"}
    assert set(meta["checksums"]) == {"lexical.bin", "dense.bin"}


def test_corruption_detected(tmp_path):
    save_hybrid(build_index(), tmp_path)
    target = tmp_path / "index" / "dense.bin"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(CorruptIndex):
        load_hybrid(tmp_path)


def test_lexical_corruption_detected(tmp_path):
    save_hybrid(build_index(), tmp_path)
    target = tmp_path / "index" / "lexical.bin"
    blob = bytearray(target.read_bytes())
    blob[10] ^= 0x01
    target.write_bytes(bytes(blob))
    with pytest.raises(CorruptIndex):
        load_hybrid(tmp_path)


def with_format_version(kb: Path, version) -> Path:
    """A fresh build saved under kb, its meta.json saying ``version``."""
    save_hybrid(build_index(), kb)
    meta_path = kb / "index" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = version
    meta_path.write_text(json.dumps(meta))
    return kb


def test_format_version_gate(tmp_path):
    with pytest.raises(FormatVersionMismatch):
        load_hybrid(with_format_version(tmp_path, 999))


@pytest.mark.parametrize("version", [3, 0, True, 1.0, 2.0, "2", None])
def test_a_format_version_that_is_not_1_or_2_is_refused(tmp_path, version):
    with pytest.raises(FormatVersionMismatch, match="run `esap index`") as refused:
        load_hybrid(with_format_version(tmp_path, version))
    assert refused.value.exit_code == 2


def test_a_format_1_index_is_refused_like_any_other_format(tmp_path):
    # the index is derived from the kb, so the remedy is to rebuild it
    with pytest.raises(FormatVersionMismatch) as refused:
        load_hybrid(with_format_version(tmp_path, 1))
    assert str(refused.value) == \
        "index format 1 unsupported, expected 2; run `esap index` to rebuild it"
    assert refused.value.exit_code == 2


def test_missing_index_dir(tmp_path):
    with pytest.raises(CorruptIndex):
        load_hybrid(tmp_path / "nowhere")


def test_queries_do_not_mutate_index(tmp_path):
    import hashlib
    index = build_index()
    save_hybrid(index, tmp_path)
    digest = hashlib.sha256()
    for name in ("meta.json", "lexical.bin", "dense.bin"):
        digest.update((tmp_path / "index" / name).read_bytes())
    before = digest.hexdigest()
    embed = HashingEmbedder()
    for query in ("apple", "banana", "return policy", "zzz"):
        search_hybrid(index, query, embed, k=3)
    save_hybrid(index, tmp_path)
    digest = hashlib.sha256()
    for name in ("meta.json", "lexical.bin", "dense.bin"):
        digest.update((tmp_path / "index" / name).read_bytes())
    assert digest.hexdigest() == before


# ---------------------------------------------------------------------------
# one read per data file: the bytes parsed are the bytes verified
# ---------------------------------------------------------------------------

def test_a_format_2_load_tokenizes_nothing_and_builds_no_bm25(tmp_path, monkeypatch):
    index = build_index()
    save_hybrid(index, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a format-2 load tokenized or rebuilt BM25")

    with monkeypatch.context() as patch:
        for module in (tokenizer, lexical, hybrid):
            for name in ("term_ids", "token_texts", "token_spans", "token_edges",
                         "build_lexical"):
                if hasattr(module, name):
                    patch.setattr(module, name, refuse)
        loaded = load_hybrid(tmp_path)
    assert_same_lexical(loaded.lexical, index.lexical)
    assert loaded.chunks == index.chunks
    assert_same_hits(loaded, index)


def test_a_file_swapped_after_it_is_read_is_never_served(tmp_path, monkeypatch):
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    # well-formed files of another index: other texts, other vectors
    other = build_index([replace(d, text="swapped " + d.text)
                         for d in make_toy_kb_documents()])
    other_dir = save_hybrid(other, tmp_path / "other")
    assert load_hybrid(tmp_path / "other").chunks == other.chunks != index.chunks
    swaps = {name: (other_dir / name).read_bytes() for name in ("lexical.bin", "dense.bin")}
    for name, data in swaps.items():
        assert data != (index_dir / name).read_bytes()
        (tmp_path / name).write_bytes(data)

    opened: Counter = Counter()
    real_open = io.open

    def swapping_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == index_dir:
            name = Path(file).name
            opened[name] += 1
            if name in swaps and opened[name] == 1:
                os.replace(tmp_path / name, index_dir / name)
        return fh

    monkeypatch.setattr(builtins, "open", swapping_open)
    monkeypatch.setattr(io, "open", swapping_open)
    loaded = load_hybrid(tmp_path)
    monkeypatch.undo()

    assert loaded.chunks == index.chunks
    assert np.array_equal(loaded.dense.vectors, index.dense.vectors)
    assert opened["lexical.bin"] == opened["dense.bin"] == 1
    # the swapped files are on disk now, and a fresh load refuses them
    with pytest.raises(CorruptIndex, match="checksum mismatch for lexical.bin"):
        load_hybrid(tmp_path)


@pytest.mark.parametrize("dropped", [("lexical.bin",), ("dense.bin",),
                                     ("lexical.bin", "dense.bin")])
def test_a_data_file_without_a_checksum_is_refused(tmp_path, dropped):
    save_hybrid(build_index(), tmp_path)
    meta_path = tmp_path / "index" / "meta.json"
    meta = json.loads(meta_path.read_text())
    for name in dropped:
        del meta["checksums"][name]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CorruptIndex, match=f"no checksum for {dropped[0]}"):
        load_hybrid(tmp_path)


@pytest.mark.parametrize("key, value", [
    ("k1", None), ("b", None), ("rrf_c", None), ("ann", None), ("chunk", None),
    ("checksums", None),
    ("k1", "high"), ("b", [0.75]), ("rrf_c", "sixty"), ("ann", []),
    ("ann", {"m": 16}), ("ann", {"m": "x", "ef_c": 1, "ef_s": 1,
                                 "exact_threshold": 1, "mode": "auto", "seed": 1}),
    ("chunk", 5), ("chunk", {"size": 30}), ("checksums", 5), ("checksums", "x"),
])
def test_a_missing_or_mistyped_meta_key_is_corrupt_index(tmp_path, key, value):
    # None deletes the key
    save_hybrid(build_index(), tmp_path)
    meta_path = tmp_path / "index" / "meta.json"
    meta = json.loads(meta_path.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CorruptIndex, match="meta.json"):
        load_hybrid(tmp_path)


# ---------------------------------------------------------------------------
# a lexical.bin whose checksum holds but whose content is malformed
# ---------------------------------------------------------------------------

def frame(header, payload: bytes, magic: bytes = LEXICAL_MAGIC) -> bytes:
    """A format-2 lexical.bin around a header (a dict, or raw bytes)."""
    raw = header if isinstance(header, bytes) else \
        json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return magic + len(raw).to_bytes(8, "little") + raw + payload


def edited(mutate):
    def case(header, payload, m):
        mutate(header)
        return frame(header, payload)
    return case


def with_position(value):
    def case(header, payload, m):
        positions = np.frombuffer(payload, "<i4", m).copy()
        positions[0] = value
        return frame(header, positions.tobytes() + payload[4 * m:])
    return case


def with_weight(value):
    def case(header, payload, m):
        weights = np.frombuffer(payload, "<f8", m, 4 * m).copy()
        weights[-1] = value
        return frame(header, payload[:4 * m] + weights.tobytes())
    return case


def reversed_columns(header):
    for column in header["chunks"].values():
        column.reverse()


def rows(header):
    columns = header["chunks"]
    header["chunks"] = [dict(zip(columns, row)) for row in zip(*columns.values())]


V2_CASES = {
    "magic": lambda h, p, m: frame(h, p, magic=b"ESAPLEX9"),
    "gzip-json-body": lambda h, p, m: gzip.compress(json.dumps(h).encode("utf-8")),
    "header-past-the-end": lambda h, p, m: LEXICAL_MAGIC + (1 << 40).to_bytes(8, "little"),
    "truncated-length": lambda h, p, m: LEXICAL_MAGIC + b"\x01\x00",
    "header-not-json": lambda h, p, m: frame(b"{not json", p),
    "header-array": lambda h, p, m: frame(b"[]", p),
    "header-nan": lambda h, p, m: frame(b'{"avgdl": NaN}', p),
    "chunks-as-rows": edited(rows),
    "no-token_span": edited(lambda h: h["chunks"].pop("token_span")),
    "short-column": edited(lambda h: h["chunks"]["text"].pop()),
    "text-not-a-string": edited(lambda h: operator.setitem(h["chunks"]["text"], 0, 5)),
    "version-bool": edited(lambda h: operator.setitem(h["chunks"]["version"], 0, True)),
    "span-of-three": edited(lambda h: operator.setitem(h["chunks"]["token_span"], 0, [0, 1, 2])),
    "span-of-strings": edited(lambda h: operator.setitem(h["chunks"]["token_span"], 0, ["0", "1"])),
    "ids-descending": edited(reversed_columns),
    "id-repeated": edited(lambda h: operator.setitem(h["chunks"]["chunk_id"], 1,
                                                     h["chunks"]["chunk_id"][0])),
    "doc_acl-string": edited(lambda h: h.update(doc_acl="x")),
    "doc_acl-entry-string": edited(lambda h: h.update(doc_acl={"fruit-apple": "alice"})),
    "vocab-not-strings": edited(lambda h: operator.setitem(h["vocab"], 0, 1)),
    "vocab-repeats": edited(lambda h: operator.setitem(h["vocab"], 1, h["vocab"][0])),
    "bounds-from-1": edited(lambda h: operator.setitem(h["bounds"], 0, 1)),
    "bounds-decrease": edited(lambda h: operator.setitem(h["bounds"], 1, h["bounds"][2] + 1)),
    "bounds-too-long": edited(lambda h: h["bounds"].append(h["bounds"][-1])),
    "bounds-float": edited(lambda h: operator.setitem(h["bounds"], 1, float(h["bounds"][1]))),
    "avgdl-missing": edited(lambda h: h.pop("avgdl")),
    "avgdl-string": edited(lambda h: h.update(avgdl="7.5")),
    "payload-short": lambda h, p, m: frame(h, p[:-1]),
    "payload-long": lambda h, p, m: frame(h, p + bytes(12)),
    "position-negative": with_position(-1),
    "position-past-the-end": with_position(10_000),
    "weight-nan": with_weight(np.nan),
    "weight-inf": with_weight(np.inf),
}


@pytest.mark.parametrize("case", [pytest.param(case, id=name) for name, case in V2_CASES.items()])
def test_a_malformed_format_2_lexical_file_is_corrupt_index(tmp_path, case):
    index_dir = save_hybrid(build_index(), tmp_path)
    data = (index_dir / "lexical.bin").read_bytes()
    start = len(LEXICAL_MAGIC) + 8
    end = start + int.from_bytes(data[len(LEXICAL_MAGIC):start], "little")
    header, payload = json.loads(data[start:end]), data[end:]
    assert frame(header, payload) == data
    replace_data_file(index_dir, "lexical.bin", case(header, payload, header["bounds"][-1]))
    with pytest.raises(CorruptIndex, match="lexical.bin") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


@pytest.mark.parametrize("name", ["lexical.bin", "dense.bin"])
def test_a_missing_data_file_is_corrupt_index(tmp_path, name):
    index_dir = save_hybrid(build_index(), tmp_path)
    (index_dir / name).unlink()
    with pytest.raises(CorruptIndex, match=f"missing index file {name}") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


def without(key):
    return lambda h, p: frame({k: v for k, v in h.items() if k != key}, p, DENSE_MAGIC)


DENSE_CASES = {
    "magic": lambda h, p: frame(h, p, magic=b"ESAPDNS9"),
    "no-n": without("n"),
    "no-dim": without("dim"),
    "n-not-a-number": lambda h, p: frame({**h, "n": "many"}, p, DENSE_MAGIC),
    "payload-short": lambda h, p: frame(h, p[:-4], DENSE_MAGIC),
    "payload-long": lambda h, p: frame(h, p + bytes(4), DENSE_MAGIC),
    "payload-of-another-dim": lambda h, p: frame({**h, "dim": h["dim"] - 1}, p, DENSE_MAGIC),
}


@pytest.mark.parametrize("case", [pytest.param(case, id=name) for name, case in DENSE_CASES.items()])
def test_a_malformed_dense_file_is_corrupt_index(tmp_path, case):
    index_dir = save_hybrid(build_index(), tmp_path)
    data = (index_dir / "dense.bin").read_bytes()
    start = len(DENSE_MAGIC) + 8
    end = start + int.from_bytes(data[len(DENSE_MAGIC):start], "little")
    header, payload = json.loads(data[start:end]), data[end:]
    assert frame(header, payload, DENSE_MAGIC) == data
    replace_data_file(index_dir, "dense.bin", case(header, payload))
    with pytest.raises(CorruptIndex, match="dense.bin") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


def saved_digests(index, kb: Path) -> dict[str, str]:
    out = save_hybrid(index, kb)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("meta.json", "lexical.bin", "dense.bin")}


@pytest.mark.parametrize("unicode", [False, True])
def test_term_id_build_saves_the_text_port_build(tmp_path, unicode):
    # HashingEmbedder is given the build's term ids; the same embedder
    # wrapped in a plain function is given the chunk texts
    docs = make_toy_kb_documents()
    if unicode:
        docs = [Document(doc_id=d.doc_id, version=1,
                         text=d.text.replace("a", "ä").replace("e", "É") + " İstanbul straße",
                         acl=d.acl)
                for d in docs]
    chunks = [c for doc in docs for c in chunk_document(doc, size=20, overlap=5)]
    acl = {doc.doc_id: sorted(doc.acl) for doc in docs}
    params = HybridParams(chunk_size=20, chunk_overlap=5)
    embedder = HashingEmbedder()
    by_ids = build_hybrid(chunks, embedder, acl, params)
    by_texts = build_hybrid(chunks, lambda texts: embedder(texts), acl, params)
    assert saved_digests(by_ids, tmp_path / "ids") == \
           saved_digests(by_texts, tmp_path / "texts")


def test_toy_index_files_keep_their_recorded_digests(tmp_path, toy_index):
    # dense.bin recorded before the build tokenized once; lexical.bin
    # recorded when format 2 stored the BM25 columns
    digests = saved_digests(toy_index, tmp_path)
    assert digests["dense.bin"] == \
        "d431a815b04c33446304b924b925d02cf6b2b1de7fbb23bbc0d52a548fcda27e"
    assert digests["lexical.bin"] == \
        "ca09ec4d8bee2bbe1a42af2e5767be3d337bac4c0388feef297b56a4e7842a32"
