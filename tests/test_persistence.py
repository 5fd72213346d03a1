from __future__ import annotations

import builtins
import gzip
import hashlib
import io
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from esap.corpus import chunk_document
from esap.dense import search_dense
from esap.errors import CorruptIndex, FormatVersionMismatch
from esap.hybrid import (
    DENSE_MAGIC,
    HybridParams,
    build_hybrid,
    load_hybrid,
    save_hybrid,
    search_hybrid,
)
from esap.lexical import LexicalIndex
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts, make_toy_kb_documents
from esap.tokenizer import token_texts
from esap.corpus import Document


def build_index(ann_mode: str = "auto", **bm25):
    docs = make_toy_kb_documents()
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=30, overlap=5))
    params = HybridParams(chunk_size=30, chunk_overlap=5, **bm25)
    params.ann.mode = ann_mode
    return build_hybrid(chunks, HashingEmbedder(),
                        {doc.doc_id: ["*"] for doc in docs}, params)


def assert_same_lexical(a: LexicalIndex, b: LexicalIndex) -> None:
    # dataclass == would compare the numpy arrays elementwise and raise
    assert (a.chunk_ids, a.postings, a.n_chunks, a.avgdl, a.k1, a.b) == \
           (b.chunk_ids, b.postings, b.n_chunks, b.avgdl, b.k1, b.b)
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


def test_lexical_file_from_earlier_builds_is_served(tmp_path):
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    embed = HashingEmbedder()
    queries = ("red apple", "shipping cherries", "refund policy")
    fresh = [search_hybrid(load_hybrid(tmp_path), q, embed, k=4) for q in queries]

    # earlier builds also stored the BM25 postings as [chunk_id, tf] pairs,
    # the chunk lengths and k1/b
    lexical_path = index_dir / "lexical.bin"
    payload = json.loads(gzip.decompress(lexical_path.read_bytes()))
    assert set(payload) == {"chunks", "doc_acl"}
    postings: dict[str, list[list]] = {}
    chunk_lengths: dict[str, int] = {}
    for row in payload["chunks"]:
        terms = token_texts(row["text"])
        chunk_lengths[row["chunk_id"]] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append([row["chunk_id"], tf])
    payload.update(postings=postings, chunk_lengths=chunk_lengths,
                   k1=index.lexical.k1, b=index.lexical.b)
    lexical_path.write_bytes(gzip.compress(json.dumps(payload).encode("utf-8")))
    meta_path = index_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"]["lexical.bin"] = hashlib.sha256(lexical_path.read_bytes()).hexdigest()
    meta_path.write_text(json.dumps(meta))

    loaded = load_hybrid(tmp_path)
    assert_same_lexical(loaded.lexical, index.lexical)
    assert [search_hybrid(loaded, q, embed, k=4) for q in queries] == fresh


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
        dense_path = index_dir / "dense.bin"
        dense_path.write_bytes(DENSE_MAGIC + len(header).to_bytes(8, "little")
                               + header + vectors.tobytes())
        meta_path = index_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["checksums"]["dense.bin"] = hashlib.sha256(dense_path.read_bytes()).hexdigest()
        meta_path.write_text(json.dumps(meta))

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


def test_format_version_gate(tmp_path):
    save_hybrid(build_index(), tmp_path)
    meta_path = tmp_path / "index" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(FormatVersionMismatch):
        load_hybrid(tmp_path)


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

# tests/data/index_v1 holds the toy kb chunked 30/5 with this ACL, as
# save_hybrid wrote it at format 1 before files were built in memory
# (commit 6441e08)
INDEX_V1 = Path(__file__).parent / "data" / "index_v1"
INDEX_V1_ACL = {"fruit-cherry": ["bob"], "policy-returns": ["alice", "bob"]}


def test_index_saved_by_earlier_code_serves_the_same_hits(tmp_path):
    shutil.copytree(INDEX_V1, tmp_path, dirs_exist_ok=True)
    loaded = load_hybrid(tmp_path)
    docs = make_toy_kb_documents()
    fresh = build_hybrid([c for d in docs for c in chunk_document(d, size=30, overlap=5)],
                         HashingEmbedder(),
                         {d.doc_id: INDEX_V1_ACL.get(d.doc_id, ["*"]) for d in docs},
                         HybridParams(chunk_size=30, chunk_overlap=5))
    assert (loaded.chunks, loaded.doc_acl) == (fresh.chunks, fresh.doc_acl)
    embed = HashingEmbedder()
    for query in ("red apple", "shipping cherries", "refund policy", "zzz"):
        for principal in ("*", "alice", "bob", "carol"):
            a = search_hybrid(loaded, query, embed, k=5, principal=principal)
            b = search_hybrid(fresh, query, embed, k=5, principal=principal)
            assert [(h.chunk_id, h.score, h.text) for h in a] == \
                   [(h.chunk_id, h.score, h.text) for h in b], (query, principal)


def test_a_file_swapped_after_it_is_read_is_never_served(tmp_path, monkeypatch):
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    # well-formed files of another index: other texts, other vectors
    lexical = json.loads(gzip.decompress((index_dir / "lexical.bin").read_bytes()))
    for row in lexical["chunks"]:
        row["text"] = "swapped " + row["text"]
    swaps = {"lexical.bin": gzip.compress(json.dumps(lexical).encode("utf-8"))}
    blob = (index_dir / "dense.bin").read_bytes()
    size = index.dense.vectors.nbytes
    swaps["dense.bin"] = blob[:-size] + (-index.dense.vectors).tobytes()
    for name, data in swaps.items():
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
