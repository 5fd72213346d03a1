from __future__ import annotations

import builtins
import errno
import gzip
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esap import hybrid, lexical, tokenizer
from esap.corpus import Chunk, Document, chunk_document
from esap.dense import AnnParams
from esap.errors import CorruptIndex, DataError, FormatVersionMismatch
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


def read_index(index_dir: Path) -> tuple[dict, dict[str, bytes]]:
    """index.bin's head and its parts, by name, in file order."""
    line, rest = (index_dir / "index.bin").read_bytes().split(b"\n", 1)
    head = json.loads(line)
    size = head["parts"]["lexical"]["bytes"]
    return head, {"lexical": rest[:size], "dense": rest[size:]}


def write_index(index_dir: Path, head: dict, parts: dict[str, bytes], record=True) -> None:
    """index.bin from a head and parts; ``record`` writes each part's length
    and sha256 into the head first, so only what the caller edited is wrong."""
    if record:
        head["parts"] = {name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                         for name, data in parts.items()}
    (index_dir / "index.bin").write_bytes(
        json.dumps(head).encode("utf-8") + b"\n" + b"".join(parts.values()))


def replace_part(index_dir: Path, name: str, data: bytes) -> None:
    """index.bin with part ``name`` replaced, its length and sha256 recorded."""
    head, parts = read_index(index_dir)
    write_index(index_dir, head, {**parts, name: data})


def edit_head(index_dir: Path, edit) -> None:
    """index.bin with its head edited by ``edit(head)``, the parts as they were."""
    head, parts = read_index(index_dir)
    edit(head)
    write_index(index_dir, head, parts, record=False)


def assert_same_hits(a, b, k: int = 5, queries=QUERIES) -> None:
    embed = HashingEmbedder()
    for query in queries:
        for principal in PRINCIPALS:
            hits_a = search_hybrid(a, query, embed, k=k, principal=principal)
            hits_b = search_hybrid(b, query, embed, k=k, principal=principal)
            assert [(h.chunk_id, h.score, h.text) for h in hits_a] == \
                   [(h.chunk_id, h.score, h.text) for h in hits_b], (query, principal)


def assert_same_lexical(a: LexicalIndex, b: LexicalIndex) -> None:
    # dataclass == would compare the numpy arrays elementwise and raise
    assert (a.chunk_ids, a.postings, a.bounds.tolist(), a.n_chunks, a.avgdl, a.k1, a.b) == \
           (b.chunk_ids, b.postings, b.bounds.tolist(), b.n_chunks, b.avgdl, b.k1, b.b)
    for x, y in ((a.positions, b.positions), (a.tf, b.tf), (a.weights, b.weights)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


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


# words with ASCII, Latin-1, wider and case-changing letters; ids and doc_ids
# take their prefixes from the same mix
WORDS = ("apple", "Basket", "x1", "straße", "İstanbul", "ünïcode", "日本語", "naïve", "ÉTÉ",
         "42", "zz")
SEPARATORS = (" ", ", ", "\n", " — ", "\t")


def random_chunks(rng: np.random.Generator, n: int) -> list[Chunk]:
    """n chunks of random ids, documents, spans and texts of up to 30 words;
    some texts hold no token at all."""
    chunks = []
    for i in range(n):
        words = rng.choice(WORDS, size=int(rng.integers(0, 31))).tolist()
        text = "".join(w + str(rng.choice(SEPARATORS)) for w in words)
        if rng.random() < 0.1:
            text = rng.choice(["", "— !", "  \n"])
        start = int(rng.integers(0, 1000))
        chunks.append(Chunk(chunk_id=f"{rng.choice(['c', 'ü', '文書', 'Z'])}-{i:03d}",
                            doc_id=str(rng.choice(["doc-a", "dök-b", "文書-c", "d"])),
                            version=int(rng.integers(1, 5)),
                            token_span=(start, start + len(words)),
                            text=text, size_tokens=len(words)))
    return chunks


@pytest.mark.parametrize("seed, max_tf, tf_type", [(0, 255, "u1"), (1, 256, "u2"),
                                                   (2, 65535, "u2"), (3, 65536, "u4")])
def test_a_saved_index_loads_back_equal_to_the_built_one(tmp_path, seed, max_tf, tf_type):
    rng = np.random.default_rng(seed)
    # one chunk repeats a term max_tf times; no other term comes close
    chunks = [*random_chunks(rng, 60),
              Chunk(chunk_id="tf-max", doc_id="d", version=1, token_span=(0, max_tf),
                    text="ä " * max_tf + "apple", size_tokens=max_tf + 1),
              Chunk(chunk_id="tf-none", doc_id="d", version=2, token_span=(0, 0),
                    text="", size_tokens=0)]
    doc_acl = {"doc-a": ["alice"], "dök-b": ["bob", "alice"], "文書-c": ["*"]}
    index = build_hybrid(chunks, HashingEmbedder(), doc_acl,
                         HybridParams(k1=float(rng.uniform(0.5, 2.0)),
                                      b=float(rng.uniform(0.0, 1.0))))
    assert index.lexical.tf.dtype == np.dtype(tf_type)
    assert int(index.lexical.tf.max()) == max_tf
    save_hybrid(index, tmp_path)
    loaded = load_hybrid(tmp_path)
    assert_same_lexical(loaded.lexical, index.lexical)
    assert list(loaded.chunks.items()) == list(index.chunks.items())
    # the chunk table reads as a read-only mapping chunk_id -> Chunk, ids
    # with non-ASCII letters among them
    assert any(not cid.isascii() for cid in index.chunks)
    for table in (index.chunks, loaded.chunks):
        assert dict(table.items()) == {c.chunk_id: c for c in chunks}
        for missing in ("", "c-", "tf-maxx", "zzz", "ü-9999", chunks[0].chunk_id + " ", 5, None):
            assert missing not in table
            with pytest.raises(KeyError):
                table[missing]
        with pytest.raises(TypeError):
            table["tf-max"] = chunks[-1]
    assert loaded.doc_acl == doc_acl
    queries = ["ä apple", *(" ".join(rng.choice(WORDS, size=3)) for _ in range(20))]
    assert_same_hits(loaded, index, k=8, queries=queries)


# 8-byte words, longer ones that share their first 8 or 16 bytes, and the
# Kelvin sign and "İ", whose lowering leaves or stays outside ASCII
VOCAB_WORDS = ("basketba", "basketball", "basketbell", "abcdefghijklmnopqrst",
               "abcdefghijklmnopqrsu", "abcdefghijklmnopqrstuvwxyz", "Kelvin\u212a", "İ",
               "İstanbulİstanbul", "12345678")
# tokens no corpus holds: long ones that share a prefix with a term, and others
ABSENT_TOKENS = ("basketballs", "abcdefghijklmnopqrsz", "abcdefghijklmnopqrstuvwxyy", "İİ",
                 "kelvin", "qqq")


@pytest.mark.parametrize("seed", range(4))
def test_a_loaded_vocabulary_finds_the_rows_the_built_one_does(tmp_path, seed):
    rng = np.random.default_rng(seed)
    words = WORDS + VOCAB_WORDS
    chunks = [Chunk(chunk_id=f"c{i:03d}", doc_id="d", version=1, token_span=(0, 0),
                    text=" ".join(rng.choice(words, size=int(rng.integers(0, 12)))),
                    size_tokens=0) for i in range(40)]
    index = build_hybrid(chunks, HashingEmbedder(), {"d": ["*"]})
    save_hybrid(index, tmp_path)
    loaded = load_hybrid(tmp_path)
    built, read = index.lexical.postings, loaded.lexical.postings
    assert read == built and list(read.items()) == list(built.items())
    assert read.data == built.data
    for name in ("offsets", "sorted_keys", "key_rows"):
        assert getattr(read, name).tobytes() == getattr(built, name).tobytes(), name
    mask = np.arange(len(chunks)) % 3 != 0
    # repeated, unknown, long and non-ASCII tokens, alone and mixed
    queries = ["apple apple APPLE", "qqq zzz", "basketballs basketball basketball",
               "abcdefghijklmnopqrsz abcdefghijklmnopqrst",
               "İstanbul kelvin Kelvin\u212a straße", "日本語 日本語 İ", *(" ".join(rng.choice(words + ABSENT_TOKENS, size=5))
                                     for _ in range(30))]
    for query in queries:
        for allowed in (None, mask):
            want = lexical._candidates(index.lexical, query, allowed)
            got = lexical._candidates(loaded.lexical, query, allowed)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], query


@pytest.mark.parametrize("n", [1, 7, 60])
def test_a_load_serves_the_vector_rows_in_place(tmp_path, n):
    # the rows are a read-only, aligned view of the verified dense part,
    # equal to the built ones; no row is copied
    index = build_hybrid(random_chunks(np.random.default_rng(n), n), HashingEmbedder(), {},
                         HybridParams())
    save_hybrid(index, tmp_path)
    vectors = load_hybrid(tmp_path).dense.vectors
    assert vectors.dtype == np.float32 and vectors.shape == index.dense.vectors.shape
    assert np.array_equal(vectors, index.dense.vectors)
    assert not vectors.flags.writeable
    assert vectors.flags.aligned
    assert not vectors.flags.owndata


def test_a_load_serves_one_dimension_major_copy_of_the_file_bytes(tmp_path):
    # columns is a read-only, aligned view of the verified dense part past
    # the magic, read into a buffer of its own, and vectors a view of columns
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    loaded = load_hybrid(tmp_path).dense
    columns = loaded.columns
    assert columns.shape == (index.dense.dim, index.n_chunks)
    assert columns.flags.c_contiguous and columns.flags.aligned
    assert not columns.flags.writeable and not columns.flags.owndata
    base = columns
    while isinstance(base, np.ndarray):
        base = base.base
    assert base.obj == read_index(index_dir)[1]["dense"]
    assert columns.tobytes() == base.obj[len(DENSE_MAGIC):]
    assert np.shares_memory(loaded.vectors, loaded.columns)


# values a build must refuse or save and load back as they are: ints at and
# past the <i8 limits, strings, bools, floats, spans of other shapes, lone
# surrogates (and a valid non-BMP letter) and ACLs of every shape
FIELD_VALUES = {
    "chunk_id": ["a\ud800", "\udfff", "ok-😀", 5, None],
    "doc_id": ["d\ud800", "😀", 3],
    "text": ["one \udc00 two", "😀 apple", b"bytes"],
    "version": [2**70, 2**63 - 1, 2**63, -2**63, -2**63 - 1, "1", True, 1.0, 0],
    "token_span": [(0.5, 1), (0, 2**63), (-2**63, 2**63 - 1), (0, 1, 2), (0,), [0, 1],
                   (False, 1), ("0", "1")],
    "size_tokens": [2**64, -1, 2**63 - 1, "3", 2.0],
}
ACL_VALUES = [{"*"}, ("alice",), ["alice", 5], [5], "alice", ["b\udfff"], [], ["😀", "*"], None]


def test_a_build_refuses_what_a_load_would_not_give_back(tmp_path):
    # random chunk lists mixing every shape: the build refuses the list as
    # DataError, or a save and a load give back an equal index
    rng = np.random.default_rng(11)
    outcomes = Counter()
    for trial in range(60):
        chunks = random_chunks(rng, int(rng.integers(1, 6)))
        for _ in range(int(rng.integers(0, 3))):
            i, name = int(rng.integers(len(chunks))), str(rng.choice(list(FIELD_VALUES)))
            values = FIELD_VALUES[name]
            chunks[i] = replace(chunks[i], **{name: values[int(rng.integers(len(values)))]})
        if rng.random() < 0.1:
            chunks.append(replace(chunks[0], text="again"))
        doc_acl = {"doc-a": ["alice"]}
        if rng.random() < 0.4:
            acl = ACL_VALUES[int(rng.integers(len(ACL_VALUES)))]
            doc_acl[str(rng.choice(["doc-a", "d", "\ud800", "文書-c"]))] = acl
        if rng.random() < 0.05:
            doc_acl = {7: ["alice"]}
        try:
            index = build_hybrid(chunks, HashingEmbedder(), doc_acl, HybridParams())
        except DataError as exc:
            assert exc.exit_code == 2
            str(exc).encode("utf-8")         # the message prints as the CLI does
            outcomes["refused"] += 1
            continue
        kb = tmp_path / str(trial)
        save_hybrid(index, kb)
        loaded = load_hybrid(kb)
        assert list(loaded.chunks.values()) == sorted(chunks, key=lambda c: c.chunk_id)
        assert loaded.doc_acl == doc_acl
        assert np.array_equal(loaded.dense.vectors, index.dense.vectors)
        assert_same_lexical(loaded.lexical, index.lexical)
        outcomes["kept"] += 1
    assert outcomes["refused"] > 10 and outcomes["kept"] > 10, outcomes


@pytest.mark.parametrize("name, value, message", [
    ("version", 2**70, "version must be an int within <i8"),
    ("version", "1", "version must be an int within <i8"),
    ("token_span", (0.5, 1), "token_span must be a pair of ints within <i8"),
    ("chunk_id", "c\ud800", "chunk_id must be a string UTF-8 can encode"),
    ("text", "x \udfff", "text must be a string UTF-8 can encode"),
], ids=["version-2**70", "version-string", "span-float", "id-surrogate", "text-surrogate"])
def test_a_chunk_field_a_save_cannot_write_is_data_error_naming_it(tmp_path, name, value,
                                                                   message):
    chunks = random_chunks(np.random.default_rng(0), 3)
    chunks[1] = replace(chunks[1], **{name: value})
    with pytest.raises(DataError) as refused:
        build_hybrid(chunks, HashingEmbedder(), {}, HybridParams())
    assert str(refused.value) == f"chunk {chunks[1].chunk_id!r}: {message}"


@pytest.mark.parametrize("acl", [{"*"}, [5], ["b\udfff"]], ids=["set", "int", "surrogate"])
def test_an_acl_a_save_cannot_write_is_data_error_naming_the_document(acl):
    chunks = random_chunks(np.random.default_rng(0), 3)
    with pytest.raises(DataError, match="document 'd': its ACL must be a list of strings"):
        build_hybrid(chunks, HashingEmbedder(), {"doc-a": ["*"], "d": acl}, HybridParams())


def test_save_is_byte_deterministic(tmp_path):
    index = build_index()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    save_hybrid(index, dir_a)
    save_hybrid(build_index(), dir_b)
    assert (dir_a / "index" / "index.bin").read_bytes() == \
           (dir_b / "index" / "index.bin").read_bytes()


def test_meta_keys_are_fixed(tmp_path):
    # one file, its head first: the settings and each part's length and sha256
    index_dir = save_hybrid(build_index(), tmp_path)
    assert [p.name for p in index_dir.iterdir()] == ["index.bin"]
    head, parts = read_index(index_dir)
    assert list(head) == ["format_version", "dim", "k1", "b", "rrf_c", "ann", "chunk", "parts"]
    assert head["format_version"] == 6
    assert {"m", "ef_c", "ef_s"} <= set(head["ann"])
    assert set(head["chunk"]) == {"size", "overlap"}
    assert list(head["parts"]) == list(parts) == ["lexical", "dense"]
    for name, data in parts.items():
        assert head["parts"][name] == {"bytes": len(data),
                                       "sha256": hashlib.sha256(data).hexdigest()}


def test_a_save_removes_the_files_of_format_5(tmp_path):
    index_dir = tmp_path / "index"
    index_dir.mkdir()
    for name in ("meta.json", "lexical.bin", "dense.bin"):
        (index_dir / name).write_bytes(b"format 5")
    save_hybrid(build_index(), tmp_path)
    assert [p.name for p in index_dir.iterdir()] == ["index.bin"]


def test_a_save_writes_the_head_types_a_load_reads(tmp_path):
    # settings given as other numbers are written as the head's types, so a
    # load reads what a save wrote rather than refuse it as mistyped
    index = replace(build_index(), params=HybridParams(k1=1, b=1, rrf_c=60.0,
                                                       chunk_size=np.int64(30),
                                                       chunk_overlap=5.0,
                                                       ann=AnnParams(m=16.0,
                                                                     seed=np.int64(7))))
    save_hybrid(index, tmp_path)
    loaded = load_hybrid(tmp_path).params
    assert loaded == HybridParams(k1=1.0, b=1.0, rrf_c=60, chunk_size=30, chunk_overlap=5,
                                  ann=AnnParams(m=16, seed=7))
    assert [type(value) for value in (loaded.k1, loaded.rrf_c, loaded.chunk_size)] == \
        [float, int, int]


def flipped(data: bytes, at: int) -> bytes:
    """``data`` with the byte at ``at`` inverted."""
    edited = bytearray(data)
    edited[at] ^= 0xFF
    return bytes(edited)


def test_corruption_detected(tmp_path):
    index_dir = save_hybrid(build_index(), tmp_path)
    target = index_dir / "index.bin"
    target.write_bytes(flipped(target.read_bytes(), -1))
    with pytest.raises(CorruptIndex, match="checksum mismatch for the dense part"):
        load_hybrid(tmp_path)


def test_lexical_corruption_detected(tmp_path):
    index_dir = save_hybrid(build_index(), tmp_path)
    target = index_dir / "index.bin"
    data = target.read_bytes()
    target.write_bytes(flipped(data, data.index(b"\n") + 11))
    with pytest.raises(CorruptIndex, match="checksum mismatch for the lexical part"):
        load_hybrid(tmp_path)


# a head saying each version, and a directory of formats 1 to 5, which held
# meta.json beside its data files
FORMAT_CASES = [
    *(pytest.param("head", version, id=f"head-{name}") for name, version in [
        ("999", 999), ("str-3", "3"), ("True", True), ("1.0", 1.0), ("None", None),
        ("0", 0), ("2.0", 2.0), ("str-2", "2"), ("int-3", 3)]),
    *(pytest.param("meta.json", version, id=f"meta.json-{version}") for version in range(1, 6)),
]


@pytest.mark.parametrize("where, version", FORMAT_CASES)
def test_an_index_of_another_format_is_refused(tmp_path, where, version):
    # the index is derived from the kb, so the remedy is to rebuild it
    if where == "head":
        edit_head(save_hybrid(build_index(), tmp_path),
                  lambda head: head.update(format_version=version))
    else:
        (tmp_path / "index").mkdir()
        (tmp_path / "index" / "meta.json").write_text(json.dumps({"format_version": version}))
    with pytest.raises(FormatVersionMismatch) as refused:
        load_hybrid(tmp_path)
    assert str(refused.value) == \
        f"index format {version!r} unsupported, expected 6; run `esap index` to rebuild it"
    assert refused.value.exit_code == 2


def test_missing_index_dir(tmp_path):
    with pytest.raises(CorruptIndex):
        load_hybrid(tmp_path / "nowhere")


def test_queries_do_not_mutate_index(tmp_path):
    index = build_index()
    index_file = save_hybrid(index, tmp_path) / "index.bin"
    before = index_file.read_bytes()
    embed = HashingEmbedder()
    for query in ("apple", "banana", "return policy", "zzz"):
        search_hybrid(index, query, embed, k=3)
    save_hybrid(index, tmp_path)
    assert index_file.read_bytes() == before


# ---------------------------------------------------------------------------
# one read per part: the bytes parsed are the bytes verified
# ---------------------------------------------------------------------------

def test_a_format_2_load_tokenizes_nothing_and_builds_no_bm25(tmp_path, monkeypatch):
    index = build_index()
    save_hybrid(index, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a load tokenized or rebuilt BM25")

    with monkeypatch.context() as patch:
        for module in (tokenizer, lexical, hybrid):
            for name in ("term_ids", "token_texts", "token_spans", "token_edges",
                         "_blocks", "_line", "_fold", "_token_keys", "_unique",
                         "build_lexical"):
                if hasattr(module, name):
                    patch.setattr(module, name, refuse)
        loaded = load_hybrid(tmp_path)
    assert_same_lexical(loaded.lexical, index.lexical)
    assert loaded.chunks == index.chunks
    assert_same_hits(loaded, index)


def test_a_file_swapped_after_it_is_read_is_never_served(tmp_path, monkeypatch):
    # index.bin is opened once: another one renamed over it after that open
    # changes nothing the load reads, and the next load reads the new one whole
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    other = build_index([replace(d, text="swapped " + d.text)
                         for d in make_toy_kb_documents()])
    other_file = save_hybrid(other, tmp_path / "other") / "index.bin"
    assert other.chunks != index.chunks

    opened: Counter = Counter()
    real_open = io.open

    def swapping_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == index_dir:
            opened[Path(file).name] += 1
            os.replace(other_file, index_dir / "index.bin")
        return fh

    monkeypatch.setattr(builtins, "open", swapping_open)
    monkeypatch.setattr(io, "open", swapping_open)
    loaded = load_hybrid(tmp_path)
    monkeypatch.undo()

    assert loaded.chunks == index.chunks
    assert np.array_equal(loaded.dense.vectors, index.dense.vectors)
    assert opened == {"index.bin": 1}
    swapped = load_hybrid(tmp_path)
    assert swapped.chunks == other.chunks
    assert np.array_equal(swapped.dense.vectors, other.dense.vectors)


# saves the index under argv[1] and the one under argv[2] in turn under
# argv[3] for argv[4] seconds; prints a line once the first save is in place
ALTERNATING_WRITER = """
import sys, time
from esap.hybrid import load_hybrid, save_hybrid
indexes = [load_hybrid(sys.argv[1]), load_hybrid(sys.argv[2])]
save_hybrid(indexes[0], sys.argv[3])
print("saved", flush=True)
deadline, saves = time.monotonic() + float(sys.argv[4]), 1
while time.monotonic() < deadline:
    save_hybrid(indexes[saves % 2], sys.argv[3])
    saves += 1
"""


def test_a_load_while_another_process_saves_reads_one_index_whole(tmp_path):
    a = build_index()
    b = build_index([replace(d, text="swapped " + d.text) for d in make_toy_kb_documents()])
    save_hybrid(a, tmp_path / "a")
    save_hybrid(b, tmp_path / "b")
    seen: Counter = Counter()
    with subprocess.Popen([sys.executable, "-c", ALTERNATING_WRITER, str(tmp_path / "a"),
                           str(tmp_path / "b"), str(tmp_path / "kb"), "2"],
                          stdout=subprocess.PIPE, text=True) as writer:
        assert writer.stdout.readline() == "saved\n"
        while writer.poll() is None:
            loaded = load_hybrid(tmp_path / "kb")
            name, expected = ("a", a) if loaded.chunks == a.chunks else ("b", b)
            assert loaded.chunks == expected.chunks
            assert loaded.doc_acl == expected.doc_acl
            assert np.array_equal(loaded.dense.columns, expected.dense.columns)
            seen[name] += 1
    assert writer.wait(timeout=10) == 0
    assert seen["a"] and seen["b"]
    assert [p.name for p in (tmp_path / "kb" / "index").iterdir()] == ["index.bin"]


def test_a_save_that_fails_partway_leaves_the_previous_index(tmp_path, monkeypatch):
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    before = (index_dir / "index.bin").read_bytes()
    other = build_index([replace(d, text="swapped " + d.text) for d in make_toy_kb_documents()])
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        # a file opened for writing takes two writes, then the disk is full
        fh = real_open(file, mode, *args, **kwargs)
        if "r" not in mode:
            real_write, writes = fh.write, Counter()

            def write(data):
                writes["n"] += 1
                if writes["n"] > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_write(data)
            fh.write = write
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError, match="No space left on device"):
        save_hybrid(other, tmp_path)
    monkeypatch.undo()

    assert [p.name for p in index_dir.iterdir()] == ["index.bin"]
    assert (index_dir / "index.bin").read_bytes() == before
    loaded = load_hybrid(tmp_path)
    assert loaded.chunks == index.chunks
    assert loaded.doc_acl == index.doc_acl
    assert np.array_equal(loaded.dense.columns, index.dense.columns)


# None deletes the key
@pytest.mark.parametrize("key, value", [
    ("k1", None), ("b", None), ("rrf_c", None), ("ann", None), ("chunk", None),
    ("parts", None),
    ("k1", "high"), ("b", [0.75]), ("rrf_c", "sixty"), ("ann", []),
    ("ann", {"m": 16}), ("ann", {"m": "x", "ef_c": 1, "ef_s": 1,
                                 "exact_threshold": 1, "mode": "auto", "seed": 1}),
    ("chunk", 5), ("chunk", {"size": 30}), ("parts", 5), ("parts", "x"),
    ("dim", None), ("dim", "x"), ("dim", -1),
    # values of a type a save never writes (a bool is not a number), or a key it never writes
    pytest.param("k1", "1.2", id="k1-str-1.2"),
    pytest.param("b", True, id="b-True"),
    pytest.param("rrf_c", 60.9, id="rrf_c-60.9"),
    pytest.param("rrf_c", "60", id="rrf_c-str-60"),
    pytest.param("chunk", {"size": "30", "overlap": 5}, id="chunk-size-str-30"),
    pytest.param("k1", 1, id="k1-int-1"),
    pytest.param("ann", {"m": 16.0, "ef_c": 200, "ef_s": 128, "exact_threshold": 5000,
                         "mode": "auto", "seed": 42}, id="ann-m-16.0"),
    pytest.param("extra", 1, id="extra-key"),
    # a part without its sha256, with one that is no string, or of a negative length
    pytest.param("parts", {"lexical": {"bytes": 1}, "dense": {"bytes": 1, "sha256": "0"}},
                 id="parts-lexical-without-sha256"),
    pytest.param("parts", {"lexical": {"bytes": 1, "sha256": "0"}, "dense": {"bytes": 1}},
                 id="parts-dense-without-sha256"),
    pytest.param("parts", {"lexical": {"bytes": 1}, "dense": {"bytes": 1}},
                 id="parts-without-sha256"),
    pytest.param("parts", {"lexical": {"bytes": 1, "sha256": 0},
                           "dense": {"bytes": 1, "sha256": "0"}}, id="parts-sha256-int"),
    pytest.param("parts", {"lexical": {"bytes": -1, "sha256": "0"},
                           "dense": {"bytes": 1, "sha256": "0"}}, id="parts-bytes-negative"),
])
def test_a_missing_or_mistyped_meta_key_is_corrupt_index(tmp_path, key, value):
    index_dir = save_hybrid(build_index(), tmp_path)
    edit_head(index_dir, lambda head: head.pop(key) if value is None else head.update({key: value}))
    with pytest.raises(CorruptIndex, match="bad head in index.bin") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


@pytest.mark.parametrize("cut", [
    pytest.param(lambda data: None, id="missing"),
    pytest.param(lambda data: b"", id="empty"),
    pytest.param(lambda data: data[:data.index(b"\n") // 2], id="cut-in-the-head"),
    pytest.param(lambda data: data[:data.index(b"\n") + 1], id="head-only"),
    pytest.param(lambda data: data[:-1], id="truncated"),
    pytest.param(lambda data: data + b"\0", id="trailing-bytes"),
])
def test_an_index_file_missing_cut_or_extended_is_corrupt_index(tmp_path, cut):
    index_file = save_hybrid(build_index(), tmp_path) / "index.bin"
    data = cut(index_file.read_bytes())
    if data is None:
        index_file.unlink()
    else:
        index_file.write_bytes(data)
    with pytest.raises(CorruptIndex, match="index.bin") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


@pytest.mark.parametrize("name", ["lexical.bin", "dense.bin"])
def test_a_missing_data_file_is_corrupt_index(tmp_path, name):
    # the data files of format 5 are index.bin's parts: one left out of both
    # the head and the bytes is refused, though what remains agrees
    index_dir = save_hybrid(build_index(), tmp_path)
    head, parts = read_index(index_dir)
    del parts[name.removesuffix(".bin")]
    write_index(index_dir, head, parts)
    with pytest.raises(CorruptIndex, match="parts") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


# ---------------------------------------------------------------------------
# a lexical part whose checksum holds but whose content is malformed
# ---------------------------------------------------------------------------

def split_lexical(data: bytes) -> tuple[dict, dict[str, bytes]]:
    """A lexical part's JSON header and its sections, by name, in file order."""
    start = len(LEXICAL_MAGIC) + 8
    end = start + int.from_bytes(data[len(LEXICAL_MAGIC):start], "little")
    header, sections = json.loads(data[start:end]), {}
    for name, size in header["sections"].items():
        sections[name], end = data[end:end + size], end + size
    return header, sections


def frame(header, sections: dict[str, bytes], magic: bytes = LEXICAL_MAGIC) -> bytes:
    """A data file around a header (a dict, or raw bytes) and sections, the
    header's section table left as it is."""
    raw = header if isinstance(header, bytes) else \
        json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return magic + len(raw).to_bytes(8, "little") + raw + b"".join(sections.values())


def edited(mutate):
    def case(header, sections):
        mutate(header)
        return frame(header, sections)
    return case


def with_section(name, make):
    """The file with section ``name`` rewritten by ``make(bytes)`` and the
    section table updated to its new length."""
    def case(header, sections):
        sections[name] = make(sections[name])
        header["sections"][name] = len(sections[name])
        return frame(header, sections)
    return case


def with_values(name, dtype, edit):
    """The file with the values of a number column edited in place."""
    def make(data):
        values = np.frombuffer(data, dtype).copy()
        edit(values)
        return values.tobytes()
    return with_section(name, make)


def with_strings(name, edit):
    """The file with the strings of a string column edited, block and
    offsets rewritten to match."""
    def case(header, sections):
        offsets = np.frombuffer(sections[f"{name}_offsets"], "<i8").tolist()
        block = sections[name].decode("utf-8")
        strings = [block[a:b] for a, b in zip(offsets, offsets[1:])]
        edit(strings)
        joined = "".join(strings)
        sections[name] = joined.encode("utf-8")
        sections[f"{name}_offsets"] = np.cumsum([0, *map(len, strings)]).astype("<i8").tobytes()
        for key in (name, f"{name}_offsets"):
            header["sections"][key] = len(sections[key])
        return frame(header, sections)
    return case


def chunks_as_rows(header, sections):
    # the three int columns of the chunk table as one section of rows
    n = header["chunks"]
    rows = np.column_stack([np.frombuffer(sections.pop("version"), "<i8"),
                            np.frombuffer(sections.pop("token_span"), "<i8").reshape(n, 2),
                            np.frombuffer(sections.pop("size_tokens"), "<i8")])
    merged = {}
    for name, data in sections.items():
        if name == "positions":
            merged["rows"] = rows.astype("<i8").tobytes()
        merged[name] = data
    header["sections"] = {name: len(data) for name, data in merged.items()}
    return frame(header, merged)


def without_section(name):
    def case(header, sections):
        del sections[name], header["sections"][name]
        return frame(header, sections)
    return case


def not_utf8(data: bytes) -> bytes:
    return b"\xff" + data[1:]


def repeat_a_long_term(vocab: list[str]) -> None:
    """The first term over eight bytes written again over the term after it."""
    at = next(i for i, term in enumerate(vocab) if len(term.encode("utf-8")) > 8)
    vocab[at + 1] = vocab[at]


LEXICAL_CASES = {
    "magic": lambda h, s: frame(h, s, magic=b"ESAPLEX9"),
    "gzip-json-body": lambda h, s: gzip.compress(json.dumps(h).encode("utf-8")),
    "header-past-the-end": lambda h, s: LEXICAL_MAGIC + (1 << 40).to_bytes(8, "little"),
    "truncated-length": lambda h, s: LEXICAL_MAGIC + b"\x01\x00",
    "header-not-json": lambda h, s: frame(b"{not json", s),
    "header-array": lambda h, s: frame(b"[]", s),
    "header-nan": lambda h, s: frame(b'{"chunks": NaN}', s),
    "chunks-as-rows": chunks_as_rows,
    "no-token_span": without_section("token_span"),
    "short-column": with_section("text_offsets", lambda data: data[:-8]),
    "text-not-a-string": with_section("text", not_utf8),
    "version-bool": edited(lambda h: h.update(chunks=True)),
    "span-of-three": with_section("token_span", lambda data: data + data[:len(data) // 2]),
    "span-of-strings": edited(lambda h: operator.setitem(
        h["sections"], "token_span", str(h["sections"]["token_span"]))),
    "ids-descending": with_strings("chunk_id", list.reverse),
    "id-repeated": with_strings("chunk_id", lambda ids: operator.setitem(ids, 1, ids[0])),
    "doc_acl-string": edited(lambda h: h.update(doc_acl="x")),
    "doc_acl-entry-string": edited(lambda h: h.update(doc_acl={"fruit-apple": "alice"})),
    "vocab-not-strings": with_section("vocab", not_utf8),
    "vocab-repeats": with_strings("vocab", lambda vocab: operator.setitem(vocab, 1, vocab[0])),
    "vocab-repeats-a-long-term": with_strings("vocab", repeat_a_long_term),
    "vocab-empty-term": with_strings("vocab", lambda vocab: operator.setitem(vocab, 1, "")),
    "vocab-nul-byte": with_strings("vocab",
                                   lambda vocab: operator.setitem(vocab, 1, vocab[0] + "\0")),
    "vocab-offsets-fall": with_values("vocab_offsets", "<i8",
                                      lambda v: operator.setitem(v, 2, v[1] - 1)),
    "vocab-offsets-end-short": with_values("vocab_offsets", "<i8",
                                           lambda v: operator.setitem(v, -1, v[-1] - 1)),
    "vocab-offsets-end-past": with_values("vocab_offsets", "<i8",
                                          lambda v: operator.setitem(v, -1, v[-1] + 1)),
    "bounds-from-1": with_values("bounds", "<i8", lambda v: operator.setitem(v, 0, 1)),
    "bounds-decrease": with_values("bounds", "<i8",
                                   lambda v: operator.setitem(v, 1, v[2] + 1)),
    "bounds-too-long": with_section("bounds", lambda data: data + data[-8:]),
    "bounds-float": with_section("bounds", lambda data: np.frombuffer(data, "<i8")
                                 .astype("<f8").tobytes()),
    "terms-missing": edited(lambda h: h.pop("terms")),
    "tf-type-unknown": edited(lambda h: h.update(tf="f8")),
    "payload-short": lambda h, s: frame(h, s)[:-1],
    "payload-long": lambda h, s: frame(h, s) + bytes(12),
    "position-negative": with_values("positions", "<i4", lambda v: operator.setitem(v, 0, -1)),
    "position-past-the-end": with_values("positions", "<i4",
                                         lambda v: operator.setitem(v, 0, 10_000)),
    "tf-zero": with_values("tf", "u1", lambda v: operator.setitem(v, -1, 0)),
    "tf-of-another-type": edited(lambda h: h.update(tf="u2")),
    "offsets-decrease": with_values("text_offsets", "<i8",
                                    lambda v: operator.setitem(v, 1, v[2] + 1)),
    "offset-past-the-block": with_values("text_offsets", "<i8",
                                         lambda v: operator.setitem(v, -1, v[-1] + 1)),
    "offsets-from-1": with_values("chunk_id_offsets", "<i8", lambda v: operator.setitem(v, 0, 1)),
    "doc-row-past-the-end": with_values("doc_row", "<i4", lambda v: operator.setitem(v, 0, 10_000)),
    "doc-row-negative": with_values("doc_row", "<i4", lambda v: operator.setitem(v, -1, -1)),
    "doc-count-short": edited(lambda h: h.update(docs=h["docs"] - 1)),
    "no-chunks": edited(lambda h: h.update(chunks=0)),
    "sections-reordered": edited(lambda h: h.update(sections=dict(reversed(h["sections"].items())))),
    "section-missing-its-bytes": lambda h, s: frame(h, {k: v for k, v in s.items() if k != "tf"}),
}


@pytest.mark.parametrize("case", [pytest.param(case, id=name)
                                  for name, case in LEXICAL_CASES.items()])
def test_a_malformed_format_2_lexical_file_is_corrupt_index(tmp_path, case):
    # a lexical part of the current format whose checksum holds
    index_dir = save_hybrid(build_index(), tmp_path)
    data = read_index(index_dir)[1]["lexical"]
    header, sections = split_lexical(data)
    assert frame(header, sections) == data
    assert header["tf"] == "u1"
    replace_part(index_dir, "lexical", case(header, sections))
    with pytest.raises(CorruptIndex, match="bad lexical part") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


# the problem a load names for each malformed vocab column
VOCAB_PROBLEMS = {
    "vocab-not-strings": "the vocab section is not UTF-8",
    "vocab-repeats": "vocab repeats a term",
    "vocab-repeats-a-long-term": "vocab repeats a term",
    "vocab-empty-term": "vocab holds an empty term",
    "vocab-nul-byte": "a vocab term holds a NUL byte",
    "vocab-offsets-fall": "the vocab offsets do not run up from 0 to the block's length",
    "vocab-offsets-end-short": "the vocab offsets do not run up from 0 to the block's length",
    "vocab-offsets-end-past": "the vocab offsets do not run up from 0 to the block's length",
}


@pytest.mark.parametrize("name", VOCAB_PROBLEMS)
def test_a_malformed_vocab_column_is_corrupt_index_naming_the_problem(tmp_path, name):
    index_dir = save_hybrid(build_index(), tmp_path)
    header, sections = split_lexical(read_index(index_dir)[1]["lexical"])
    replace_part(index_dir, "lexical", LEXICAL_CASES[name](header, sections))
    with pytest.raises(CorruptIndex) as refused:
        load_hybrid(tmp_path)
    assert str(refused.value).startswith(f"bad lexical part: {VOCAB_PROBLEMS[name]}")
    assert refused.value.exit_code == 2


def dense_rows(rows: np.ndarray, magic: bytes = DENSE_MAGIC) -> bytes:
    """The (n, d) rows as the dense part stores them: dimension-major after the magic."""
    return magic + rows.T.astype("<f4").tobytes()


def with_meta_dim(delta: int):
    """The part as saved, the head's ``dim`` off by ``delta``."""
    def case(rows, head):
        head["dim"] += delta
        return dense_rows(rows)
    return case


# each case takes the saved (n, dim) rows and the head, which it may edit
DENSE_CASES = {
    "magic": lambda rows, head: dense_rows(rows, magic=b"ESAPDNS9"),
    "payload-short": lambda rows, head: dense_rows(rows)[:-4],
    "payload-long": lambda rows, head: dense_rows(rows) + bytes(4),
    "payload-of-another-dim": lambda rows, head: dense_rows(rows[:, :-1]),
    "rows-of-more-chunks": lambda rows, head: dense_rows(np.vstack([rows, rows[:1]])),
    "rows-of-fewer-chunks": lambda rows, head: dense_rows(rows[:-1]),
    "meta-dim-one-more": with_meta_dim(1),
    "meta-dim-one-less": with_meta_dim(-1),
}


@pytest.mark.parametrize("case", [pytest.param(case, id=name) for name, case in DENSE_CASES.items()])
def test_a_malformed_dense_file_is_corrupt_index(tmp_path, case):
    index = build_index()
    index_dir = save_hybrid(index, tmp_path)
    # the dense part is the magic and the vectors, dimension-major, nothing
    # else: its shape is the head's dim and the chunk table's count
    rows = index.dense.vectors
    head, parts = read_index(index_dir)
    assert parts["dense"] == dense_rows(rows)
    assert rows.shape == (index.n_chunks, head["dim"])
    write_index(index_dir, head, {**parts, "dense": case(rows, head)})
    with pytest.raises(CorruptIndex, match="bad dense part") as refused:
        load_hybrid(tmp_path)
    assert refused.value.exit_code == 2


def saved_digests(index, kb: Path) -> dict[str, str]:
    """The sha256 of index.bin and of its parts, named by the files format 5
    kept them in: the parts' bytes are those files' bytes."""
    out = save_hybrid(index, kb)
    head, parts = read_index(out)
    return {"index.bin": hashlib.sha256((out / "index.bin").read_bytes()).hexdigest(),
            "lexical.bin": hashlib.sha256(parts["lexical"]).hexdigest(),
            "dense.bin": hashlib.sha256(parts["dense"]).hexdigest()}


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
    # dense.bin recorded when one rule scaled every vector to unit length
    # (float64 squares added in ascending order): 24 values in 2 of the 5
    # rows moved by one float32 step from the format 5 recording, whose
    # rows the embedder and the build had each normalized;
    # lexical.bin recorded when a document's first and last chunk took in its
    # leading and trailing punctuation (the text column changed, nothing else)
    digests = saved_digests(toy_index, tmp_path)
    assert digests["dense.bin"] == \
        "adc4fe301c1ce6fcdcd7b0052099989f526fe61beb534dea7a51f537c172ca25"
    assert digests["lexical.bin"] == \
        "156930a041846a122103c5d49c826dadc041231660313466c60c6e71a2c37d9c"


def test_a_multi_block_index_keeps_its_recorded_digests(tmp_path):
    # recorded before term_ids tokenized in blocks: about 500,000 chars of
    # chunk text, more than one of its blocks; the non-ASCII document sorts
    # between c200's chunk and c201's, shares terms with the ASCII chunks on
    # both sides and brings new ones
    texts = make_clustered_texts(400, seed=3, tokens_per_text=200)
    docs = [Document(doc_id=f"c{i:03d}", version=1, text=text) for i, text in enumerate(texts)]
    docs.append(Document(doc_id="c200-istanbul", version=1,
                         text="Straße café in İstanbul: t32w10 C52 ßß t7w3, İİ basketball "
                              "t0w999 c13 ŞEHİR t200w1."))
    chunks = [c for doc in docs for c in chunk_document(doc, size=200, overlap=20)]
    index = build_hybrid(chunks, HashingEmbedder(), {doc.doc_id: ["*"] for doc in docs},
                         HybridParams(chunk_size=200, chunk_overlap=20))
    digests = saved_digests(index, tmp_path)
    assert digests["lexical.bin"] == \
        "54cea9a13ff167f361af550c39bc67ac9a056146f6c42f63f31651f9ca978d52"
    assert digests["dense.bin"] == \
        "dae3158b7cddd0925fa2ee44b70e457d50a5f7037773c4b801fed7218261105e"


# ingests the corpus argv[1] into the kb argv[2] and indexes it, through the CLI
CLI_INGEST_AND_INDEX = """
import sys
from esap.cli import main
sys.exit(main(["ingest", "--corpus", sys.argv[1], "--kb", sys.argv[2]])
         or main(["index", "--kb", sys.argv[2]]))
"""


def test_an_index_has_the_same_bytes_under_any_hash_seed(tmp_path):
    # the first document is outside ASCII and shares terms with the ASCII ones
    # after it; basketball and basketbell share their first eight bytes. A term
    # id taken in set or hash order would differ between the two seeds
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": doc_id, "text": text}) + "\n" for doc_id, text in [
        ("a-istanbul", "Straße café in İstanbul: the basketball court by the red market "
                       "opens early."),
        ("court", "The basketbell rings at the court, and a basketball team plays by the "
                  "red market."),
        ("notes", "Market notes: basketball, basketbell and cafe hours; the court opens "
                  "early."),
    ]), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(hybrid.__file__).parents[1])}
    runs = [subprocess.Popen([sys.executable, "-c", CLI_INGEST_AND_INDEX, str(corpus),
                              str(tmp_path / f"kb-{seed}")], stdout=subprocess.DEVNULL,
                             env={**env, "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
    try:
        assert [proc.wait(timeout=120) for proc in runs] == [0, 0]
    finally:
        for proc in runs:
            proc.kill()
            proc.wait()
    assert (tmp_path / "kb-1" / "index" / "index.bin").read_bytes() == \
           (tmp_path / "kb-2" / "index" / "index.bin").read_bytes()
