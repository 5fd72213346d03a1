from __future__ import annotations

import json
import math
import random
import re

import pytest

from esap.cli import main
from esap.corpus import (
    Document,
    VersionStore,
    chunk_count,
    chunk_document,
    ingest_corpus,
    read_corpus_jsonl,
)
from esap.errors import (
    CorpusFormatError,
    InvalidChunkConfig,
    StoreWriteError,
    VersionNotFound,
)
from esap.tokenizer import token_texts


def make_doc(text: str, doc_id: str = "d1", version: int = 1) -> Document:
    return Document(doc_id=doc_id, version=version, text=text)


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def test_chunk_ids_and_spans():
    text = " ".join(f"w{i}" for i in range(10))
    chunks = chunk_document(make_doc(text, "doc", 3), size=4, overlap=1)
    assert [c.chunk_id for c in chunks] == [
        "doc#v3#00000", "doc#v3#00001", "doc#v3#00002"]
    assert [c.token_span for c in chunks] == [(0, 4), (3, 7), (6, 10)]
    assert chunks[0].text == "w0 w1 w2 w3"
    assert chunks[-1].size_tokens == 4


def test_single_window_when_size_covers_text():
    chunks = chunk_document(make_doc("a b c"), size=10, overlap=2)
    assert len(chunks) == 1
    assert chunks[0].token_span == (0, 3)
    # sizes and strides past int64 are one window too
    for overlap in (0, 2, 10 ** 20 - 1):
        assert chunk_document(make_doc("a b c"), size=10 ** 20, overlap=overlap) == chunks


def test_empty_document_yields_no_chunks():
    assert chunk_document(make_doc("   ")) == []
    assert chunk_count(0, 1000, 150) == 0


def test_invalid_configs_rejected():
    doc = make_doc("a b c")
    with pytest.raises(InvalidChunkConfig):
        chunk_document(doc, size=0, overlap=0)
    with pytest.raises(InvalidChunkConfig):
        chunk_document(doc, size=5, overlap=5)
    with pytest.raises(InvalidChunkConfig):
        chunk_document(doc, size=5, overlap=-1)
    with pytest.raises(InvalidChunkConfig):
        chunk_document(doc, size=500, overlap=1000)


def direct_window_count(n_tokens: int, size: int, overlap: int) -> int:
    # independent counter: walk the same strides a chunker must take
    if n_tokens == 0:
        return 0
    stride = size - overlap
    count, start = 1, 0
    while start + size < n_tokens:
        start += stride
        count += 1
    return count


def test_chunk_count_formula_matches_direct_counter():
    for n in (1, 2, 5, 10, 999, 1000, 1001, 1150, 2000):
        for size, overlap in ((1000, 150), (500, 150), (4, 1), (3, 0), (1, 0)):
            assert chunk_count(n, size, overlap) == direct_window_count(n, size, overlap)


def test_round_trip_fuzz():
    # dedup rule: keep chunk 0 whole, drop the first `overlap` tokens of the rest
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(0, 120)
        text = " ".join(f"w{rng.randrange(50)}" for _ in range(n))
        size = rng.randrange(1, 30)
        overlap = rng.randrange(0, size)
        doc = make_doc(text)
        chunks = chunk_document(doc, size=size, overlap=overlap)
        rebuilt: list[str] = []
        for i, chunk in enumerate(chunks):
            toks = token_texts(chunk.text)
            rebuilt.extend(toks if i == 0 else toks[overlap:])
        assert rebuilt == token_texts(text)
        assert len(chunks) == chunk_count(n, size, overlap)


def test_chunk_text_matches_token_span():
    text = "Alpha, beta; GAMMA delta epsilon zeta."
    doc = make_doc(text)
    full = token_texts(text)
    for chunk in chunk_document(doc, size=3, overlap=1):
        lo, hi = chunk.token_span
        assert token_texts(chunk.text) == full[lo:hi]


# ---------------------------------------------------------------------------
# version store
# ---------------------------------------------------------------------------

def test_ingest_versions_and_get(tmp_path):
    store = VersionStore(tmp_path)
    d1 = store.ingest("doc-a", "first text")
    assert d1.version == 1
    d2 = store.ingest("doc-a", "second text")
    assert d2.version == 2
    assert store.get("doc-a").text == "second text"
    assert store.get("doc-a", 1).text == "first text"
    assert store.versions("doc-a") == [1, 2]


def test_get_missing_version_raises(tmp_path):
    store = VersionStore(tmp_path)
    store.ingest("doc-a", "x")
    with pytest.raises(VersionNotFound):
        store.get("doc-a", 9)
    with pytest.raises(VersionNotFound):
        store.get("nope")


def test_rollback_appends_new_version(tmp_path):
    store = VersionStore(tmp_path)
    store.ingest("doc-a", "v1 text")
    store.ingest("doc-a", "v2 text")
    rolled = store.rollback("doc-a", 1)
    assert rolled.version == 3
    assert rolled.text == "v1 text"
    # history intact: rollback never rewrites old versions
    assert store.get("doc-a", 2).text == "v2 text"


def test_rollback_keeps_the_targets_fields(tmp_path):
    store = VersionStore(tmp_path)
    first = store.ingest("doc-a", "v1 text", mime="text/markdown", author="ann",
                         created_at="2025-01-01T00:00:00Z", acl=["staff"])
    store.ingest("doc-a", "v2 text")
    rolled = store.rollback("doc-a", 1)
    assert (rolled.mime, rolled.author, rolled.acl) == ("text/markdown", "ann",
                                                        frozenset({"staff"}))
    assert rolled.created_at != first.created_at
    assert store.get("doc-a") == rolled


def test_diff_between_versions(tmp_path):
    store = VersionStore(tmp_path)
    store.ingest("doc-a", "line one\nline two\n")
    store.ingest("doc-a", "line one\nline 2\n")
    diff = store.diff("doc-a", 1, 2)
    assert "-line two" in diff
    assert "+line 2" in diff
    assert "doc-a@v1" in diff and "doc-a@v2" in diff


def test_audit_log_is_append_only_jsonl(tmp_path):
    store = VersionStore(tmp_path)
    store.ingest("doc-a", "x")
    store.ingest("doc-b", "y")
    store.rollback("doc-a", 1)
    entries = [json.loads(line) for line in
               store.audit_path.read_text().splitlines()]
    assert [e["op"] for e in entries] == ["ingest", "ingest", "rollback"]
    assert [e["doc_id"] for e in entries] == ["doc-a", "doc-b", "doc-a"]
    assert all({"op", "doc_id", "version", "timestamp"} <= set(e) for e in entries)


def test_bad_doc_ids_rejected(tmp_path):
    store = VersionStore(tmp_path)
    for bad in ("", "../escape", "a/b", ".hidden", "-lead", "trailing\n"):
        with pytest.raises(StoreWriteError):
            store.ingest(bad, "text")


@pytest.mark.parametrize("field, value", [
    ("mime", 5), ("author", ["a"]), ("created_at", {"y": 2025})])
def test_non_string_optional_field_rejected(tmp_path, field, value):
    store = VersionStore(tmp_path)
    with pytest.raises(StoreWriteError, match=f'document: "{field}" must be a string'):
        store.ingest("doc-a", "text", **{field: value})
    assert store.doc_ids() == []


def test_null_optional_fields_take_the_defaults(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one", "mime": null, "author": null, '
                    '"created_at": null}\n')
    store = VersionStore(tmp_path / "kb")
    assert ingest_corpus(store, path) == (1, 0)
    assert store.get("a") == Document(doc_id="a", version=1, text="one")


# a stored version's file replaced by each of these is refused, not read
STORED_VERSION_CASES = {
    "empty-object": "{}",
    "not-json": "not json",
    "an-array": "[]",
    "bare-string-acl": '{"doc_id": "a", "version": 1, "text": "x", "acl": "bob"}',
    "text-not-a-string": '{"doc_id": "a", "version": 1, "text": 5}',
    "version-bool": '{"doc_id": "a", "version": true, "text": "x"}',
    "version-of-another-file": '{"doc_id": "a", "version": 2, "text": "x"}',
    "doc_id-of-another-document": '{"doc_id": "b", "version": 1, "text": "x"}',
}


@pytest.mark.parametrize("content", STORED_VERSION_CASES.values(), ids=STORED_VERSION_CASES)
def test_a_malformed_stored_version_is_corpus_format_error(tmp_path, capsys, content):
    store = VersionStore(tmp_path / "kb")
    store.ingest("a", "hello world", acl=["bob"])
    path = tmp_path / "kb" / "docs" / "a" / "1.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=re.escape(str(path))) as refused:
        store.get("a")
    assert refused.value.exit_code == 2
    # the CLI prints that error as one JSON line and indexes nothing
    assert main(["index", "--kb", str(tmp_path / "kb")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "CorpusFormatError",
                                        "message": str(refused.value)}
    assert not (tmp_path / "kb" / "index").exists()


# "<n>.json" with n >= 1 and no leading zero is the only version file
# name; int() would read most of these as a version number
STRAY_FILE_NAMES = ["notes.json", "01.json", "0.json", "-1.json", "+1.json", " 1.json",
                    "1_0.json", "1.5.json", "\u0661.json", ".json"]


@pytest.mark.parametrize("name", STRAY_FILE_NAMES)
def test_a_stray_json_file_in_a_document_directory_is_refused(tmp_path, name):
    store = VersionStore(tmp_path / "kb")
    store.ingest("a", "hello world")
    doc_dir = tmp_path / "kb" / "docs" / "a"
    stray = doc_dir / name
    # a well-formed copy of version 1, so only the name is wrong
    stray.write_bytes((doc_dir / "1.json").read_bytes())
    reads = {"versions": lambda: store.versions("a"), "get": lambda: store.get("a"),
             "latest_documents": store.latest_documents, "doc_ids": store.doc_ids,
             "ingest": lambda: store.ingest("a", "again")}
    for read in reads.values():
        with pytest.raises(CorpusFormatError, match=re.escape(str(stray))) as refused:
            read()
        assert refused.value.exit_code == 2
    assert sorted(p.name for p in doc_dir.iterdir()) == sorted(["1.json", name])
    # version files are read as before
    assert store.get("a", 1).text == "hello world"


@pytest.mark.parametrize("leftover", [None, "1.json.tmp"], ids=["empty", "temp-file-only"])
def test_a_document_directory_without_a_version_holds_no_document(tmp_path, leftover):
    # a crash between a directory's mkdir and its first version leaves this
    store = VersionStore(tmp_path / "kb")
    good = store.ingest("a", "hello world")
    empty = tmp_path / "kb" / "docs" / "b"
    empty.mkdir()
    if leftover:
        (empty / leftover).write_text("{", encoding="utf-8")
    assert store.doc_ids() == ["a"]
    assert store.latest_documents() == [good]
    assert store.versions("b") == [] and store.latest_version("b") == 0
    with pytest.raises(VersionNotFound):
        store.get("b")
    assert store.ingest("b", "second").version == 1
    assert store.doc_ids() == ["a", "b"]


@pytest.mark.parametrize("acl", ["alice", ["x", 1], {"x": 1}],
                         ids=["bare-string", "non-string-entry", "dict"])
def test_mistyped_acl_rejected(tmp_path, acl):
    store = VersionStore(tmp_path / "kb")
    with pytest.raises(StoreWriteError, match='document: "acl" must be a list of strings'):
        store.ingest("doc-a", "text", acl=acl)
    assert store.doc_ids() == []
    assert not (tmp_path / "kb").exists()


def test_acl_defaults_to_wildcard(tmp_path):
    store = VersionStore(tmp_path)
    doc = store.ingest("doc-a", "x")
    assert doc.acl == frozenset({"*"})
    scoped = store.ingest("doc-b", "y", acl={"staff"})
    assert scoped.acl == frozenset({"staff"})
    assert store.ingest("doc-c", "z", acl=("a", "b")).acl == frozenset({"a", "b"})
    assert store.ingest("doc-d", "z", acl=[]).acl == frozenset({"*"})


def test_document_json_round_trip():
    doc = Document(doc_id="d", version=2, text="t", mime="text/plain",
                   author="a", created_at="2025-01-01T00:00:00Z",
                   acl=frozenset({"staff", "admin"}))
    assert Document.from_json(doc.to_json()) == doc


# ---------------------------------------------------------------------------
# corpus JSONL
# ---------------------------------------------------------------------------

def test_read_corpus_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n\n{"id": "b", "text": "two", "extra": 1}\n')
    rows = list(read_corpus_jsonl(path))
    assert [(ln, obj["id"]) for ln, obj in rows] == [(1, "a"), (3, "b")]


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n{broken\n')
    with pytest.raises(CorpusFormatError, match="line 2"):
        list(read_corpus_jsonl(path))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_reports_line_number(tmp_path, constant):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n'
                    f'{{"id": "b", "text": "two", "score": {constant}}}\n')
    with pytest.raises(CorpusFormatError, match=f"line 2 is not valid JSON: {constant}"):
        list(read_corpus_jsonl(path))


def test_missing_required_keys_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(CorpusFormatError, match="line 1"):
        list(read_corpus_jsonl(path))


@pytest.mark.parametrize("line, message", [
    ('{"id": 5, "text": "five"}', 'line 2: "id" must be a string'),
    ('{"id": "bad id", "text": "two"}', 'line 2: "id" is malformed'),
    ('{"id": "b", "text": 2}', 'line 2: "text" must be a string'),
    ('{"id": "b", "text": "two", "acl": "alice"}',
     'line 2: "acl" must be a list of strings'),
    ('{"id": "b", "text": "two", "acl": ["alice", 7]}',
     'line 2: "acl" must be a list of strings'),
    ('["b", "two"]', "line 2 must be a JSON object, got list"),
    ('{"id": "b", "text": "two", "mime": 5}', 'line 2: "mime" must be a string'),
    ('{"id": "b", "text": "two", "author": {"n": 1}}',
     'line 2: "author" must be a string'),
    ('{"id": "b", "text": "two", "created_at": ["x"]}',
     'line 2: "created_at" must be a string'),
], ids=["int-id", "malformed-id", "int-text", "acl-string", "acl-non-string-entry",
        "array-line", "int-mime", "object-author", "list-created-at"])
def test_mistyped_record_reports_line_number(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "one", "acl": null}\n' + line + "\n")
    with pytest.raises(CorpusFormatError, match=message):
        read_corpus_jsonl(path)


@pytest.mark.parametrize("second", [
    b"{broken",
    b"\xff",
    b'{"id": "b", "text": "two", "acl": "alice"}',
    b'{"id": "bad id", "text": "two"}',
    b'{"id": "b", "text": 2}',
    b'{"id": "b", "text": "red apple", "mime": 5, "created_at": ["x"]}',
], ids=["bad-json", "bad-utf8", "bad-acl", "bad-doc-id", "non-string-text",
        "non-string-mime"])
def test_ingest_of_a_bad_corpus_stores_nothing(tmp_path, second):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a", "text": "one"}\n' + second + b"\n")
    store = VersionStore(tmp_path / "kb")
    with pytest.raises(CorpusFormatError, match="line 2"):
        ingest_corpus(store, path)
    assert store.doc_ids() == []
    assert not (tmp_path / "kb").exists()


def test_ingest_corpus_counts(tmp_path):
    path = tmp_path / "corpus.jsonl"
    docs = [{"id": f"d{i}", "text": f"text {i}"} for i in range(3)]
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    store = VersionStore(tmp_path / "kb")
    assert ingest_corpus(store, path) == (3, 0)
    assert ingest_corpus(store, path) == (0, 3)
    assert store.latest_version("d0") == 2
