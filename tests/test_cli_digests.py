"""Recorded sha256 digests of the documents the CLI prints on the toy kb.

Each case runs one command in a temporary directory with a relative
``--kb kb``, so no absolute path reaches the config echo, and compares the
sha256 of what it printed with a value recorded from an earlier release. A
refactor that keeps these digests keeps every printed byte: the config echo,
the reports, the tables and the hits. ``ask`` reports how long each stage
took, so ``session.stages[*].elapsed_ms`` is dropped before hashing. The
version files ``ingest`` stores under ``kb/docs`` are recorded the same way.

The values were recorded with Python 3.11.7 and numpy 2.4.6. A digest that
differs on another Python or numpy is a finding about that pairing; record
it, do not re-record the value.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from esap.cli import main
from esap.synthetic import make_toy_kb_documents

_RUNS = [
    {"qid": "q1", "system": "stub", "question": "q",
     "answer": "the red apple sits in the basket",
     "contexts": ["the red apple sits in the basket near the window"],
     "gold_answer": "the red apple sits in the basket", "human_accuracy": 4},
    {"qid": "q2", "system": "stub", "question": "q",
     "answer": "bananas are yellow and apples keep well",
     "contexts": ["bananas are yellow", "apples keep well in cold storage"]},
    {"qid": "q1", "system": "other", "question": "q",
     "answer": "a cherry is small", "contexts": ["the cherry is small and red"],
     "gold_answer": "cherries are red"},
]
_QA = {"qid": "q1", "question": "red apple basket",
       "evidence": [{"doc_id": "fruit-apple",
                     "quote": "The red apple sits in the basket"}]}
_SQL_REPLIES = ["structured", "SELECT count(*) FROM chinook_track", "0.9"]
# a BLOB cell and an infinite one, each JSON only through its printed form
_BLOB_REPLIES = ["structured", "SELECT x'41' AS b, 2 AS n", "0.9"]
_INF_REPLIES = ["structured", "SELECT 1e999 AS x, 2 AS n", "0.9"]

# (argv without --kb, sha256 of the printed document), in the order they run
_CASES = [
    (("ingest", "--corpus", "corpus.jsonl"),
     "5458b97d59d521f7e7e8d10b5efc57329a676cd0ce9a5d4213213fff0227518c"),
    (("index",),
     "fe41a807acb737c125eeae901193cb57748b855c9a12bd151932833105ae747f"),
    (("query", "--q", "red apple", "--k", "3"),
     "34e8fafda74376c83b8ac3e8879edd5b8f818bf2bcf1a2dacc1191e9863d2e3f"),
    (("query", "--q", "cold storage weeks", "--k", "50", "--principal", "alice"),
     "77a524e23275e9c397d27ba804a1ba7816c29da9afc828564eba694dbf3fb35b"),
    (("ask", "--q", "Where does the red apple sit?"),
     "78e00e54d060acf21675519dd961e803cfa3252cd32c23f26b4f48737f0328dd"),
    (("sql", "--q", "How many tracks are there?", "--ports", "scripted:replies.json",
      "--verbose"),
     "e159530fdb30d6e441e4673203ad01b50b6344d2286729903f7363625e9c8728"),
    (("sql", "--q", "Which blob?", "--ports", "scripted:blob-replies.json", "--verbose"),
     "ec0b29d5c8fbf734705bc6e991d8513de305c926b1d7687c3bbad9d1b105c483"),
    (("sql", "--q", "How big?", "--ports", "scripted:inf-replies.json", "--verbose"),
     "92fd19c668eb7c9e7b3480bf45ab59ec8dd3f9e36f7d3281f9f1e5c7868cb140"),
    (("eval-retrieval", "--dataset", "toy=qa.jsonl", "--ks", "1,2"),
     "58cf38506816ba8ceb35ec78132aac5a77e294312df4c1ee5e13608ae7e0b4e3"),
    (("eval-trace", "--runs", "runs.jsonl", "--ngram", "2"),
     "e58f00b4dd09a2d066fb4daf561c99fd1c67e510be5f6177af6af0d75188fc2e"),
    (("eval-trace", "--runs", "runs.jsonl", "--pretty"),
     "d24294a3b3a1638fe78cd8e37fbd99ca48d5bf84db74af76d503bd227978ce30"),
    (("version", "--seed", "7"),
     "4faf92f97932d553d5a97ac3bab93289cd6977ad322d9a50720a73517ae38f31"),
]


def _printed_digest(argv, capsys) -> str:
    assert main([*argv, "--kb", "kb"]) == 0
    out = capsys.readouterr().out
    if argv[0] == "ask":
        document = json.loads(out)
        for stage in document["session"]["stages"]:
            del stage["elapsed_ms"]
        out = json.dumps(document, indent=2, ensure_ascii=False)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_cli_documents_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": d.doc_id, "text": d.text}) + "\n"
                for d in make_toy_kb_documents()), encoding="utf-8")
    (tmp_path / "runs.jsonl").write_text(
        "".join(json.dumps(run) + "\n" for run in _RUNS), encoding="utf-8")
    (tmp_path / "qa.jsonl").write_text(json.dumps(_QA) + "\n", encoding="utf-8")
    (tmp_path / "replies.json").write_text(json.dumps(_SQL_REPLIES), encoding="utf-8")
    (tmp_path / "blob-replies.json").write_text(json.dumps(_BLOB_REPLIES), encoding="utf-8")
    (tmp_path / "inf-replies.json").write_text(json.dumps(_INF_REPLIES), encoding="utf-8")
    got = [(argv[0], _printed_digest(argv, capsys)) for argv, _ in _CASES]
    assert got == [(argv[0], digest) for argv, digest in _CASES]


# every optional field set, an unsorted ACL, a non-ASCII text and a second
# version of one document
_STORED_CORPUS = [
    {"id": "memo", "text": "Caf\u00e9 hours change on Monday.", "mime": "text/markdown",
     "author": "dana", "created_at": "2024-03-01T09:30:00Z", "acl": ["sales", "alice", "*"]},
    {"id": "plain", "text": "Defaults only."},
    {"id": "memo", "text": "Caf\u00e9 hours change on Tuesday.", "author": "eli",
     "acl": ["zed", "bob"]},
]
# (path under kb/docs, sha256 of the file), sorted by path
_STORED_VERSIONS = [
    ("memo/1.json", "f1695fbd75e8496ddc9edfe2250fe4d11d787fb7dd5988966b872e325a9ca7fa"),
    ("memo/2.json", "4ebe3bbb51b002b78527ed371fc615f60f4105db1555bc7569214260da3d0f9c"),
    ("plain/1.json", "80c44a06e67d45563e97e78cf94a2c4dada149c1da9f170490f810bfadc4381c"),
]


def test_ingest_writes_version_files_with_recorded_digests(tmp_path, monkeypatch, capsys):
    """The bytes of each stored version; audit.log holds timestamps and is
    left out."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in _STORED_CORPUS), encoding="utf-8")
    assert main(["ingest", "--corpus", "corpus.jsonl", "--kb", "kb"]) == 0
    capsys.readouterr()
    docs = tmp_path / "kb" / "docs"
    got = sorted((path.relative_to(docs).as_posix(),
                  hashlib.sha256(path.read_bytes()).hexdigest())
                 for path in docs.rglob("*") if path.is_file())
    assert got == _STORED_VERSIONS
