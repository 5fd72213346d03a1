from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from esap import __version__, errors
from esap.cli import _COMMANDS, _make_chat, build_parser, main
from esap.config import AppConfig, config_from_dict
from esap.corpus import chunk_document
from esap.hybrid import HybridParams, build_hybrid, save_hybrid
from esap.ports import HashingEmbedder
from esap.synthetic import make_toy_kb_documents

COMMANDS = ("ingest", "index", "query", "ask", "sql",
            "eval-retrieval", "eval-trace", "version")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path) -> None:
    lines = [json.dumps({"id": doc.doc_id, "text": doc.text})
             for doc in make_toy_kb_documents()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def kb(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    kb_dir = str(tmp_path / "kb")
    assert main(["ingest", "--corpus", str(corpus), "--kb", kb_dir]) == 0
    assert main(["index", "--kb", kb_dir]) == 0
    capsys.readouterr()
    return kb_dir


# ---------------------------------------------------------------------------
# exit codes and error shape
# ---------------------------------------------------------------------------

def test_no_command_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 0
    assert "ingest" in out and "eval-retrieval" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "query", "--q", "x", "--sideways")
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "UsageError"
    assert "sideways" in error["message"]


def test_missing_corpus_file_is_user_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ingest", "--corpus",
                           str(tmp_path / "nope.jsonl"),
                           "--kb", str(tmp_path / "kb"))
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_malformed_corpus_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"id": "a", "text": "ok"}\n{broken\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--corpus", str(corpus),
                           "--kb", str(tmp_path / "kb"))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "CorpusFormatError"
    assert "line 2" in error["message"]


def test_a_lone_surrogate_in_a_corpus_line_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "ok"}\n{"id": "b", "text": "hello \\ud800 world"}\n',
                      encoding="utf-8")
    kb_dir = tmp_path / "kb"
    code, out, err = run_cli(capsys, "ingest", "--corpus", str(corpus), "--kb", str(kb_dir))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "CorpusFormatError"
    assert error["message"].startswith('line 2: "text" holds a lone surrogate')
    assert not (kb_dir / "docs").exists()


def test_malformed_corpus_stores_nothing(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    kb_dir = tmp_path / "kb"
    for bad_line in ('{"id": 5, "text": "five"}', "{broken", '{"id": "bad id", "text": "two"}'):
        corpus.write_text('{"id": "a", "text": "ok"}\n' + bad_line + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "ingest", "--corpus", str(corpus),
                                 "--kb", str(kb_dir))
        assert code == 2 and out == ""
        assert "line 2" in json.loads(err)["message"]
        assert not (kb_dir / "docs").exists()
    # the fixed file then writes version 1 of each document, not version 2
    corpus.write_text('{"id": "a", "text": "ok"}\n{"id": "b", "text": "five"}\n',
                      encoding="utf-8")
    code, out, _ = run_cli(capsys, "ingest", "--corpus", str(corpus),
                           "--kb", str(kb_dir))
    assert code == 0
    assert json.loads(out)["ingested"] == 2
    assert sorted(p.name for p in (kb_dir / "docs" / "a").iterdir()) == ["1.json"]


def test_query_before_index_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "query", "--q", "x",
                           "--kb", str(tmp_path / "empty"))
    assert code == 2
    assert json.loads(err)["error"] == "CorruptIndex"


def test_index_of_an_empty_kb_is_data_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "index", "--kb", str(tmp_path / "empty"))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "EmptyCorpus"
    assert "run ingest first" in error["message"]


def test_index_with_an_overlap_of_the_chunk_size_is_refused_before_the_kb(tmp_path, capsys):
    code, out, err = run_cli(capsys, "index", "--kb", str(tmp_path / "absent"),
                             "--chunk-size", "10", "--overlap", "10")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert "chunk.overlap" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["notes.json", "01.json"])
def test_index_refuses_a_stray_json_file_by_name(kb, capsys, name):
    doc_dir = Path(kb) / "docs" / make_toy_kb_documents()[0].doc_id
    stray = doc_dir / name
    stray.write_bytes((doc_dir / "1.json").read_bytes())
    index_before = {p.name: p.read_bytes() for p in (Path(kb) / "index").iterdir()}
    code, out, err = run_cli(capsys, "index", "--kb", kb)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "CorpusFormatError"
    assert str(stray) in error["message"]
    assert {p.name: p.read_bytes() for p in (Path(kb) / "index").iterdir()} == index_before


def test_index_skips_a_document_directory_without_a_version(kb, capsys):
    code, out, _ = run_cli(capsys, "index", "--kb", kb)
    assert code == 0
    (Path(kb) / "docs" / "zz-empty").mkdir()
    assert run_cli(capsys, "index", "--kb", kb) == (code, out, "")


def test_read_only_commands_create_no_kb(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    code, _, err = run_cli(capsys, "index", "--kb", str(fresh))
    assert code == 2
    assert json.loads(err)["error"] == "EmptyCorpus"
    assert not fresh.exists()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    assert run_cli(capsys, "ingest", "--corpus", str(corpus),
                   "--kb", str(fresh))[0] == 0
    assert (fresh / "docs").is_dir()


def test_config_section_of_wrong_type_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk": 5}), encoding="utf-8")
    code, out, err = run_cli(capsys, "version", "--config", str(config))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert "config key chunk " in error["message"]


@pytest.mark.parametrize("argv, key", [
    (("query", "--q", "x", "--k", "0"), "retrieval.k"),
    (("index", "--chunk-size", "0"), "chunk.size"),
    (("eval-trace", "--runs", "runs.jsonl", "--ngram", "0"), "eval.ngram_n"),
    (("sql", "--q", "x", "--max-retries", "-1"), "thor.max_retries"),
    (("sql", "--q", "x", "--threshold", "1.5"), "thor.threshold"),
    (("eval-retrieval", "--dataset", "qa=qa.jsonl", "--ks", "0"), "eval.ks"),
], ids=["k", "chunk-size", "ngram", "max-retries", "threshold", "ks"])
def test_flags_pass_the_config_checks(tmp_path, capsys, argv, key):
    # checked before any kb, index or input file is touched
    absent = tmp_path / "absent"
    code, out, err = run_cli(capsys, *argv, "--kb", str(absent))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert f"config key {key} " in error["message"]
    assert not absent.exists()


def test_exhausted_script_is_port_error(kb, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["only one reply"]), encoding="utf-8")
    code, _, err = run_cli(capsys, "ask", "--q", "apples?", "--kb", kb,
                           "--ports", f"scripted:{script}")
    assert code == 3
    assert json.loads(err)["error"] == "ScriptExhausted"


def test_errors_are_single_json_lines(tmp_path, capsys):
    _, _, err = run_cli(capsys, "query", "--q", "x",
                        "--kb", str(tmp_path / "void"))
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}


# corpus-line fuzz: valid lines, mutated, through `esap ingest` and then
# `esap index`; every run exits 0, or 2 with one JSON line naming a DataError
DATA_ERRORS = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.DataError)}
FUZZ_LINES = [{"id": doc.doc_id, "text": doc.text} for doc in make_toy_kb_documents()[:3]] + [
    {"id": "memo-1", "text": "(Shipping memo: cherries ship cold.)", "mime": "text/plain",
     "author": "ann", "created_at": "2024-01-01T00:00:00Z", "acl": ["alice", "bob"]}]
FUZZ_FIELDS = ("id", "text", "mime", "author", "created_at", "acl")
WRONG_TYPES = (0, -1.5, True, False, None, [], ["x"], {}, {"text": "a"})
# raw JSON for a field's value
RAW_VALUES = {"nan": "NaN", "inf": "1e999", "-inf": "-Infinity", "surrogate": '"a\\ud800b"',
              "deep": "[" * 100_000 + "]" * 100_000, "shallow": "[" * 50 + "]" * 50,
              "big-int": "9" * 5000}
MALFORMED_IDS = ("", " a", "a b", "a/b", "../a", "-a", ".a", "a\n", "ä", "a\u0000",
                 "x" * 300)
BLANK_TEXTS = ("", "   ", "...", "!?—«»", "\n\t", "()")
BAD_BYTES = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80", b"\xef\xbb\xbf")


def fuzz_line(rng: random.Random, record: dict) -> bytes:
    """One corpus line: ``record`` with one mutation, as bytes."""
    record, kind = dict(record), rng.choice(
        ["keep", "drop", "wrong-type", "malformed-id", "blank-text", "bare-acl",
         "duplicate", "raw", "truncated", "bad-bytes"])
    if kind == "drop":
        del record[rng.choice(list(record))]
    elif kind == "wrong-type":
        record[rng.choice(FUZZ_FIELDS)] = rng.choice(WRONG_TYPES)
    elif kind == "malformed-id":
        record["id"] = rng.choice(MALFORMED_IDS)
    elif kind == "blank-text":
        record["text"] = rng.choice(BLANK_TEXTS)
    elif kind == "bare-acl":
        record["acl"] = rng.choice(["alice", "*", ""])
    line = json.dumps(record)
    if kind == "duplicate":
        key = rng.choice(list(record))
        value = rng.choice([record[key], *WRONG_TYPES])
        line = f"{line[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
    elif kind == "raw":
        value = RAW_VALUES[rng.choice(list(RAW_VALUES))]
        line = f'{line[:-1]}, "{rng.choice(FUZZ_FIELDS)}": {value}}}'
    data = line.encode()
    if kind == "truncated":
        data = data[:rng.randrange(len(data))]
    elif kind == "bad-bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(BAD_BYTES) + data[at:]
    return data


def assert_exits_0_or_data_error(code: int, out: str, err: str) -> None:
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
        return
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] in DATA_ERRORS, err


def ingest_then_index(capsys, corpus: Path, kb_dir: Path) -> list[int]:
    """Exit codes of ``esap ingest`` and, if it exits 0, ``esap index``."""
    code, out, err = run_cli(capsys, "ingest", "--corpus", str(corpus), "--kb", str(kb_dir))
    assert_exits_0_or_data_error(code, out, err)
    if code:
        assert not (kb_dir / "docs").exists()      # a refused corpus stores nothing
        return [code]
    code, out, err = run_cli(capsys, "index", "--kb", str(kb_dir))
    assert_exits_0_or_data_error(code, out, err)
    return [0, code]


def test_corpus_line_fuzz_exits_0_or_2_with_one_json_line(tmp_path, capsys):
    rng = random.Random(7)
    ingest_exits, index_exits = [], []
    for case in range(150):
        # valid lines in a random order, one of them mutated
        records = rng.sample(FUZZ_LINES, rng.randrange(1, len(FUZZ_LINES) + 1))
        at = rng.randrange(len(records))
        lines = [fuzz_line(rng, record) if i == at else json.dumps(record).encode()
                 for i, record in enumerate(records)]
        corpus = tmp_path / f"{case}.jsonl"
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        ingest, *index = ingest_then_index(capsys, corpus, tmp_path / f"kb{case}")
        ingest_exits.append(ingest)
        index_exits.extend(index)
    # the mutations leave some corpora whole and refuse others
    assert {0, 2} <= set(ingest_exits) and 0 in index_exits


@pytest.mark.parametrize("line", [
    # a 256-char id fits no directory name: it passed the check, and the
    # store then failed with a raw OSError (exit 1) after writing line 1
    '{"id": "%s", "text": "long"}' % ("x" * 256),
], ids=["overlong-id"])
def test_corpus_fuzz_regressions(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "ok"}\n' + line + "\n", encoding="utf-8")
    assert ingest_then_index(capsys, corpus, tmp_path / "kb") == [2]


# ---------------------------------------------------------------------------
# headers, overrides, help
# ---------------------------------------------------------------------------

def test_outputs_carry_version_and_config_echo(kb, capsys):
    code, out, _ = run_cli(capsys, "version", "--kb", kb)
    assert code == 0
    payload = json.loads(out)
    assert payload["tool_version"] == __version__
    assert payload["config_echo"]["kb"] == kb


def test_flags_override_config_file_and_echo(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chunk": {"size": 900, "overlap": 90},
                                  "retrieval": {"k": 7}}), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    kb_dir = str(tmp_path / "kb")
    run_cli(capsys, "ingest", "--corpus", str(corpus), "--kb", kb_dir)
    code, out, _ = run_cli(capsys, "index", "--kb", kb_dir,
                           "--config", str(config), "--chunk-size", "400")
    assert code == 0
    payload = json.loads(out)
    # the flag wins over the file and the echo reflects what actually ran
    assert payload["config_echo"]["chunk"] == {"size": 400, "overlap": 90}
    assert payload["chunk"] == {"size": 400, "overlap": 90}

    code, out, _ = run_cli(capsys, "query", "--q", "apple", "--kb", kb_dir,
                           "--config", str(config), "--k", "2")
    payload = json.loads(out)
    assert payload["config_echo"]["retrieval"]["k"] == 2
    assert payload["k"] == 2


def test_seed_flag_lands_in_ann_config(kb, capsys):
    _, out, _ = run_cli(capsys, "version", "--kb", kb, "--seed", "7")
    assert json.loads(out)["config_echo"]["ann"]["seed"] == 7


def test_help_epilog_lists_flags_per_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for line in ("ingest          --corpus --kb --config --pretty --seed",
                 "index           --chunk-size --overlap --kb --config --pretty --seed"):
        assert line in out
    # and each command prints its own usage, naming its flags
    for command, (_, _, flags) in _COMMANDS.items():
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        usage = capsys.readouterr().out
        assert usage.startswith(f"usage: esap {command} ")
        assert all(flag in usage for flag in flags.split())


_NO_COMMON = {"kb": None, "config": None, "pretty": False, "seed": None}
_ALL_COMMON = ["--kb", "kb", "--config", "c.json", "--pretty", "--seed", "7"]
_COMMON_SET = {"kb": "kb", "config": "c.json", "pretty": True, "seed": 7}


# each command with its required flags only, then with every flag it takes
_NAMESPACES = [
    (["ingest", "--corpus", "c.jsonl"], {**_NO_COMMON, "corpus": "c.jsonl"}),
    (["ingest", "--corpus", "c.jsonl", *_ALL_COMMON],
     {**_COMMON_SET, "corpus": "c.jsonl"}),
    (["index"], {**_NO_COMMON, "chunk_size": None, "overlap": None}),
    (["index", "--chunk-size", "40", "--overlap", "5", *_ALL_COMMON],
     {**_COMMON_SET, "chunk_size": 40, "overlap": 5}),
    (["query", "--q", "x"],
     {**_NO_COMMON, "q": "x", "k": None, "principal": "*"}),
    (["query", "--q", "x", "--k", "3", "--principal", "bob", *_ALL_COMMON],
     {**_COMMON_SET, "q": "x", "k": 3, "principal": "bob"}),
    (["ask", "--q", "x"],
     {**_NO_COMMON, "q": "x", "k": None, "principal": "*", "ports": None}),
    (["ask", "--q", "x", "--k", "3", "--principal", "bob", "--ports", "stub",
      *_ALL_COMMON],
     {**_COMMON_SET, "q": "x", "k": 3, "principal": "bob", "ports": "stub"}),
    (["sql", "--q", "x"],
     {**_NO_COMMON, "q": "x", "db": None, "ports": None, "max_retries": None,
      "threshold": None, "allow_empty": False, "verbose": False}),
    (["sql", "--q", "x", "--db", "m.db", "--ports", "http", "--max-retries",
      "2", "--threshold", "0.5", "--allow-empty", "--verbose", *_ALL_COMMON],
     {**_COMMON_SET, "q": "x", "db": "m.db", "ports": "http",
      "max_retries": 2, "threshold": 0.5, "allow_empty": True,
      "verbose": True}),
    (["eval-retrieval", "--dataset", "a=a.jsonl"],
     {**_NO_COMMON, "dataset": ["a=a.jsonl"], "ks": None, "out": None,
      "principal": "*"}),
    (["eval-retrieval", "--dataset", "a=a.jsonl", "--dataset", "b=b.jsonl",
      "--ks", "1,2", "--out", "r.json", "--principal", "bob", *_ALL_COMMON],
     {**_COMMON_SET, "dataset": ["a=a.jsonl", "b=b.jsonl"], "ks": "1,2",
      "out": "r.json", "principal": "bob"}),
    (["eval-trace", "--runs", "r.jsonl"],
     {**_NO_COMMON, "runs": "r.jsonl", "ngram": None, "out": None}),
    (["eval-trace", "--runs", "r.jsonl", "--ngram", "2", "--out", "t.json",
      *_ALL_COMMON],
     {**_COMMON_SET, "runs": "r.jsonl", "ngram": 2, "out": "t.json"}),
    (["version"], _NO_COMMON),
    (["version", *_ALL_COMMON], _COMMON_SET),
]


@pytest.mark.parametrize("argv, expected", _NAMESPACES, ids=[
    f"{argv[0]}-{'full' if i % 2 else 'minimal'}"
    for i, (argv, _) in enumerate(_NAMESPACES)])
def test_parser_namespaces_are_pinned(argv, expected):
    got = vars(build_parser().parse_args(argv))
    expected = {"command": argv[0], **expected}
    assert got == expected
    # 3 == 3.0, so the types are compared on their own
    assert {key: type(value) for key, value in got.items()} == \
        {key: type(value) for key, value in expected.items()}


@pytest.mark.parametrize("argv, message", [
    (["query"], "the following arguments are required: --q"),
    (["ingest", "--corpus", "c.jsonl", "--q", "x"],
     "unrecognized arguments: --q x"),
    (["sql", "--q", "x", "--threshold", "abc"],
     "argument --threshold: invalid float value: 'abc'"),
], ids=["missing-required", "other-commands-flag", "bad-float"])
def test_parser_usage_errors_are_pinned(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "UsageError", "message": message}


def test_epilog_flags_match_parser_surface():
    # every flag the epilog advertises must parse, per command
    parser = build_parser()
    epilog_lines = parser.epilog.splitlines()[1:]
    advertised: dict[str, list[str]] = {}
    current = None
    for line in epilog_lines:
        parts = line.split()
        if parts and not parts[0].startswith("--"):
            current = parts[0]
            advertised[current] = [p for p in parts[1:] if p.startswith("--")]
        elif current:
            advertised[current].extend(p for p in parts if p.startswith("--"))
    assert set(advertised) == set(COMMANDS)
    sub_actions = next(a for a in parser._actions
                       if isinstance(a, type(parser._actions[-1]))
                       and hasattr(a, "choices") and a.choices)
    for command, flags in advertised.items():
        sub = sub_actions.choices[command]
        parser_flags = {opt for action in sub._actions
                        for opt in action.option_strings
                        if opt.startswith("--")}
        parser_flags.discard("--help")
        assert set(flags) == parser_flags, command


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_ingest_prints_summary_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    kb_dir = str(tmp_path / "kb")
    code, out, _ = run_cli(capsys, "ingest", "--corpus", str(corpus),
                           "--kb", kb_dir)
    assert code == 0
    assert json.loads(out)["ingested"] == 5
    # second pass re-versions every document
    code, out, _ = run_cli(capsys, "ingest", "--corpus", str(corpus),
                           "--kb", kb_dir, "--pretty")
    assert out.strip() == "ingested=0 updated=5"


def test_query_returns_ranked_hits(kb, capsys):
    code, out, _ = run_cli(capsys, "query", "--q", "red apple", "--kb", kb,
                           "--k", "3")
    assert code == 0
    hits = json.loads(out)["hits"]
    assert hits and hits[0]["doc_id"] == "fruit-apple"
    scores = [h["score"] for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_a_query_with_no_tokens_finds_nothing_and_ask_has_no_context(kb, capsys):
    code, out, _ = run_cli(capsys, "query", "--q", "???", "--k", "3", "--kb", kb)
    assert code == 0
    assert json.loads(out)["hits"] == []
    code, out, err = run_cli(capsys, "ask", "--q", "???", "--kb", kb)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "NoContext"


def test_a_guard_kind_with_a_backslash_is_printed_as_written(kb, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"guards": [{"kind": r"id\d", "pattern": "basket"}]}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "query", "--q", "red apple", "--k", "1", "--kb", kb,
                             "--config", str(config))
    assert (code, err) == (0, "")
    assert r"in the [REDACTED:id\d] next" in json.loads(out)["hits"][0]["text"]


def test_ask_stub_answers_with_citation(kb, capsys):
    # the cold storage sentence ends its document, whose last chunk keeps
    # the full stop after its last token
    for question, sentence in [
        ("Where does the red apple sit?", "The red apple sits in the basket next to the window."),
        ("How long do apples keep in cold storage?",
         "Apples keep well in cold storage for several weeks."),
    ]:
        code, out, _ = run_cli(capsys, "ask", "--q", question, "--kb", kb)
        assert code == 0
        answer = json.loads(out)["answer"]
        assert (answer["answer"], answer["verdict"]) == (sentence, "sufficient")
        assert [(c["snippet"], c["chunk_id"]) for c in answer["citations"]] == \
            [(1, "fruit-apple#v1#00000")]


def test_sql_requires_model_port(kb, capsys):
    code, _, err = run_cli(capsys, "sql", "--q", "highest price?", "--kb", kb)
    assert code == 1
    assert "model port" in json.loads(err)["message"]


def test_sql_scripted_round_trip(kb, tmp_path, capsys):
    script = tmp_path / "sql_script.json"
    script.write_text(json.dumps([
        "structured",
        "SELECT name, unit_price FROM chinook_track "
        "ORDER BY unit_price DESC LIMIT 1",
        "0.9",
    ]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "sql", "--q",
                           "Which track has the highest unit price?",
                           "--kb", kb, "--ports", f"scripted:{script}",
                           "--verbose")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["log"]["status"] == "answered"
    assert result["table"]["rows"] == [["Quiet Harbor", 1.99]]
    assert "Quiet Harbor" in result["narrative"]


def test_sql_script_replies_follow_the_documented_order(kb, tmp_path, capsys):
    # route, failed SQL (no rating asked), SQL, rating, narrative
    ports = write_script(tmp_path / "script.json", [
        "structured",
        "SELECT broken FROM",
        "SELECT name, unit_price FROM chinook_track ORDER BY unit_price DESC LIMIT 1",
        "0.9",
        "Quiet Harbor is the priciest track.",
    ])
    code, out, _ = run_cli(capsys, "sql", "--q", "Which track has the highest unit price?",
                           "--kb", kb, "--ports", ports, "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Quiet Harbor is the priciest track."
    assert "attempts: 2 (final rating 0.90)" in lines


def test_sql_failure_surfaces_attempt_log(kb, tmp_path, capsys):
    script = tmp_path / "sql_script.json"
    script.write_text(json.dumps(["structured", "SELECT broken FROM",
                                  "SELECT worse FROM"]), encoding="utf-8")
    code, _, err = run_cli(capsys, "sql", "--q", "count of tracks?",
                           "--kb", kb, "--ports", f"scripted:{script}",
                           "--max-retries", "1")
    assert code == 3
    assert json.loads(err)["error"] == "ThorFailed"


def test_sql_on_a_file_that_is_not_sqlite_is_port_error(kb, tmp_path, capsys):
    db = tmp_path / "notes.db"
    db.write_text("these are notes, not a database\n", encoding="utf-8")
    script = tmp_path / "sql_script.json"
    script.write_text(json.dumps(["structured", "SELECT 1", "0.9"]),
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "sql", "--q", "count of tracks?",
                           "--kb", kb, "--db", str(db),
                           "--ports", f"scripted:{script}")
    assert code == 3
    error = json.loads(err)
    assert error["error"] == "SqlRuntimeError"
    assert "not a database" in error["message"]


def test_eval_retrieval_writes_report_files(kb, tmp_path, capsys):
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(json.dumps({
        "qid": "q1",
        "question": "red apple basket",
        "evidence": [{"doc_id": "fruit-apple",
                      "quote": "The red apple sits in the basket"}],
    }) + "\n", encoding="utf-8")
    out_file = tmp_path / "reports" / "retrieval.json"
    code, out, _ = run_cli(capsys, "eval-retrieval",
                           "--dataset", f"toy={dataset}",
                           "--ks", "1,2", "--kb", kb,
                           "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["rows"][0]["recall"]["1"] == 100.0
    assert payload["out"] == str(out_file)
    saved = json.loads(out_file.read_text(encoding="utf-8"))
    assert saved["report"]["ks"] == [1, 2]
    table = out_file.with_suffix(".txt").read_text(encoding="utf-8")
    assert "R@1" in table and "toy" in table


def test_eval_retrieval_locates_evidence_in_the_indexed_versions(tmp_path, capsys):
    # a version ingested after the index was built shifts every token of
    # the document; the chunk spans still count tokens of the indexed one
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    kb_dir = str(tmp_path / "kb")
    assert main(["ingest", "--corpus", str(corpus), "--kb", kb_dir]) == 0
    assert main(["index", "--kb", kb_dir, "--chunk-size", "8", "--overlap", "0"]) == 0
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(json.dumps({
        "qid": "q1", "question": "red apple basket",
        "evidence": [{"doc_id": "fruit-apple", "quote": "The red apple sits in the basket"}],
    }) + "\n", encoding="utf-8")
    argv = ["eval-retrieval", "--dataset", f"toy={dataset}", "--ks", "1", "--kb", kb_dir]
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    indexed = json.loads(out)["report"]["rows"][0]
    assert indexed["recall"]["1"] == 100.0

    apple = next(d for d in make_toy_kb_documents() if d.doc_id == "fruit-apple")
    updated = tmp_path / "update.jsonl"
    updated.write_text(json.dumps({"id": "fruit-apple", "text": " ".join(
        f"preface{i}" for i in range(24)) + " " + apple.text}) + "\n", encoding="utf-8")
    assert main(["ingest", "--corpus", str(updated), "--kb", kb_dir]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report"]["rows"][0] == indexed


def test_eval_retrieval_rejects_bad_dataset_spec(kb, capsys):
    code, _, err = run_cli(capsys, "eval-retrieval", "--dataset", "nopath",
                           "--kb", kb)
    assert code == 1
    assert "NAME=PATH" in json.loads(err)["message"]


@pytest.mark.parametrize("names, error, named", [
    (("x", "x"), "ConfigError", "'x'"),
    (("ALL", "b"), "ValueError", "ALL"),
], ids=["repeated", "all"])
def test_eval_retrieval_refuses_ambiguous_dataset_names(kb, tmp_path, capsys,
                                                        names, error, named):
    argv = []
    for i, name in enumerate(names):
        dataset = tmp_path / f"qa{i}.jsonl"
        dataset.write_text(json.dumps({
            "qid": f"q{i}", "question": "red apple basket",
            "evidence": [{"doc_id": "fruit-apple", "quote": "red apple"}],
        }) + "\n", encoding="utf-8")
        argv += ["--dataset", f"{name}={dataset}"]
    code, out, err = run_cli(capsys, "eval-retrieval", *argv, "--kb", kb)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == error
    assert named in payload["message"]


def test_sql_verbose_shows_a_blob_as_its_sqlite_literal(kb, tmp_path, capsys):
    script = tmp_path / "sql_script.json"
    script.write_text(json.dumps(["structured", "SELECT x'41' AS b, 2 AS n",
                                  "0.9"]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "sql", "--q", "a blob?", "--kb", kb,
                           "--ports", f"scripted:{script}", "--verbose")
    assert code == 0
    table = json.loads(out)["result"]["table"]
    assert table["rows"] == [["X'41'", 2]]


def strict_json(text: str):
    # json.loads accepts NaN, Infinity and -Infinity; JSON (RFC 8259) does not
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("select, key_values, rows", [
    ("SELECT 1e999 AS x, 2 AS n",
     {"x.max": "inf", "x.min": "inf", "x.total": "inf",
      "n.max": 2, "n.min": 2, "n.total": 2}, [["inf", 2]]),
    # interpret sums inf and -inf to nan
    ("SELECT 1e999 AS x UNION ALL SELECT -1e999",
     {"x.max": "inf", "x.min": "-inf", "x.total": "nan"}, [["inf"], ["-inf"]]),
], ids=["inf", "nan"])
def test_sql_json_writes_non_finite_numbers_as_strings(kb, tmp_path, capsys,
                                                        select, key_values, rows):
    script = tmp_path / "sql_script.json"
    script.write_text(json.dumps(["structured", select, "0.9"]), encoding="utf-8")
    code, out, _ = run_cli(capsys, "sql", "--q", "how big?", "--kb", kb,
                           "--ports", f"scripted:{script}", "--verbose")
    assert code == 0
    result = strict_json(out)["result"]
    assert result["insight"]["key_values"] == key_values
    assert result["table"]["rows"] == rows


def test_ask_rejects_a_sentence_citing_a_snippet_that_does_not_hold_it(kb, tmp_path,
                                                                      capsys):
    # snippet 1 is policy-shipping, which holds the sentence; [2] names
    # fruit-banana. Each of the three drafts (regen cap 2) is rejected
    # before the critique, so the script needs no critique reply
    question = "How long does standard shipping take?"
    draft = "Standard shipping takes three business days [2]."
    ports = write_script(tmp_path / "script.json", [question, draft, draft, draft])
    code, out, _ = run_cli(capsys, "ask", "--q", question, "--kb", kb, "--ports", ports)
    assert code == 0
    answer = json.loads(out)["answer"]
    assert (answer["verdict"], answer["reason"]) == ("insufficient", "misattributed")
    assert answer["regeneration_count"] == 2
    assert [(c["snippet"], c["chunk_id"]) for c in answer["citations"]] == \
        [(2, "fruit-banana#v1#00000")]


def test_eval_trace_reports_and_writes(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({
        "qid": "q1", "system": "stub", "question": "q",
        "answer": "the red apple sits in the basket",
        "contexts": ["the red apple sits in the basket near the window"],
        "gold_answer": "the red apple sits in the basket",
    }) + "\n", encoding="utf-8")
    out_file = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "eval-trace", "--runs", str(runs),
                           "--out", str(out_file))
    assert code == 0
    row = json.loads(out)["report"]["rows"][0]
    assert row["pc_hallucinated"] == 0.0
    table = out_file.with_suffix(".txt").read_text(encoding="utf-8")
    assert "pc hallucinated" in table


@pytest.mark.parametrize("command", ["eval-retrieval", "eval-trace"])
def test_an_out_ending_in_txt_is_refused_before_any_report(kb, tmp_path, capsys, command):
    # the table goes to --out with its suffix replaced by .txt: here --out itself
    qa = tmp_path / "qa.jsonl"
    qa.write_text(json.dumps({"qid": "q1", "question": "red apple basket", "evidence": [
        {"doc_id": "fruit-apple", "quote": "The red apple sits in the basket"}]}) + "\n",
        encoding="utf-8")
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({"qid": "q1", "system": "stub", "question": "q",
                                "answer": "the red apple", "contexts": ["the red apple"]}) + "\n",
                    encoding="utf-8")
    inputs = {"eval-retrieval": ["--dataset", f"toy={qa}"], "eval-trace": ["--runs", str(runs)]}
    before = sorted(tmp_path.rglob("*"))
    out_file = tmp_path / "reports" / "rep.txt"
    code, out, err = run_cli(capsys, command, *inputs[command], "--kb", kb,
                             "--out", str(out_file))
    assert code == 1 and out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert str(out_file) in error["message"] and ".txt" in error["message"]
    assert sorted(tmp_path.rglob("*")) == before


def _write_runs(path) -> None:
    path.write_text(json.dumps({"qid": "q1", "system": "stub", "question": "q",
                                "answer": "the red apple", "contexts": ["the red apple"]}) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("out,message", [(".", "names a directory"),
                                         ("reports", "names a directory"),
                                         ("new/", "names a directory"),
                                         ("rep.json", "its table rep.txt is a directory")],
                         ids=["dot", "directory", "trailing-slash", "table-is-a-directory"])
def test_an_out_that_cannot_be_written_is_refused_before_any_report(tmp_path, capsys,
                                                                   monkeypatch, out, message):
    monkeypatch.chdir(tmp_path)
    _write_runs(tmp_path / "runs.jsonl")
    (tmp_path / "reports").mkdir()
    (tmp_path / "rep.txt").mkdir()
    monkeypatch.setattr("esap.cli.run_generation_benchmark",
                        lambda *a, **k: pytest.fail("report computed before --out was checked"))
    before = sorted(tmp_path.rglob("*"))
    code, out_text, err = run_cli(capsys, "eval-trace", "--runs", "runs.jsonl", "--out", out)
    assert code == 1 and out_text == ""
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert f"--out {out}" in error["message"] and message in error["message"]
    assert sorted(tmp_path.rglob("*")) == before


def test_a_failed_table_write_leaves_no_report_and_no_temporary(tmp_path, capsys, monkeypatch):
    runs = tmp_path / "runs.jsonl"
    _write_runs(runs)
    reports = tmp_path / "reports"
    reports.mkdir()
    write_text = Path.write_text

    def fail_on_the_table(self, text, *args, **kwargs):
        if text.startswith("System"):
            raise OSError("no space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_the_table)
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs),
                             "--out", str(reports / "rep.json"))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "OSError", "message": "no space left on device"}
    assert list(reports.iterdir()) == []


def test_json_mode_never_prints_a_non_finite_number(tmp_path, capsys):
    # a NaN in an input line is refused; the error line must not echo it
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({
        "qid": "q1", "system": "stub", "question": "q", "answer": "a",
        "contexts": ["a"], "human_accuracy": float("nan"),
    }) + "\n", encoding="utf-8")
    out_file = tmp_path / "trace.json"
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs),
                             "--out", str(out_file))
    assert code != 0 and out == "" and err.count("\n") == 1
    strict_json(err)
    assert not out_file.exists()


def test_pretty_flag_switches_to_plain_text(kb, capsys):
    code, out, _ = run_cli(capsys, "version", "--pretty")
    assert code == 0
    assert out.strip() == f"esap {__version__}"
    code, out, _ = run_cli(capsys, "query", "--q", "red apple", "--kb", kb,
                           "--k", "2", "--pretty")
    assert code == 0
    assert "config_echo" not in out
    assert "fruit-apple" in out


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "esap.cli", "version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tool_version"] == __version__


def test_a_closed_stdout_ends_a_command_quietly(kb):
    """A reader that stops reading (``esap query ... | head -c 10``) is not a
    failure: the command exits 0 with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "esap.cli", "query",
                               "--q", "red apple", "--kb", kb],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# ---------------------------------------------------------------------------
# serving an index, ports and flags, plain-text output
# ---------------------------------------------------------------------------

def write_script(path, replies) -> str:
    path.write_text(json.dumps(replies), encoding="utf-8")
    return f"scripted:{path}"


def edit_index(kb, edit) -> None:
    """Rewrite kb's index.bin as ``edit(head, parts)`` leaves its head and
    its parts, each part's length and sha256 recorded in the head."""
    index_file = Path(kb) / "index" / "index.bin"
    line, rest = index_file.read_bytes().split(b"\n", 1)
    head = json.loads(line)
    size = head["parts"]["lexical"]["bytes"]
    parts = {"lexical": rest[:size], "dense": rest[size:]}
    edit(head, parts)
    head["parts"] = {name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                     for name, data in parts.items()}
    index_file.write_bytes(json.dumps(head).encode("utf-8") + b"\n" + b"".join(parts.values()))


def test_bad_meta_json_key_is_data_error(kb, capsys):
    edit_index(kb, lambda head, parts: head.pop("k1"))
    code, out, err = run_cli(capsys, "query", "--q", "red apple", "--kb", kb)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "CorruptIndex"
    assert error["message"] == "bad head in index.bin: k1 missing or mistyped"


@pytest.mark.parametrize("size, n_docs", [(10, 5), (1000, 2)], ids=["more-rows", "fewer-rows"])
def test_a_dense_file_of_another_chunk_count_is_data_error(kb, tmp_path, capsys, size, n_docs):
    # another build's dense part, its checksum recorded: its rows are not the
    # chunk table's, so the load refuses it rather than rank with them
    docs = make_toy_kb_documents()[:n_docs]
    other = save_hybrid(build_hybrid([c for d in docs for c in chunk_document(d, size, 2)],
                                     HashingEmbedder(), {}, HybridParams()), tmp_path / "other")
    line, rest = (other / "index.bin").read_bytes().split(b"\n", 1)
    dense = rest[json.loads(line)["parts"]["lexical"]["bytes"]:]
    edit_index(kb, lambda head, parts: parts.update(dense=dense))
    code, out, err = run_cli(capsys, "query", "--q", "red apple", "--kb", kb)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "CorruptIndex"
    assert error["message"].startswith("bad dense part: the vectors section is ")


@pytest.mark.parametrize("content", [b"[]", b"\xff{}"], ids=["array", "not-utf8"])
def test_meta_json_that_is_not_a_json_object_is_data_error(kb, capsys, content):
    index_file = Path(kb) / "index" / "index.bin"
    index_file.write_bytes(content + b"\n" + index_file.read_bytes().split(b"\n", 1)[1])
    code, out, err = run_cli(capsys, "query", "--q", "red apple", "--kb", kb)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "CorruptIndex"
    assert "the head of index.bin" in error["message"]


# a head saying each version, and a directory of formats 1 to 5, which held
# meta.json beside its data files
@pytest.mark.parametrize("where, version", [
    *(pytest.param("head", version, id=f"head-{name}") for name, version in [
        ("999", 999), ("str-3", "3"), ("True", True), ("1.0", 1.0), ("None", None)]),
    *(pytest.param("meta.json", version, id=f"meta.json-{version}") for version in range(1, 6)),
])
def test_an_index_of_another_format_is_refused_with_its_remedy(kb, capsys, where, version):
    index_dir = Path(kb) / "index"
    if where == "head":
        edit_index(kb, lambda head, parts: head.update(format_version=version))
    else:
        (index_dir / "index.bin").unlink()
        (index_dir / "meta.json").write_text(json.dumps({"format_version": version}))
    code, out, err = run_cli(capsys, "query", "--q", "red apple", "--kb", kb)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "FormatVersionMismatch"
    assert error["message"] == \
        f"index format {version!r} unsupported, expected 6; run `esap index` to rebuild it"


def test_serving_commands_fuse_with_the_configs_rrf_c(kb, tmp_path, capsys):
    # the kb was indexed with the default rrf_c 60, and index.bin's head keeps it
    head = json.loads((Path(kb) / "index" / "index.bin").read_bytes().split(b"\n", 1)[0])
    assert head["rrf_c"] == 60
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"retrieval": {"rrf_c": 5}}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "query", "--q", "red apple", "--kb", kb,
                           "--config", str(config))
    assert code == 0
    payload = json.loads(out)
    assert payload["config_echo"]["retrieval"]["rrf_c"] == 5
    # first in both rankings: 2 / (5 + 1)
    assert payload["hits"][0]["score"] == 2 / 6

    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(json.dumps({
        "qid": "q1", "question": "red apple basket",
        "evidence": [{"doc_id": "fruit-apple",
                      "quote": "The red apple sits in the basket"}],
    }) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval-retrieval", "--dataset", f"toy={dataset}",
                           "--kb", kb, "--config", str(config))
    assert code == 0
    assert json.loads(out)["report"]["config_echo"]["rrf_c"] == 5


def test_ports_stub_flag_runs_the_stub(kb, capsys):
    code, out, _ = run_cli(capsys, "ask", "--q", "Where does the red apple sit?",
                           "--kb", kb, "--ports", "stub")
    assert code == 0
    payload = json.loads(out)
    assert payload["config_echo"]["ports"]["mode"] == "stub"
    assert payload["answer"]["verdict"] == "sufficient"


def test_ports_http_without_an_endpoint_is_port_error(kb, capsys, monkeypatch):
    monkeypatch.delenv("ESAP_BASE_URL", raising=False)
    code, out, err = run_cli(capsys, "ask", "--q", "apples?", "--kb", kb,
                             "--ports", "http")
    assert code == 3
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "TransportError"
    assert "ESAP_BASE_URL" in error["message"]


def _team_http_config():
    data = AppConfig().to_json()
    data["ports"].update(mode="http", base_url_env="TEAM_URL", api_key_env="TEAM_KEY",
                         model_env="TEAM_MODEL")
    return config_from_dict(data)


def test_the_http_port_reads_only_the_variables_the_config_names(monkeypatch):
    for name in ("TEAM_URL", "TEAM_KEY", "TEAM_MODEL"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("ESAP_BASE_URL", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("ESAP_API_KEY", "esap-key")
    monkeypatch.setenv("ESAP_MODEL", "esap-model")
    cfg = _team_http_config()
    with pytest.raises(errors.TransportError, match="set TEAM_URL") as refused:
        _make_chat(cfg)
    assert refused.value.exit_code == 3 and "ESAP" not in str(refused.value)
    # an unset key variable is an empty key, an unset model variable the default model
    monkeypatch.setenv("TEAM_URL", "http://team.test/v1/")
    chat = _make_chat(cfg)
    assert (chat.base_url, chat.api_key, chat.model) == ("http://team.test/v1", "", "gpt-4o")
    monkeypatch.setenv("TEAM_KEY", "team-key")
    monkeypatch.setenv("TEAM_MODEL", "team-model")
    chat = _make_chat(cfg)
    assert (chat.base_url, chat.api_key, chat.model) == \
        ("http://team.test/v1", "team-key", "team-model")


def test_an_unset_configured_base_url_is_port_error_naming_it(kb, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.delenv("TEAM_URL", raising=False)
    # a closed local port: code that still read this variable would fail, offline
    monkeypatch.setenv("ESAP_BASE_URL", "http://127.0.0.1:9/v1")
    config = tmp_path / "team.json"
    config.write_text(json.dumps({"ports": _team_http_config().to_json()["ports"]}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "ask", "--q", "apples?", "--kb", kb,
                             "--config", str(config))
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "TransportError" and "set TEAM_URL" in error["message"]
    assert "ESAP" not in error["message"]


def test_a_configured_base_url_of_only_a_slash_is_port_error_naming_it(
        kb, tmp_path, capsys, monkeypatch):
    # "/" strips to no endpoint, the same as an unset variable
    monkeypatch.setenv("TEAM_URL", "/")
    monkeypatch.setenv("ESAP_BASE_URL", "http://127.0.0.1:9/v1")
    config = tmp_path / "team.json"
    config.write_text(json.dumps({"ports": _team_http_config().to_json()["ports"]}),
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "ask", "--q", "apples?", "--kb", kb,
                             "--config", str(config))
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "TransportError" and "set TEAM_URL" in error["message"]
    assert "ESAP" not in error["message"]


@pytest.mark.parametrize("script, message", [
    (None, "scripted ports need a script file"),
    ("missing.json", "cannot read script file"),
    ("{not json", "script file is not valid JSON"),
    (["structured", 3], "script file must be a JSON array of strings"),
    ({"reply": "structured"}, "script file must be a JSON array of strings"),
], ids=["no-file", "unreadable", "invalid-json", "not-all-strings", "not-a-list"])
def test_bad_script_file_is_config_error(kb, tmp_path, capsys, script, message):
    if script is None:
        ports = "scripted:"
    elif script == "missing.json":
        ports = f"scripted:{tmp_path / script}"
    else:
        path = tmp_path / "script.json"
        path.write_text(script if isinstance(script, str) else json.dumps(script),
                        encoding="utf-8")
        ports = f"scripted:{path}"
    code, out, err = run_cli(capsys, "ask", "--q", "apples?", "--kb", kb,
                             "--ports", ports)
    assert code == 1
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert message in error["message"]


@pytest.mark.parametrize("argv, message", [
    (("ask", "--q", "x", "--ports", "bogus"), "--ports must be stub, scripted:<file>, or http"),
    (("eval-retrieval", "--dataset", "qa=qa.jsonl", "--ks", "1,x"),
     "--ks must be comma-separated integers"),
], ids=["ports", "ks"])
def test_unparsable_flag_values_are_config_errors(tmp_path, capsys, argv, message):
    absent = tmp_path / "absent"
    code, out, err = run_cli(capsys, *argv, "--kb", str(absent))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert message in error["message"]
    assert not absent.exists()


def test_sql_with_a_missing_database_is_config_error(kb, tmp_path, capsys):
    ports = write_script(tmp_path / "script.json", ["structured", "SELECT 1", "0.9"])
    code, _, err = run_cli(capsys, "sql", "--q", "x", "--kb", kb, "--ports", ports,
                           "--db", str(tmp_path / "nowhere.db"))
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    assert "database not found" in error["message"]


def test_unreadable_runs_file_is_user_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "eval-trace", "--runs",
                             str(tmp_path / "missing.jsonl"))
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_mistyped_runs_field_is_data_error(tmp_path, capsys):
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({"qid": "q1", "system": "stub", "question": "q",
                                "answer": 5, "contexts": ["five"]}) + "\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "RunsFormatError"
    assert error["message"] == "line 1: answer must be a string"


def test_a_lone_surrogate_in_a_runs_line_is_data_error(tmp_path, capsys):
    # "\\ud800" alone decodes to a string no UTF-8 writer can print; an
    # escaped pair is one valid character
    runs = tmp_path / "runs.jsonl"
    runs.write_text('{"qid": "q1", "system": "s\\ud83d\\ude00", "question": "q", '
                    '"answer": "a", "contexts": ["a"]}\n'
                    '{"qid": "q2", "system": "s\\ud800", "question": "q", '
                    '"answer": "a", "contexts": ["a"]}\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert (error["error"], error["message"]) == \
        ("RunsFormatError", 'line 2: "system" holds a lone surrogate, which UTF-8 cannot encode')
    runs.write_text(runs.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval-trace", "--runs", str(runs))
    assert code == 0
    assert "s\U0001f600" in json.dumps(json.loads(out), ensure_ascii=False)


@pytest.mark.parametrize("fields, message", [
    ({"answer": "  "}, "line 1: answer is blank"),
    ({"answer": "!!!"}, "line 1: answer has no tokens"),
    ({"contexts": []}, "line 1: contexts hold no non-blank string"),
    ({"qid": 5}, "line 1: qid must be a string"),
    ({"question": 7}, "line 1: question must be a string"),
], ids=["blank-answer", "token-less-answer", "no-contexts", "qid", "question"])
def test_a_runs_record_that_cannot_be_scored_is_data_error(tmp_path, capsys, fields,
                                                           message):
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({"qid": "q1", "system": "stub", "question": "q",
                                "answer": "a", "contexts": ["a"], **fields}) + "\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert (error["error"], error["message"]) == ("RunsFormatError", message)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_in_runs_line_is_data_error(tmp_path, capsys, constant):
    # Python's json module reads these constants; JSON (RFC 8259) has none
    runs = tmp_path / "runs.jsonl"
    runs.write_text('{"qid": "q1", "system": "stub", "question": "q", "answer": "a", '
                    f'"contexts": ["a"], "human_accuracy": {constant}}}\n',
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "eval-trace", "--runs", str(runs))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    error = strict_json(err)
    assert error["error"] == "RunsFormatError"
    assert error["message"].startswith("line 1 is not valid JSON")
    assert constant in error["message"]


@pytest.mark.parametrize("command", COMMANDS)
def test_json_mode_prints_one_document(kb, tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus)
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(json.dumps({
        "qid": "q1", "question": "red apple basket",
        "evidence": [{"doc_id": "fruit-apple",
                      "quote": "The red apple sits in the basket"}],
    }) + "\n", encoding="utf-8")
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({
        "qid": "q1", "system": "stub", "question": "q",
        "answer": "the red apple sits in the basket",
        "contexts": ["the red apple sits in the basket near the window"],
    }) + "\n", encoding="utf-8")
    ports = write_script(tmp_path / "script.json", [
        "structured", "SELECT count(*) FROM chinook_track", "0.9"])
    argv = {
        "ingest": ("--corpus", str(corpus)),
        "index": (),
        "query": ("--q", "red apple"),
        "ask": ("--q", "Where does the red apple sit?"),
        "sql": ("--q", "How many tracks are there?", "--ports", ports),
        "eval-retrieval": ("--dataset", f"toy={dataset}",
                           "--out", str(tmp_path / "retrieval.json")),
        "eval-trace": ("--runs", str(runs)),
        "version": (),
    }[command]
    code, out, err = run_cli(capsys, command, *argv, "--kb", kb)
    assert code == 0 and err == ""
    payload = strict_json(out)
    assert payload["tool_version"] == __version__
    assert payload["config_echo"]["kb"] == kb


def test_allow_empty_flag_lands_in_thor_config(kb, tmp_path, capsys):
    ports = write_script(tmp_path / "script.json", [
        "structured", "SELECT count(*) FROM chinook_track", "0.9"])
    code, out, _ = run_cli(capsys, "sql", "--q", "How many tracks are there?",
                           "--kb", kb, "--ports", ports, "--allow-empty")
    assert code == 0
    payload = json.loads(out)
    assert payload["config_echo"]["thor"]["allow_empty"] is True
    assert payload["result"]["log"]["status"] == "answered"


def test_allow_empty_answers_an_empty_select(kb, tmp_path, capsys):
    ports = write_script(tmp_path / "script.json", [
        "structured", "SELECT name FROM chinook_track WHERE 0", "0.9"])
    code, out, _ = run_cli(capsys, "sql", "--q", "Which tracks are free?",
                           "--kb", kb, "--ports", ports, "--allow-empty")
    assert code == 0
    log = json.loads(out)["result"]["log"]
    assert log["status"] == "answered"
    assert [a["row_count"] for a in log["attempts"]] == [0]
    assert log["narrative"] == "The query returned 0 rows."


def test_pretty_index_ask_and_query_without_hits(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(json.dumps({"id": doc.doc_id, "text": doc.text,
                                            "acl": ["alice"]})
                                for doc in make_toy_kb_documents()) + "\n",
                      encoding="utf-8")
    kb_dir = str(tmp_path / "kb")
    assert run_cli(capsys, "ingest", "--corpus", str(corpus), "--kb", kb_dir)[0] == 0
    code, out, _ = run_cli(capsys, "index", "--kb", kb_dir, "--pretty")
    assert code == 0
    index_dir = Path(kb_dir) / "index"
    assert out.startswith("indexed ")
    assert out.rstrip().endswith(f"(dim=256, size=1000, overlap=150, mode=exact) "
                                 f"-> {index_dir}")

    code, out, _ = run_cli(capsys, "ask", "--q", "Where does the red apple sit?",
                           "--kb", kb_dir, "--principal", "alice", "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert "verdict: sufficient" in lines
    assert "regenerations: 0" in lines
    assert "  [1] fruit-apple#v1#00000" in lines
    assert "config_echo" not in out

    # alice may read every document, bob none
    code, out, _ = run_cli(capsys, "query", "--q", "red apple", "--kb", kb_dir,
                           "--principal", "bob", "--pretty")
    assert code == 0
    assert out == "no results\n"


def test_pretty_sql_verbose_prints_the_table(kb, tmp_path, capsys):
    ports = write_script(tmp_path / "script.json", [
        "structured",
        "SELECT name, unit_price FROM chinook_track ORDER BY unit_price DESC LIMIT 1",
        "0.9",
    ])
    code, out, _ = run_cli(capsys, "sql", "--q", "Which track has the highest unit price?",
                           "--kb", kb, "--ports", ports, "--verbose", "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert "sql: SELECT name, unit_price FROM chinook_track ORDER BY unit_price DESC LIMIT 1" \
        in lines
    assert "attempts: 1 (final rating 0.90)" in lines
    assert lines[-2:] == ["name | unit_price", "Quiet Harbor | 1.99"]
    assert "Quiet Harbor" in lines[0]


def test_pretty_eval_reports_print_their_tables(kb, tmp_path, capsys):
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text(json.dumps({
        "qid": "q1", "question": "red apple basket",
        "evidence": [{"doc_id": "fruit-apple",
                      "quote": "The red apple sits in the basket"}],
    }) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval-retrieval", "--dataset", f"toy={dataset}",
                           "--ks", "1,2", "--kb", kb, "--pretty")
    assert code == 0
    assert "R@1" in out and "toy" in out and "config_echo" not in out

    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({
        "qid": "q1", "system": "stub", "question": "q",
        "answer": "the red apple sits in the basket",
        "contexts": ["the red apple sits in the basket near the window"],
    }) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval-trace", "--runs", str(runs), "--pretty")
    assert code == 0
    assert "pc hallucinated" in out and "config_echo" not in out
