from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest

from esap.corpus import chunk_document
from esap.errors import (
    DatasetFormatError,
    EvidenceNotFound,
    RunsFormatError,
)
from esap.evaluation import (
    EvidenceSpan,
    locate_evidence,
    precision_at_k,
    read_qa_jsonl,
    read_runs_jsonl,
    recall_at_k,
    render_generation_table,
    render_retrieval_table,
    run_generation_benchmark,
    run_retrieval_benchmark,
    supported_mask,
    trace_scores,
    validate_report,
    validate_report_row,
)
from esap.hybrid import HybridParams, build_hybrid
from esap.synthetic import make_planted_corpus, make_random_text, planted_precision_at_1
from esap.tokenizer import token_texts


# ---------------------------------------------------------------------------
# n-gram support mask
# ---------------------------------------------------------------------------

def test_supported_mask_hand_case():
    answer = ["the", "red", "apple", "is", "fresh"]
    contexts = [["the", "red", "apple", "sits", "here"]]
    assert supported_mask(answer, contexts, n=3) == \
        [True, True, True, False, False]


def test_supported_mask_short_answer_shrinks_n():
    assert supported_mask(["apple"], [["an", "apple", "tree"]], n=3) == [True]
    assert supported_mask(["apple", "pie"], [["apple", "pie", "day"]], n=3) == \
        [True, True]


def test_supported_mask_never_crosses_context_boundaries():
    # bigram (a, b) exists only if one context holds both adjacent
    answer = ["a", "b"]
    split = [["x", "a"], ["b", "y"]]
    joined = [["x", "a", "b", "y"]]
    assert supported_mask(answer, split, n=2) == [False, False]
    assert supported_mask(answer, joined, n=2) == [True, True]


def test_supported_mask_monotone_in_context():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(100):
        answer = token_texts(make_random_text(rng, 12, vocab_size=20))
        base = [token_texts(make_random_text(rng, 15, vocab_size=20))]
        extra = base + [token_texts(make_random_text(rng, 15, vocab_size=20))]
        before = supported_mask(answer, base, n=3)
        after = supported_mask(answer, extra, n=3)
        assert all(b <= a for b, a in zip(before, after))


def test_supported_mask_edge_inputs():
    assert supported_mask([], [["a"]], n=3) == []
    with pytest.raises(ValueError):
        supported_mask(["a"], [["a"]], n=0)


def reference_supported_mask(answer_tokens, context_token_lists, n):
    """The plain definition: the union of every context's n-grams, then
    each answer window looked up in it."""
    if not answer_tokens:
        return []
    n_eff = min(n, len(answer_tokens))
    context_grams = set()
    for ctx in context_token_lists:
        context_grams |= {tuple(ctx[i:i + n_eff])
                          for i in range(len(ctx) - n_eff + 1)}
    covered = set()
    for i in range(len(answer_tokens) - n_eff + 1):
        if tuple(answer_tokens[i:i + n_eff]) in context_grams:
            covered.update(range(i, i + n_eff))
    return [i in covered for i in range(len(answer_tokens))]


def test_supported_mask_equals_the_union_definition():
    # small vocabularies make shared n-grams common; lengths from 0 reach
    # empty answers and contexts, and ones shorter than n
    rng = random.Random(16)
    for case in range(20_000):
        vocab = [f"t{i}" for i in range(rng.randint(1, 6))]
        n = rng.randint(1, 5)

        def tokens(longest):
            return rng.choices(vocab, k=rng.randint(0, longest))

        answer = tokens(10)
        contexts = [tokens(12) for _ in range(rng.randint(0, 5))]
        expected = reference_supported_mask(answer, contexts, n)
        assert supported_mask(answer, contexts, n=n) == expected, case
        assert supported_mask(answer, iter(contexts), n=n) == expected, case


def test_supported_mask_stops_reading_once_every_ngram_is_found():
    answer = ["the", "red", "apple", "sits", "here"]

    def contexts():
        yield ["so", "the", "red", "apple", "sits", "here", "now"]
        raise AssertionError("a context after full support was read")

    assert supported_mask(answer, contexts(), n=3) == [True] * 5


# ---------------------------------------------------------------------------
# trace scores
# ---------------------------------------------------------------------------

def test_trace_scores_identity_answer():
    text = "the quick brown fox jumps over the lazy dog"
    scores = trace_scores(text, [text], gold_answer=text)
    assert scores.pc_hallucinated == 0.0
    assert scores.utilization == 1.0
    assert scores.context_relevance == 1.0
    assert scores.completeness == 1.0


def test_trace_scores_disjoint_answer():
    scores = trace_scores("alpha beta gamma delta",
                          ["one two three four five"])
    assert scores.pc_hallucinated == 1.0
    assert scores.utilization == 0.0


def test_trace_scores_hand_case():
    scores = trace_scores("the red apple is fresh",
                          ["the red apple sits here"],
                          gold_answer="red apple sits")
    assert scores.pc_hallucinated == pytest.approx(0.4)
    assert scores.utilization == pytest.approx(0.6)
    assert scores.context_relevance == pytest.approx(0.6)
    assert scores.completeness == pytest.approx(2 / 3)


def test_trace_scores_without_gold_omits_gold_metrics():
    scores = trace_scores("some answer text", ["some answer text"])
    assert scores.context_relevance is None
    assert scores.completeness is None
    assert "accuracy" not in scores.to_json()


def test_trace_scores_irrelevant_context_is_complete():
    # gold shares nothing with the context: nothing was there to recover
    scores = trace_scores("one two three", ["one two three"],
                          gold_answer="alpha beta gamma")
    assert scores.context_relevance == 0.0
    assert scores.completeness == 1.0


def test_trace_scores_accuracy_passthrough():
    scores = trace_scores("a b c", ["a b c"], human_accuracy=4.5)
    assert scores.accuracy == 4.5
    assert scores.to_json()["accuracy"] == 4.5


def test_trace_scores_input_validation():
    with pytest.raises(ValueError):
        trace_scores("  ", ["ctx"])
    with pytest.raises(ValueError):
        trace_scores("answer", [])
    with pytest.raises(ValueError):
        trace_scores("answer", ["  "])


def test_trace_scores_refuses_an_answer_with_no_tokens():
    # scoring it would call an answer that states nothing fully grounded
    with pytest.raises(ValueError, match="answer has no tokens"):
        trace_scores("!!!", ["the red apple"], gold_answer="red apple")


def set_trace_scores(answer, contexts, gold_answer, n):
    """TraceScores by the set definition: sets of covered positions and of
    (context, position) pairs, counted and intersected."""
    def ngrams(tokens, n):
        if n < 1 or len(tokens) < n:
            return set()
        return {tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)}

    def covered_positions(tokens, other, n):
        covered = set()
        for i in range(len(tokens) - n + 1):
            if tuple(tokens[i:i + n]) in other:
                covered.update(range(i, i + n))
        return covered

    def context_positions_shared_with(reference, ctx_tokens, n):
        if not reference:
            return set()
        n_eff = min(n, len(reference))
        grams = ngrams(reference, n_eff)
        return {(ci, pos) for ci, ctx in enumerate(ctx_tokens)
                for pos in covered_positions(ctx, grams, n_eff)}

    a_tokens = token_texts(answer)
    ctx_tokens = [token_texts(c) for c in contexts]
    total_ctx = sum(len(c) for c in ctx_tokens)
    n_eff = min(n, len(a_tokens))
    grams = ngrams(a_tokens, n_eff)
    found = set().union(*(ngrams(ctx, n_eff) for ctx in ctx_tokens)) & grams
    supported = len(covered_positions(a_tokens, found, n_eff))
    pc_hallucinated = 1.0 - (supported / len(a_tokens))
    used = context_positions_shared_with(a_tokens, ctx_tokens, n)
    utilization = (len(used) / total_ctx) if total_ctx else 0.0
    context_relevance = completeness = None
    if gold_answer is not None:
        relevant = context_positions_shared_with(token_texts(gold_answer), ctx_tokens, n)
        context_relevance = (len(relevant) / total_ctx) if total_ctx else 0.0
        completeness = (len(used & relevant) / len(relevant)) if relevant else 1.0
    return (pc_hallucinated, utilization, context_relevance, completeness, None)


def test_trace_scores_equal_the_set_definition():
    # small vocabularies make shared n-grams common; a context with no
    # token is blank or punctuation, so every context can be token-less
    rng = random.Random(29)
    for case in range(20_000):
        vocab = [f"t{i}" for i in range(rng.randint(1, 6))]
        n = rng.randint(1, 5)

        def text(fewest, most, empty=""):
            return " ".join(rng.choices(vocab, k=rng.randint(fewest, most))) or empty

        answer = text(1, 10)
        contexts = [text(0, 12, empty=rng.choice(["", "?!"]))
                    for _ in range(rng.randint(1, 5))]
        if not any(c.strip() for c in contexts):
            contexts.append("...")
        gold = rng.choice([None, "", "!!!", text(0, 8), text(1, 8)])
        scores = trace_scores(answer, contexts, gold_answer=gold, n=n)
        assert dataclasses.astuple(scores) == \
            set_trace_scores(answer, contexts, gold, n), case


def test_trace_scores_fuzz_stays_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        answer = make_random_text(rng, int(rng.integers(1, 25)), vocab_size=15)
        contexts = [make_random_text(rng, int(rng.integers(3, 30)), vocab_size=15)
                    for _ in range(int(rng.integers(1, 4)))]
        gold = make_random_text(rng, int(rng.integers(1, 20)), vocab_size=15) \
            if rng.integers(0, 2) else None
        scores = trace_scores(answer, contexts, gold_answer=gold)
        for value in (scores.pc_hallucinated, scores.utilization,
                      scores.context_relevance, scores.completeness):
            if value is not None:
                assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# runs files and the generation benchmark
# ---------------------------------------------------------------------------

def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                    encoding="utf-8")


def run_record(system: str, answer: str, contexts: list[str], **extra) -> dict:
    return {"qid": f"q{id(answer) % 97}", "system": system,
            "question": "q?", "answer": answer, "contexts": contexts, **extra}


def test_read_runs_jsonl_roundtrip(tmp_path):
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [run_record("sys-a", "a b c", ["a b c"])])
    assert read_runs_jsonl(path)[0]["system"] == "sys-a"


def test_read_runs_jsonl_errors(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(RunsFormatError, match="line 1"):
        read_runs_jsonl(path)
    write_jsonl(path, [{"qid": "q", "system": "s", "question": "q",
                        "answer": "a"}])
    with pytest.raises(RunsFormatError, match="contexts"):
        read_runs_jsonl(path)
    write_jsonl(path, [run_record("s", "a", [1, 2])])
    with pytest.raises(RunsFormatError, match="list of strings"):
        read_runs_jsonl(path)
    with pytest.raises(RunsFormatError, match="no runs to evaluate"):
        run_generation_benchmark([])
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(RunsFormatError, match="no records"):
        read_runs_jsonl(path)


@pytest.mark.parametrize("line, message", [
    (b"5", "line 2 must be a JSON object, got int"),
    (b'"qid system question answer contexts"', "line 2 must be a JSON object, got str"),
    (b'["qid", "system", "question", "answer", "contexts"]',
     "line 2 must be a JSON object, got list"),
    (b"\xff", "line 2 is not valid JSON"),
    (json.dumps(run_record(5, "a", ["a"])).encode(), "line 2: system must be a string"),
    (json.dumps(run_record("s", 5, ["a"])).encode(), "line 2: answer must be a string"),
    (json.dumps(run_record("s", "a", ["a"], gold_answer=5)).encode(),
     "line 2: gold_answer must be a string or null"),
    (json.dumps(run_record("s", "a", ["a"], human_accuracy=True)).encode(),
     "line 2: human_accuracy must be a number or null"),
    (json.dumps(run_record("s", "a", ["a"], qid=5)).encode(), "line 2: qid must be a string"),
    (json.dumps(run_record("s", "a", ["a"], question=7)).encode(),
     "line 2: question must be a string"),
    (json.dumps(run_record("s", " \n", ["a"])).encode(), "line 2: answer is blank"),
    (json.dumps(run_record("s", "!!!", ["a"])).encode(), "line 2: answer has no tokens"),
    (json.dumps(run_record("s", "a", [])).encode(),
     "line 2: contexts hold no non-blank string"),
    (json.dumps(run_record("s", "a", ["", " \t"])).encode(),
     "line 2: contexts hold no non-blank string"),
], ids=["int", "string", "array", "bad-utf8", "system", "answer", "gold-answer",
        "bool-human-accuracy", "qid", "question", "blank-answer", "token-less-answer",
        "no-contexts",
        "blank-contexts"])
def test_read_runs_jsonl_rejects_mistyped_lines(tmp_path, line, message):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(json.dumps(run_record("s", "a", ["a"])).encode() + b"\n"
                     + line + b"\n")
    with pytest.raises(RunsFormatError, match=message):
        read_runs_jsonl(path)


def test_every_record_read_from_a_runs_file_can_be_scored(tmp_path):
    # the checks refuse exactly what trace_scores raises on: one blank
    # context beside a non-blank one is scored
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [run_record("s", " a ", ["", "a"])])
    run = read_runs_jsonl(path)[0]
    assert trace_scores(run["answer"], run["contexts"]).pc_hallucinated == 0.0


def test_read_runs_jsonl_accepts_a_null_gold_answer(tmp_path):
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [run_record("s", "a", ["a"], gold_answer=None)])
    assert read_runs_jsonl(path)[0]["gold_answer"] is None


def test_generation_benchmark_groups_and_averages():
    runs = [
        run_record("sys-b", "one two three", ["one two three"]),
        run_record("sys-a", "x y z", ["x y z"], human_accuracy=4.0),
        run_record("sys-a", "p q r", ["a b c"], human_accuracy=2.0),
    ]
    report = run_generation_benchmark(runs)
    assert [row["system"] for row in report["rows"]] == ["sys-a", "sys-b"]
    sys_a = report["rows"][0]
    assert sys_a["n"] == 2
    assert sys_a["pc_hallucinated"] == pytest.approx(0.5)
    assert sys_a["accuracy"] == pytest.approx(3.0)
    assert sys_a["accuracy_n"] == 2
    assert sys_a["completeness"] is None
    assert report["n_runs"] == 3


def test_generation_table_renders_fixed_precision():
    rows = [{"system": "sys-a", "n": 1, "completeness": 0.4307,
             "utilization": 0.5224, "context_relevance": 0.3648,
             "pc_hallucinated": 0.1823, "accuracy": 3.85}]
    table = render_generation_table(rows)
    line = table.splitlines()[2]
    for cell in ("0.4307", "0.5224", "0.3648", "0.1823", "3.85"):
        assert cell in line
    rows[0]["completeness"] = None
    assert "-" in render_generation_table(rows).splitlines()[2]


# ---------------------------------------------------------------------------
# evidence location
# ---------------------------------------------------------------------------

def test_read_qa_jsonl_errors(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"qid": "q1", "question": "?"}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="evidence"):
        read_qa_jsonl(path)
    path.write_text('{"qid": "q1", "question": "?", "evidence": []}\n',
                    encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="non-empty"):
        read_qa_jsonl(path)
    path.write_text('{"qid": "q1", "question": "?", '
                    '"evidence": [{"doc_id": "d"}]}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="quote"):
        read_qa_jsonl(path)
    path.write_text("\n  \n\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="dataset contains no records"):
        read_qa_jsonl(path)


def qa_record(question="red apple", doc_id="d1", quote="red apple") -> dict:
    return {"qid": "q1", "question": question,
            "evidence": [{"doc_id": doc_id, "quote": quote}]}


@pytest.mark.parametrize("line, message", [
    (b"5", "line 2 must be a JSON object, got int"),
    (b'"qid question evidence"', "line 2 must be a JSON object, got str"),
    (b'["qid", "question", "evidence"]', "line 2 must be a JSON object, got list"),
    (b"\xff", "line 2 is not valid JSON"),
    (json.dumps(qa_record(question=5)).encode(), "line 2: question must be a string"),
    (json.dumps(qa_record(doc_id=5)).encode(),
     "line 2: evidence items need doc_id and quote strings"),
    (json.dumps(qa_record(quote=None)).encode(),
     "line 2: evidence items need doc_id and quote strings"),
], ids=["int", "string", "array", "bad-utf8", "question", "doc-id", "quote"])
def test_read_qa_jsonl_rejects_mistyped_lines(tmp_path, line, message):
    path = tmp_path / "qa.jsonl"
    path.write_bytes(json.dumps(qa_record()).encode() + b"\n" + line + b"\n")
    with pytest.raises(DatasetFormatError, match=message):
        read_qa_jsonl(path)


def test_locate_evidence_token_level_and_normalized():
    doc_tokens = {"d1": token_texts("Hello, World! This is FINE text.")}
    record = {"qid": "q1", "question": "?",
              "evidence": [{"doc_id": "d1", "quote": "hello world"}]}
    spans = locate_evidence(record, doc_tokens)
    assert spans == [EvidenceSpan(doc_id="d1", start=0, end=2)]


def test_locate_evidence_first_occurrence_wins():
    doc_tokens = {"d1": ["a", "b", "a", "b"]}
    record = {"qid": "q", "question": "?",
              "evidence": [{"doc_id": "d1", "quote": "a b"}]}
    assert locate_evidence(record, doc_tokens)[0].start == 0


def test_locate_evidence_failures():
    doc_tokens = {"d1": ["alpha", "beta"]}
    base = {"qid": "q", "question": "?"}
    with pytest.raises(EvidenceNotFound, match="not in corpus"):
        locate_evidence({**base, "evidence": [{"doc_id": "nope", "quote": "x"}]},
                        doc_tokens)
    with pytest.raises(EvidenceNotFound, match="not found"):
        locate_evidence({**base, "evidence": [{"doc_id": "d1", "quote": "gamma"}]},
                        doc_tokens)
    with pytest.raises(EvidenceNotFound, match="no tokens"):
        locate_evidence({**base, "evidence": [{"doc_id": "d1", "quote": "!!"}]},
                        doc_tokens)


# ---------------------------------------------------------------------------
# recall / precision at k
# ---------------------------------------------------------------------------

def test_recall_precision_hand_case():
    spans = [EvidenceSpan("d", 10, 20)]
    chunks = [("d", 0, 15)]
    assert recall_at_k(chunks, spans) == pytest.approx(0.5)
    assert precision_at_k(chunks, spans) == pytest.approx(5 / 15)


def test_precision_counts_overlapping_chunk_tokens_twice():
    spans = [EvidenceSpan("d", 10, 20)]
    chunks = [("d", 0, 15), ("d", 10, 20)]
    assert recall_at_k(chunks, spans) == pytest.approx(1.0)
    assert precision_at_k(chunks, spans) == pytest.approx(15 / 25)


def test_recall_ignores_other_documents():
    spans = [EvidenceSpan("d1", 0, 4)]
    assert recall_at_k([("d2", 0, 4)], spans) == 0.0


def test_metrics_empty_edges():
    assert recall_at_k([("d", 0, 5)], []) == 0.0
    assert precision_at_k([], [EvidenceSpan("d", 0, 5)]) == 0.0


# ---------------------------------------------------------------------------
# retrieval benchmark
# ---------------------------------------------------------------------------

def build_planted_index(documents, embedder, size=400, overlap=0):
    chunks = []
    for doc in documents:
        chunks.extend(chunk_document(doc, size=size, overlap=overlap))
    acl = {doc.doc_id: sorted(doc.acl) for doc in documents}
    params = HybridParams(chunk_size=size, chunk_overlap=overlap)
    return build_hybrid(chunks, embedder, acl, params)


def test_planted_benchmark_recall_and_precision(embedder):
    documents, records = make_planted_corpus(n_questions=20, seed=3)
    index = build_planted_index(documents, embedder)
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}
    report = run_retrieval_benchmark({"planted": records}, index, embedder,
                                     doc_tokens, ks=(1, 2, 4))
    row = report["rows"][0]
    assert row["dataset"] == "planted"
    assert row["n_questions"] == 20
    assert row["recall"]["1"] == 100.0
    expected_p1 = 100.0 * planted_precision_at_1()
    assert row["precision"]["1"] == pytest.approx(expected_p1, abs=0.005)
    assert validate_report(report) == []


def test_benchmark_excludes_unlocatable_evidence(embedder):
    documents, records = make_planted_corpus(n_questions=5, seed=9)
    records[2]["evidence"] = [{"doc_id": "missing-doc", "quote": "zq"}]
    index = build_planted_index(documents, embedder)
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}
    report = run_retrieval_benchmark({"planted": records}, index, embedder,
                                     doc_tokens, ks=(1,))
    row = report["rows"][0]
    assert row["n_questions"] == 4
    assert row["n_excluded"] == 1


def test_a_quote_longer_than_its_document_is_excluded(embedder):
    documents, records = make_planted_corpus(n_questions=5, seed=9)
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}
    doc_id = records[2]["evidence"][0]["doc_id"]
    records[2]["evidence"] = [{"doc_id": doc_id, "quote": " ".join(doc_tokens[doc_id] * 2)}]
    with pytest.raises(EvidenceNotFound, match="not found"):
        locate_evidence(records[2], doc_tokens)
    report = run_retrieval_benchmark({"planted": records}, build_planted_index(documents, embedder),
                                     embedder, doc_tokens, ks=(1,))
    row = report["rows"][0]
    assert row["n_questions"] == 4
    assert row["n_excluded"] == 1


def test_benchmark_all_row_pools_questions(embedder):
    documents, records = make_planted_corpus(n_questions=6, seed=5)
    index = build_planted_index(documents, embedder)
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}
    datasets = {"first": records[:2], "second": records[2:]}
    report = run_retrieval_benchmark(datasets, index, embedder, doc_tokens,
                                     ks=(1, 2))
    names = [row["dataset"] for row in report["rows"]]
    assert names == ["first", "second", "ALL"]
    assert report["rows"][2]["n_questions"] == 6
    single = run_retrieval_benchmark({"only": records}, index, embedder,
                                     doc_tokens, ks=(1,))
    assert [row["dataset"] for row in single["rows"]] == ["only"]
    alone = run_retrieval_benchmark({"ALL": records}, index, embedder,
                                    doc_tokens, ks=(1,))
    assert [row["dataset"] for row in alone["rows"]] == ["ALL"]


def test_benchmark_input_validation(embedder):
    documents, records = make_planted_corpus(n_questions=2, seed=1)
    index = build_planted_index(documents, embedder)
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}
    with pytest.raises(DatasetFormatError):
        run_retrieval_benchmark({}, index, embedder, doc_tokens)
    with pytest.raises(ValueError):
        run_retrieval_benchmark({"d": records}, index, embedder, doc_tokens,
                                ks=(0, 1))
    with pytest.raises(ValueError, match="ALL"):
        run_retrieval_benchmark({"d": records, "ALL": records}, index, embedder,
                                doc_tokens)


# ---------------------------------------------------------------------------
# report validation and rendering
# ---------------------------------------------------------------------------

def report_row(recalls, precisions, ks):
    return {"dataset": "d",
            "recall": {str(k): v for k, v in zip(ks, recalls)},
            "precision": {str(k): v for k, v in zip(ks, precisions)}}


def test_validate_report_row_passes_clean_rows():
    row = report_row([10.0, 20.0, 30.0], [5.0, 4.0, 3.0], (1, 2, 4))
    assert validate_report_row(row, (1, 2, 4)) == []


def test_validate_report_row_flags_recall_drop():
    row = report_row([10.0, 9.0, 30.0], [5.0, 4.0, 3.0], (1, 2, 4))
    problems = validate_report_row(row, (1, 2, 4))
    assert problems and "drops" in problems[0]


def test_validate_report_row_flags_out_of_range():
    row = report_row([10.0, 20.0, 130.0], [5.0, 4.0, -1.0], (1, 2, 4))
    problems = validate_report_row(row, (1, 2, 4))
    assert any("outside" in p for p in problems)


def test_render_retrieval_table_cells():
    report = {"ks": [1, 2],
              "rows": [{"dataset": "demo", "recall": {"1": 18.15, "2": 25.87},
                        "precision": {"1": 18.5, "2": 14.02}}]}
    table = render_retrieval_table(report)
    lines = table.splitlines()
    assert lines[0].split() == ["Dataset", "R@1", "R@2", "P@1", "P@2"]
    assert lines[2].split() == ["demo", "18.15", "25.87", "18.50", "14.02"]
