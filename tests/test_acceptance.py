"""Acceptance gate: ten end-to-end criteria, one test and one printed
pass/fail line each. Each test is self-contained and uses independent
oracles (brute force, analytic values, frozen reference rows) rather than
the implementation under test.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from esap.corpus import Chunk, Document, chunk_document
from esap.dense import AnnParams, build_dense_from_texts, search_dense
from esap.derek import DerekPipeline
from esap.evaluation import (
    locate_evidence,
    precision_at_k,
    recall_at_k,
    render_retrieval_table,
    run_retrieval_benchmark,
    trace_scores,
    validate_report_row,
)
from esap.fixtures import TRACKS, load_fixture, seed_music_db
from esap.hybrid import HybridParams, build_hybrid, fuse, rrf_fuse, search_hybrid
from esap.lexical import build_lexical, search_lexical
from esap.ports import ExtractiveStub, HashingEmbedder, ScriptedModel, SqliteExecutor
from esap.synthetic import (
    make_clustered_texts,
    make_planted_corpus,
    make_random_text,
    make_toy_kb_documents,
    planted_precision_at_1,
)
from esap.thor import ThorPipeline
from esap.tokenizer import token_texts
from esap.cli import main as cli_main

_MODULE_T0 = time.perf_counter()


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({label}): FAIL")
                raise
            print(f"criterion {number:2d} ({label}): PASS")
            return result
        return inner
    return wrap


# ---------------------------------------------------------------------------
# 1. chunker round-trip
# ---------------------------------------------------------------------------

def direct_window_count(n_tokens: int, size: int, stride: int) -> int:
    """Count sliding windows by walking them, independently of the chunker."""
    if n_tokens == 0:
        return 0
    count, start = 0, 0
    while True:
        count += 1
        if start + size >= n_tokens:
            return count
        start += stride


@criterion(1, "chunker round-trip, 1000 cases")
def test_criterion_01_chunker_round_trip():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1234))
    for case in range(1000):
        n_tokens = int(rng.integers(0, 90))
        size = int(rng.integers(1, 26))
        overlap = int(rng.integers(0, size))
        text = make_random_text(rng, n_tokens, vocab_size=40)
        doc = Document(doc_id=f"doc{case}", version=1, text=text)
        chunks = chunk_document(doc, size=size, overlap=overlap)

        stream: list[str] = []
        for i, chunk in enumerate(chunks):
            toks = token_texts(chunk.text)
            stream.extend(toks if i == 0 else toks[overlap:])
        assert stream == token_texts(text), (case, size, overlap)

        stride = size - overlap
        formula = 0 if n_tokens == 0 else \
            math.ceil(max(0, n_tokens - size) / stride) + 1
        assert len(chunks) == formula == \
            direct_window_count(n_tokens, size, stride)
    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 2. BM25 against a brute-force reference
# ---------------------------------------------------------------------------

def reference_bm25(chunk_tokens: dict[str, list[str]],
                   query_tokens: list[str],
                   k1: float = 1.2, b: float = 0.75) -> dict[str, float]:
    """Straight transcription of the scoring formula, summed per query
    occurrence, with no sparse structures."""
    n_chunks = len(chunk_tokens)
    avgdl = sum(len(toks) for toks in chunk_tokens.values()) / n_chunks
    df: dict[str, int] = {}
    for toks in chunk_tokens.values():
        for term in set(toks):
            df[term] = df.get(term, 0) + 1
    scores: dict[str, float] = {}
    for chunk_id, toks in chunk_tokens.items():
        total = 0.0
        for term in query_tokens:
            if term not in df:
                continue
            tf = toks.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n_chunks - df[term] + 0.5) / (df[term] + 0.5))
            norm = tf + k1 * (1.0 - b + b * len(toks) / avgdl)
            total += idf * tf * (k1 + 1.0) / norm
        if total != 0.0:
            scores[chunk_id] = total
    return scores


@criterion(2, "BM25 matches brute force on 50 corpora")
def test_criterion_02_bm25_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(50):
        n_chunks = int(rng.integers(1, 21))
        chunks = []
        chunk_tokens = {}
        for i in range(n_chunks):
            text = make_random_text(rng, int(rng.integers(1, 13)), vocab_size=30)
            chunk_id = f"c{i:02d}"
            chunks.append(Chunk(chunk_id=chunk_id, doc_id=f"d{i:02d}", version=1,
                                token_span=(0, len(token_texts(text))),
                                text=text, size_tokens=len(token_texts(text))))
            chunk_tokens[chunk_id] = token_texts(text)
        index = build_lexical(chunks)
        query = make_random_text(rng, int(rng.integers(1, 5)), vocab_size=30)
        got = search_lexical(index, query, k=20)
        want = sorted(reference_bm25(chunk_tokens, token_texts(query)).items(),
                      key=lambda kv: (-kv[1], kv[0]))
        assert [cid for cid, _ in got] == [cid for cid, _ in want]
        for (gc, gs), (wc, ws) in zip(got, want):
            assert gc == wc
            assert abs(gs - ws) < 1e-9


# ---------------------------------------------------------------------------
# 3. dense search fidelity
# ---------------------------------------------------------------------------

def brute_force_order(vectors: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    # the dense score as defined: float64 products added over every
    # dimension in ascending order, from 0.0
    sims = np.zeros(len(vectors))
    for j in range(vectors.shape[1]):
        sims += vectors[:, j].astype(np.float64) * float(query[j])
    order = np.lexsort((np.arange(len(sims)), -sims))
    return [int(i) for i in order[:k]]


@criterion(3, "dense exact + ANN recall, < 60 s")
def test_criterion_03_dense_fidelity():
    started = time.perf_counter()
    embed = HashingEmbedder()

    rng = np.random.Generator(np.random.PCG64(3033))
    for _ in range(100):
        n_texts = int(rng.integers(3, 26))
        texts = [make_random_text(rng, int(rng.integers(2, 15)), vocab_size=60)
                 for _ in range(n_texts)]
        ids = [f"c{i}" for i in range(n_texts)]
        index = build_dense_from_texts(texts, ids, embed,
                                       AnnParams(mode="exact"))
        query = embed([make_random_text(rng, 4, vocab_size=60)])[0]
        k = min(5, n_texts)
        got = [pos for pos, _ in search_dense(index, query, k)]
        assert got == brute_force_order(index.vectors, query, k)

    texts = make_clustered_texts(5000, seed=42)
    ids = [f"v{i:04d}" for i in range(len(texts))]
    index = build_dense_from_texts(texts, ids, embed,
                                   AnnParams(mode="ann", seed=42))
    queries = [embed([t])[0] for t in make_clustered_texts(50, seed=7)]
    recalls = []
    for query in queries:
        truth = set(brute_force_order(index.vectors, query, 10))
        found = {pos for pos, _ in search_dense(index, query, 10)}
        recalls.append(len(truth & found) / 10.0)
    assert sum(recalls) / len(recalls) >= 0.95
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 4. fusion invariants
# ---------------------------------------------------------------------------

@criterion(4, "RRF dominance, permutation invariance, 2/61")
def test_criterion_04_fusion_invariants():
    fused = fuse(["a", "b", "c"], ["a", "c", "b"], c=60)
    assert fused[0] == ("a", 2.0 / 61.0)

    rng = np.random.Generator(np.random.PCG64(4044))
    items = [f"i{j}" for j in range(10)]
    for _ in range(100):
        rest_a = list(rng.permutation(items[1:]))
        rest_b = list(rng.permutation(items[1:]))
        fused = fuse([items[0]] + [str(x) for x in rest_a],
                     [items[0]] + [str(x) for x in rest_b])
        assert fused[0][0] == items[0]

    rankings = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "d"]]
    baseline = rrf_fuse(rankings)
    for perm in itertools.permutations(rankings):
        assert rrf_fuse(list(perm)) == baseline


# ---------------------------------------------------------------------------
# 5. planted-evidence benchmark sanity
# ---------------------------------------------------------------------------

@criterion(5, "planted corpus: R@1 = 100.0, analytic P@1")
def test_criterion_05_planted_benchmark():
    embed = HashingEmbedder()
    documents, records = make_planted_corpus(n_questions=100, seed=42)
    chunks = []
    for doc in documents:
        chunks.extend(chunk_document(doc, size=400, overlap=0))
    acl = {doc.doc_id: sorted(doc.acl) for doc in documents}
    index = build_hybrid(chunks, embed, acl,
                         HybridParams(chunk_size=400, chunk_overlap=0))
    doc_tokens = {d.doc_id: token_texts(d.text) for d in documents}

    ks = (1, 2, 4, 8, 16, 50)
    analytic_p1 = planted_precision_at_1()
    for record in records:
        spans = locate_evidence(record, doc_tokens)
        hits = search_hybrid(index, record["question"], embed, k=max(ks))
        chunk_spans = [(h.doc_id, index.chunks[h.chunk_id].token_span[0],
                        index.chunks[h.chunk_id].token_span[1]) for h in hits]
        assert recall_at_k(chunk_spans[:1], spans) == 1.0, record["qid"]
        assert abs(precision_at_k(chunk_spans[:1], spans) - analytic_p1) < 1e-9
        recalls = [recall_at_k(chunk_spans[:k], spans) for k in ks]
        assert all(lo <= hi for lo, hi in zip(recalls, recalls[1:]))

    report = run_retrieval_benchmark({"planted": records}, index, embed,
                                     doc_tokens, ks=ks)
    row = report["rows"][0]
    assert row["recall"]["1"] == 100.0
    assert row["n_questions"] == 100 and row["n_excluded"] == 0


# ---------------------------------------------------------------------------
# 6. published-row replay through the renderer
# ---------------------------------------------------------------------------

@criterion(6, "reference rows render byte-exact and validate")
def test_criterion_06_reference_row_replay():
    ref = load_fixture("retrieval_reference_rows")
    ks = ref["ks"]

    table_500 = render_retrieval_table({"ks": ks,
                                        "rows": ref["tables"]["chunk_500"]})
    privacy_row = next(line for line in table_500.splitlines()
                       if line.startswith("PrivacyQA"))
    recall_cells = privacy_row.split()[1:1 + len(ks)]
    assert recall_cells == ["18.15", "25.87", "49.28", "64.07", "85.63", "96.47"]

    table_1000 = render_retrieval_table({"ks": ks,
                                         "rows": ref["tables"]["chunk_1000"]})
    cuad_row = next(line for line in table_1000.splitlines()
                    if line.startswith("CUAD"))
    assert cuad_row.split()[len(ks)] == "62.30"

    for rows in ref["tables"].values():
        for row in rows:
            assert validate_report_row(row, ks) == [], row["dataset"]


# ---------------------------------------------------------------------------
# 7. grounding-metric boundaries and fuzz
# ---------------------------------------------------------------------------

@criterion(7, "metric boundaries, 1000-case fuzz, stub mean 0.0")
def test_criterion_07_trace_boundaries():
    text = "the quick brown fox jumps over the lazy dog"
    identical = trace_scores(text, [text])
    assert identical.utilization == 1.0
    assert identical.pc_hallucinated == 0.0
    disjoint = trace_scores("alpha beta gamma", ["delta epsilon zeta eta"])
    assert disjoint.pc_hallucinated == 1.0

    rng = np.random.Generator(np.random.PCG64(7077))
    for _ in range(1000):
        answer = make_random_text(rng, int(rng.integers(1, 30)), vocab_size=12)
        contexts = [make_random_text(rng, int(rng.integers(2, 35)), vocab_size=12)
                    for _ in range(int(rng.integers(1, 4)))]
        gold = make_random_text(rng, int(rng.integers(1, 25)), vocab_size=12) \
            if rng.integers(0, 2) else None
        scores = trace_scores(answer, contexts, gold_answer=gold)
        for value in (scores.pc_hallucinated, scores.utilization,
                      scores.context_relevance, scores.completeness):
            if value is not None:
                assert 0.0 <= value <= 1.0

    embed = HashingEmbedder()
    docs = make_toy_kb_documents()
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=60, overlap=10))
    acl = {doc.doc_id: sorted(doc.acl) for doc in docs}
    index = build_hybrid(chunks, embed, acl,
                         HybridParams(chunk_size=60, chunk_overlap=10))
    pipe = DerekPipeline(index, embed, ExtractiveStub(), k=5)
    questions = [
        "Where does the red apple sit?",
        "How quickly does a ripe banana sweeten?",
        "How are cherries shipped during the season?",
        "When can customers return a fruit order for a refund?",
        "How long does standard shipping take?",
    ]
    rates = []
    for question in questions:
        hits = pipe.retrieve(question)
        answer = pipe.answer(question)
        scores = trace_scores(answer.answer, [h.text for h in hits])
        rates.append(scores.pc_hallucinated)
    assert sum(rates) / len(rates) == 0.0


# ---------------------------------------------------------------------------
# 8. bounded self-correction loop
# ---------------------------------------------------------------------------

GOOD_SQL = ("SELECT name, unit_price FROM chinook_track "
            "ORDER BY unit_price DESC LIMIT 1")
BAD_SQL = "SELECT FROM WHERE"


@criterion(8, "loop: 3 attempts / 4 attempts / db untouched")
def test_criterion_08_thor_loop(tmp_path):
    db_path = seed_music_db(tmp_path / "music.db")
    before = hashlib.sha256(db_path.read_bytes()).hexdigest()
    executor = SqliteExecutor(str(db_path))

    chat = ScriptedModel([BAD_SQL, BAD_SQL, GOOD_SQL, "0.9"])
    log, result = ThorPipeline(executor, chat, max_retries=3) \
        .self_correct_loop("highest price?")
    assert log.status == "answered"
    assert len(log.attempts) == 3
    assert result is not None

    chat = ScriptedModel([BAD_SQL] * 4)
    log, result = ThorPipeline(executor, chat, max_retries=3) \
        .self_correct_loop("highest price?")
    assert log.status == "failed"
    assert len(log.attempts) == 4
    assert result is None

    assert hashlib.sha256(db_path.read_bytes()).hexdigest() == before


# ---------------------------------------------------------------------------
# 9. prompt fixtures: max-price track and fuzzy genre contrast
# ---------------------------------------------------------------------------

@criterion(9, "fixture prompts: max track, fuzzy 3 vs exact 1")
def test_criterion_09_prompt_fixtures(tmp_path):
    executor = SqliteExecutor(str(seed_music_db(tmp_path / "music.db")))
    prompts = load_fixture("nl_sql_prompts")["prompts"]

    price = next(p for p in prompts if p["id"] == "highest_unit_price")
    oracle = max(TRACKS, key=lambda t: t[3])
    for variant in price["variants"]:
        result = executor.execute(variant["sql"])
        assert result.rows == ((oracle[1], oracle[3]),), variant["source"]

    chat = ScriptedModel(["structured",
                          price["variants"][1]["sql"],
                          "0.9"])
    run = ThorPipeline(executor, chat).run(price["question"])
    assert run.table.rows == ((oracle[1], oracle[3]),)
    assert run.insight.key_labels["unit_price.max"] == oracle[1]

    genre = next(p for p in prompts if p["id"] == "hip_hop_count")
    by_source = {v["source"]: executor.execute(v["sql"]).rows[0][0]
                 for v in genre["variants"]}
    assert by_source["baseline_c"] == 1
    assert by_source["agent"] == 3


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _benchmark_once(kb: str, corpus: str, dataset: str, runs: str,
                    out_dir) -> dict[str, bytes]:
    out_dir.mkdir(parents=True, exist_ok=True)
    assert cli_main(["index", "--kb", kb, "--seed", "42",
                     "--chunk-size", "60", "--overlap", "10"]) == 0
    retrieval_out = out_dir / "retrieval.json"
    trace_out = out_dir / "trace.json"
    assert cli_main(["eval-retrieval", "--kb", kb, "--seed", "42",
                     "--dataset", f"toy={dataset}",
                     "--out", str(retrieval_out)]) == 0
    assert cli_main(["eval-trace", "--kb", kb, "--seed", "42",
                     "--runs", runs, "--out", str(trace_out)]) == 0
    return {path.name: path.read_bytes()
            for path in (retrieval_out, retrieval_out.with_suffix(".txt"),
                         trace_out, trace_out.with_suffix(".txt"))}


@criterion(10, "two seeded CLI benchmark runs byte-identical")
def test_criterion_10_cli_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(
        json.dumps({"id": doc.doc_id, "text": doc.text})
        for doc in make_toy_kb_documents()) + "\n", encoding="utf-8")
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text("\n".join(json.dumps(rec) for rec in [
        {"qid": "q1", "question": "red apple basket",
         "evidence": [{"doc_id": "fruit-apple",
                       "quote": "The red apple sits in the basket"}]},
        {"qid": "q2", "question": "banana ripening speed",
         "evidence": [{"doc_id": "fruit-banana",
                       "quote": "A ripe banana turns yellow"}]},
        {"qid": "q3", "question": "return window refund",
         "evidence": [{"doc_id": "policy-returns",
                       "quote": "within seven days for a full refund"}]},
    ]) + "\n", encoding="utf-8")
    runs = tmp_path / "runs.jsonl"
    runs.write_text("\n".join(json.dumps(rec) for rec in [
        {"qid": "q1", "system": "stub", "question": "red apple basket",
         "answer": "The red apple sits in the basket next to the window.",
         "contexts": ["The red apple sits in the basket next to the window. "
                      "Apples keep well in cold storage for several weeks."],
         "gold_answer": "The red apple sits in the basket."},
        {"qid": "q2", "system": "stub", "question": "banana ripening speed",
         "answer": "A ripe banana turns yellow and sweetens quickly.",
         "contexts": ["A ripe banana turns yellow and sweetens quickly. "
                      "Bananas bruise easily during long transport."]},
    ]) + "\n", encoding="utf-8")

    kb = str(tmp_path / "kb")
    assert cli_main(["ingest", "--corpus", str(corpus), "--kb", kb]) == 0

    first = _benchmark_once(kb, str(corpus), str(dataset), str(runs),
                            tmp_path / "run_a")
    second = _benchmark_once(kb, str(corpus), str(dataset), str(runs),
                             tmp_path / "run_b")
    capsys.readouterr()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name

    payload = json.loads(first["retrieval.json"].decode("utf-8"))
    assert payload["config_echo"]["ports"]["mode"] == "stub"
    assert payload["config_echo"]["ann"]["seed"] == 42

    assert time.perf_counter() - _MODULE_T0 < 300.0
