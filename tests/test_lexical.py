from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from esap.corpus import Chunk
from esap.errors import EmptyCorpus
from esap.lexical import build_lexical, score_query, search_lexical
from esap.tokenizer import token_texts


def make_chunks(texts: list[str]) -> list[Chunk]:
    return [Chunk(chunk_id=f"c{i:03d}", doc_id="d", version=1,
                  token_span=(0, 0), text=text, size_tokens=len(token_texts(text)))
            for i, text in enumerate(texts)]


def reference_bm25(texts: list[str], query: str,
                   k1: float = 1.2, b: float = 0.75) -> dict[str, float]:
    """Brute-force reference: score(q,d) = sum over query tokens of
    idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b*|d|/avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))."""
    docs = [token_texts(t) for t in texts]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    scores: dict[str, float] = {}
    for term in token_texts(query):
        df = sum(1 for d in docs if term in d)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for i, d in enumerate(docs):
            tf = d.count(term)
            if tf == 0:
                continue
            denom = tf + k1 * (1.0 - b + b * len(d) / avgdl)
            scores[f"c{i:03d}"] = scores.get(f"c{i:03d}", 0.0) + idf * tf * (k1 + 1.0) / denom
    return scores


def test_hand_case_single_term_is_ln2():
    # N=2, df=1 -> idf = ln(1 + 1.5/1.5) = ln 2; tf=1, |d|=avgdl -> tf factor 1
    index = build_lexical(make_chunks(["red apple", "green pear"]))
    scores = score_query(index, "apple")
    assert scores["c000"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert "c001" not in scores
    hits = search_lexical(index, "apple", 2)
    assert hits[0][0] == "c000"
    assert len(hits) == 1


def test_absent_term_scores_nothing():
    index = build_lexical(make_chunks(["red apple", "green pear"]))
    assert score_query(index, "orange") == {}
    assert search_lexical(index, "orange", 5) == []


def test_identical_chunks_tie_break_by_chunk_id():
    index = build_lexical(make_chunks(["same words here", "same words here"]))
    hits = search_lexical(index, "words", 2)
    assert [cid for cid, _ in hits] == ["c000", "c001"]
    assert hits[0][1] == pytest.approx(hits[1][1], abs=0.0)


def test_repeated_query_terms_accumulate():
    index = build_lexical(make_chunks(["apple pie", "pear pie"]))
    once = score_query(index, "apple")["c000"]
    twice = score_query(index, "apple apple")["c000"]
    assert twice == pytest.approx(2.0 * once, rel=1e-12)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_lexical([])


def test_k_validation():
    index = build_lexical(make_chunks(["a"]))
    with pytest.raises(ValueError):
        search_lexical(index, "a", 0)


def test_postings_sorted_and_avgdl():
    texts = ["b b a", "a c", "a"]
    index = build_lexical(make_chunks(texts))
    assert index.n_chunks == 3
    assert index.avgdl == pytest.approx((3 + 2 + 1) / 3)
    assert index.chunk_ids == ["c000", "c001", "c002"]
    assert index.positions[index.postings["a"]].tolist() == [0, 1, 2]
    assert index.positions[index.postings["b"]].tolist() == [0]
    # "b" occurs twice in c000 (|d| = 3) and in one chunk of three
    k1, b, tf, avgdl = 1.2, 0.75, 2, (3 + 2 + 1) / 3
    idf = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
    want = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * 3 / avgdl))
    assert index.weights[index.postings["b"]].tolist() == [want]


def test_matches_brute_force_on_random_corpora():
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(50):
        n_chunks = rng.randrange(1, 21)
        texts = [" ".join(rng.choice(vocab)
                          for _ in range(rng.randrange(1, 40)))
                 for _ in range(n_chunks)]
        query = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        index = build_lexical(make_chunks(texts))
        got = score_query(index, query)
        want = reference_bm25(texts, query)
        assert set(got) == set(want)
        for cid, score in want.items():
            assert got[cid] == pytest.approx(score, abs=1e-9)
        ranked = search_lexical(index, query, n_chunks)
        want_order = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [cid for cid, _ in ranked] == [cid for cid, _ in want_order]


def old_bm25(chunks: list[Chunk], query: str, k1: float = 1.2,
             b: float = 0.75) -> dict[str, float]:
    """The per-posting dict loop the columnar index replaced, transcribed:
    tuple postings in chunk_id order, lengths keyed by chunk_id, and the
    length norm recomputed for every posting of every query term."""
    postings: dict[str, list[tuple[str, int]]] = {}
    chunk_lengths: dict[str, int] = {}
    for chunk in sorted(chunks, key=lambda c: c.chunk_id):
        terms = token_texts(chunk.text)
        chunk_lengths[chunk.chunk_id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((chunk.chunk_id, tf))
    n = len(chunks)
    avgdl = sum(chunk_lengths.values()) / n
    scores: dict[str, float] = {}
    for term in token_texts(query):
        plist = postings.get(term)
        if not plist:
            continue
        idf = math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
        for chunk_id, tf in plist:
            denom = tf + k1 * (1.0 - b + b * chunk_lengths[chunk_id] / avgdl)
            scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * tf * (k1 + 1.0) / denom
    return scores


def test_bit_identical_to_the_dict_loop_on_random_corpora():
    rng = random.Random(29)
    vocab = [f"w{i}" for i in range(12)]
    ties_at_cut = 0
    for _ in range(200):
        # a small pool of texts, drawn with repeats, makes equal scores common
        pool = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 9)))
                for _ in range(rng.randrange(1, 8))]
        chunks = make_chunks([rng.choice(pool) for _ in range(rng.randrange(1, 25))])
        k1, b = rng.choice([(1.2, 0.75), (1.6, 0.4), (0.9, 1.0)])
        index = build_lexical(chunks, k1=k1, b=b)
        # repeated and unknown terms, and the empty query
        query = " ".join(rng.choice(vocab + ["zz", "zz"])
                         for _ in range(rng.randrange(0, 7)))
        want = old_bm25(chunks, query, k1=k1, b=b)
        assert score_query(index, query) == want
        ranked = sorted(want.items(), key=lambda item: (-item[1], item[0]))
        for k in range(1, len(chunks) + 3):
            assert search_lexical(index, query, k) == ranked[:k]
            if k < len(ranked) and ranked[k - 1][1] == ranked[k][1]:
                ties_at_cut += 1
    assert ties_at_cut > 100


def test_bit_identical_where_numpy_log_rounds_differently():
    # at N = df = 29, np.log and math.log round ln(1 + 0.5 / 29.5) one ulp apart
    chunks = make_chunks([f"a w{i % 5}" for i in range(29)])
    index = build_lexical(chunks)
    for query in ("a", "a w1", "w3 a a"):
        assert score_query(index, query) == old_bm25(chunks, query)
