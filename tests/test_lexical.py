from __future__ import annotations

import gc
import math
import random
import sys
import threading
import types
from collections import Counter

import numpy as np
import pytest

from esap import lexical
from esap.corpus import Chunk
from esap.errors import EmptyCorpus
from esap.hybrid import build_hybrid, load_hybrid, save_hybrid, search_hybrid
from esap.lexical import build_lexical, score_query, search_lexical
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts
from esap.tokenizer import term_ids, token_texts


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


def row(index, column, term: str) -> list:
    """The term's row of ``column`` (``index.positions`` or ``index.weights``)."""
    r = index.postings[term]
    return column[index.bounds[r]:index.bounds[r + 1]].tolist()


def test_postings_sorted_and_avgdl():
    texts = ["b b a", "a c", "a"]
    index = build_lexical(make_chunks(texts))
    assert index.n_chunks == 3
    assert index.avgdl == pytest.approx((3 + 2 + 1) / 3)
    assert index.chunk_ids == ["c000", "c001", "c002"]
    # rows in order of first occurrence, each term's postings ascending
    assert index.postings == {"b": 0, "a": 1, "c": 2}
    assert index.bounds.tolist() == [0, 1, 4, 5]
    assert row(index, index.positions, "a") == [0, 1, 2]
    assert row(index, index.positions, "b") == [0]
    # "b" occurs twice in c000 (|d| = 3) and in one chunk of three
    k1, b, tf, avgdl = 1.2, 0.75, 2, (3 + 2 + 1) / 3
    idf = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
    want = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * 3 / avgdl))
    assert row(index, index.weights, "b") == [want]


def test_the_term_id_vocabulary_is_the_postings_map():
    chunks = make_chunks(["b b a", "a c", "a"])
    terms = term_ids([c.text for c in chunks])
    assert build_lexical(chunks, terms=terms).postings is terms[0]


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


def reloaded(index: lexical.LexicalIndex) -> lexical.LexicalIndex:
    """The index ``from_columns`` reads back from ``to_columns``, as a load does."""
    header, parts = lexical.to_columns(index)
    return lexical.from_columns(header, {name: memoryview(bytes(part)) for name, part in parts},
                                index.chunk_ids, index.k1, index.b)


@pytest.mark.parametrize("block", [1, 3, 16])
def test_bit_identical_when_weights_are_computed_in_blocks(monkeypatch, block):
    # the chunk lengths are summed a block of postings at a time: a built and
    # a loaded index score as the dict loop, and their weights are equal
    monkeypatch.setattr(lexical, "_BLOCK", block)
    rng = random.Random(block)
    vocab = [f"w{i}" for i in range(9)]
    several_blocks = 0
    for _ in range(30):
        chunks = make_chunks([" ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 12)))
                              for _ in range(rng.randrange(1, 20))])
        built = build_lexical(chunks, k1=1.6, b=0.4)
        several_blocks += len(built.positions) > 2 * block
        for index in (built, reloaded(built)):
            for term in rng.sample(vocab, len(vocab)):
                query = " ".join([term, *rng.choices(vocab + ["zz"], k=rng.randrange(0, 3))])
                assert score_query(index, query) == old_bm25(chunks, query, k1=1.6, b=0.4)
            assert index.weights.tobytes() == built.weights.tobytes()
            assert index.avgdl == sum(map(len, (token_texts(c.text) for c in chunks))) / len(chunks)
    assert several_blocks >= 10


def arrays_reached(obj) -> list[np.ndarray]:
    """Every numpy array that ``obj`` reaches through its attributes and
    containers (classes and modules are not followed)."""
    found, seen, stack = [], set(), [obj]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, str)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_an_index_holds_no_weights_and_is_read_only(tmp_path):
    # a search computes its rows' weights and keeps none: a built and a
    # loaded index hold no float64 array of one value per posting, before
    # and after searches, and no array that a search could write
    texts = make_clustered_texts(40, seed=5, tokens_per_text=30)
    embed = HashingEmbedder(16)
    built = build_hybrid(make_chunks(texts), embed, {})
    save_hybrid(built, tmp_path)
    loaded = load_hybrid(tmp_path)
    for index in (built.lexical, loaded.lexical):
        m = len(index.positions)
        assert m > 2 * index.n_chunks
        for searched in (False, True):
            if searched:
                for text in texts[:10]:
                    search_hybrid(built, text, embed, k=5)
                    search_hybrid(loaded, text, embed, k=5)
            arrays = arrays_reached(index)
            assert not any(a.dtype == np.float64 and a.size == m for a in arrays)
            assert not any(a.flags.writeable for a in arrays)
            assert {id(a) for a in arrays} >= {id(index.bounds), id(index.positions),
                                               id(index.tf), id(index.norms)}
        assert index.bounds.dtype == np.dtype("<i8")


def test_first_searches_in_threads_score_as_a_sequential_run(monkeypatch, tmp_path):
    monkeypatch.setattr(lexical, "_BLOCK", 64)
    texts = make_clustered_texts(120, seed=7, tokens_per_text=40)
    chunks = make_chunks(texts)
    embed = HashingEmbedder(32)
    save_hybrid(build_hybrid(chunks, embed, {}), tmp_path)
    rng = random.Random(3)
    queries = [" ".join(rng.choice(t.split()) for _ in range(3)) for t in texts[:40]]

    def run(index, order):
        return {q: ([(h.chunk_id, h.score.hex(), h.text)
                     for h in search_hybrid(index, q, embed, k=10)],
                    {c: s.hex() for c, s in score_query(index.lexical, q).items()})
                for q in order}

    want = run(load_hybrid(tmp_path), queries)
    barrier = threading.Barrier(8, timeout=60)
    interval = sys.getswitchinterval()
    # switch threads often, so that they meet inside one block's computation
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(4):
            index = load_hybrid(tmp_path)
            assert len(index.lexical.positions) > 4 * 64
            results = [None] * 8

            def worker(i):
                order = random.Random(8 * attempt + i).sample(queries, len(queries))
                barrier.wait()
                results[i] = run(index, order)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(result == want for result in results)
    finally:
        sys.setswitchinterval(interval)
