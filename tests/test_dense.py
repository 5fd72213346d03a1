from __future__ import annotations

import numpy as np
import pytest

from esap.dense import (
    AnnParams,
    build_dense_from_texts,
    search_dense,
)
from esap.errors import DimensionMismatch, EmbedderFailure
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts, make_random_text


def brute_scores(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The dense score as defined: float64 products added over every
    dimension in ascending order, from 0.0."""
    sims = np.zeros(len(vectors))
    for j in range(vectors.shape[1]):
        sims += vectors[:, j].astype(np.float64) * float(query[j])
    return sims


def brute_order(vectors: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    sims = brute_scores(vectors, query)
    return [int(i) for i in np.lexsort((np.arange(len(sims)), -sims))[:k]]


def build(texts: list[str], **kwargs):
    params = AnnParams(**kwargs) if kwargs else None
    ids = [f"c{i:05d}" for i in range(len(texts))]
    return build_dense_from_texts(texts, ids, HashingEmbedder(), params)


def test_vectors_unit_norm_or_zero():
    index = build(["red apple", "green pear", "..."])
    norms = np.linalg.norm(index.vectors, axis=1)
    assert norms[0] == pytest.approx(1.0, abs=1e-6)
    assert norms[1] == pytest.approx(1.0, abs=1e-6)
    assert norms[2] == 0.0  # no tokens -> zero vector stays zero


def test_mode_resolution():
    texts = make_clustered_texts(60, seed=9)
    query = build(texts).vectors[3]
    for mode in ("auto", "exact", "ann"):
        for threshold in (1, 10, 60, 61, 5_000):
            index = build(texts, mode=mode, exact_threshold=threshold)
            assert index.mode == "exact"
            got = [pos for pos, _ in search_dense(index, query, 10)]
            assert got == brute_order(index.vectors, query, 10)
    with pytest.raises(ValueError):
        build(texts, mode="fast")


def test_exact_search_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        texts = [make_random_text(rng, int(rng.integers(1, 40)))
                 for _ in range(int(rng.integers(2, 50)))]
        index = build(texts)
        q = index.vectors[int(rng.integers(0, len(texts)))]
        k = int(rng.integers(1, len(texts) + 3))
        got = search_dense(index, q, k)
        assert [pos for pos, _ in got] == brute_order(index.vectors, q, k)


def test_ties_at_the_cut_follow_position():
    texts = make_clustered_texts(120, seed=12)
    copies = list(range(1, 120, 3))              # 40 copies of one text
    for pos in copies:
        texts[pos] = "same boilerplate footer text"
    index = build(texts)
    n = len(texts)
    vectors = index.vectors
    # copies first, then copies behind the neighbours of another text
    for query in (vectors[1], vectors[0] + 0.3 * vectors[1]):
        sims = brute_scores(vectors, query)
        assert len(set(sims[copies].tolist())) == 1
        full = brute_order(vectors, query, n)
        first = min(full.index(pos) for pos in copies)
        for k in (first + 1, first + 20, first + 39, first + 40, first + 41, n, n + 7):
            got = [pos for pos, _ in search_dense(index, query, k)]
            assert got == full[:k], k


def bits(values) -> list[int]:
    """Each float64's bit pattern, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_scores_equal_the_all_dimension_loop_bit_for_bit():
    # the sum over the query's nonzero dimensions is the sum over all of
    # them, for sparse hashed queries, chunk vectors, mixed-sign queries,
    # the zero query and a dense Gaussian one, under every mask and k
    rng = np.random.default_rng(30)
    embed = HashingEmbedder()
    for _ in range(12):
        texts = make_clustered_texts(int(rng.integers(2, 60)), seed=int(rng.integers(1000)))
        texts[0] = texts[-1]                    # at least one exact tie
        index = build(texts)
        n, vectors = len(texts), index.vectors
        i, j = rng.integers(0, n, size=2)
        queries = [embed([make_random_text(rng, int(rng.integers(1, 12)))])[0],
                   vectors[i], vectors[i] + np.float32(0.3) * vectors[j],
                   vectors[i] - vectors[j], np.zeros(index.dim, dtype=np.float32),
                   rng.standard_normal(index.dim).astype(np.float32)]
        for query in queries:
            want = brute_scores(vectors, query)
            for allowed in (None, rng.random(n) < 0.5, rng.random(n) < 0.1):
                keep = np.arange(n) if allowed is None else np.flatnonzero(allowed)
                order = keep[np.lexsort((keep, -want[keep]))].tolist()
                for k in range(1, n + 4):
                    got = search_dense(index, query, k, allowed)
                    assert [pos for pos, _ in got] == order[:k]
                    assert bits([score for _, score in got]) == bits(want[order[:k]])


@pytest.mark.parametrize("n", [1, 40, 600])
def test_a_built_index_holds_one_dimension_major_copy(n, unit_rule):
    # column i is row i of the embedding scaled to unit length by the rule
    texts = make_clustered_texts(n, seed=4)
    texts[-1] = "..."                             # no token: a zero vector
    index = build(texts)
    columns = index.columns
    assert columns.shape == (index.dim, n) and columns.dtype == np.float32
    assert columns.flags.c_contiguous and not columns.flags.writeable
    assert np.shares_memory(index.vectors, columns)
    want = np.stack([unit_rule(row) for row in HashingEmbedder()(texts)])
    assert np.array_equal(index.vectors.view(np.uint32), want.view(np.uint32))
    assert not index.vectors[-1].any()


def test_exact_tie_break_by_position():
    index = build(["same text", "same text", "other words"])
    hits = search_dense(index, index.vectors[0], 3)
    assert [pos for pos, _ in hits][:2] == [0, 1]
    assert hits[0][1] == pytest.approx(hits[1][1])


def test_dimension_mismatch_rejected():
    index = build(["a b c"])
    with pytest.raises(DimensionMismatch):
        search_dense(index, np.zeros(13, dtype=np.float32), 1)


def test_k_validation():
    index = build(["a"])
    with pytest.raises(ValueError):
        search_dense(index, index.vectors[0], 0)


def test_embedder_failure_carries_chunk_id():
    def bad_embed(texts):
        out = np.ones((len(texts), 4), dtype=np.float32)
        out[1, 2] = np.nan
        return out

    with pytest.raises(EmbedderFailure) as err:
        build_dense_from_texts(["a", "b", "c"], ["x0", "x1", "x2"], bad_embed)
    assert err.value.chunk_id == "x1"


@pytest.mark.parametrize("shape", [(3,), (2, 4), (4, 4), (3, 4, 1)],
                         ids=["one-dim", "a-row-short", "a-row-over", "three-dim"])
def test_an_embedding_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(EmbedderFailure, match=r"expected \(3, d\)"):
        build_dense_from_texts(["a", "b", "c"], ["x0", "x1", "x2"],
                               lambda texts: np.ones(shape, dtype=np.float32))


def test_an_embedding_of_no_dimensions_is_refused():
    # a zero-length vector has no length to scale it by
    with pytest.raises(EmbedderFailure, match=r"expected \(2, d\), d >= 1"):
        build_dense_from_texts(["a", "b"], ["x0", "x1"],
                               lambda texts: np.ones((2, 0), dtype=np.float32))


def test_embedder_exception_wrapped():
    def explode(texts):
        raise RuntimeError("remote down")

    with pytest.raises(EmbedderFailure, match="remote down"):
        build_dense_from_texts(["a"], ["c0"], explode)


def test_build_is_deterministic():
    texts = make_clustered_texts(150, seed=5)
    a = build(texts, mode="ann", seed=42)
    b = build(texts, mode="ann", seed=42)
    assert np.array_equal(a.vectors, b.vectors)


def test_ann_close_to_exact_on_clustered_corpus():
    texts = make_clustered_texts(400, seed=8)
    index = build(texts, mode="ann", seed=42)
    hit = 0
    for qi in range(0, 400, 8):
        q = index.vectors[qi]
        want = set(brute_order(index.vectors, q, 10))
        got = {pos for pos, _ in search_dense(index, q, 10)}
        hit += len(want & got)
    assert hit / (50 * 10) >= 0.95


def test_ann_results_sorted_and_unique():
    texts = make_clustered_texts(200, seed=2)
    index = build(texts, mode="ann", seed=1)
    hits = search_dense(index, index.vectors[17], 15)
    positions = [pos for pos, _ in hits]
    sims = [s for _, s in hits]
    assert len(set(positions)) == len(positions)
    assert sims == sorted(sims, reverse=True)
