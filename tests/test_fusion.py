"""``rrf_fuse`` on arrays equals reciprocal rank fusion as a dict and a sort,
and cutting it at k keeps the head of the whole fused list."""

from __future__ import annotations

import random

import numpy as np
import pytest

from esap.hybrid import rrf_fuse


def _reference_fuse(rankings, c):
    """Reciprocal rank fusion as a running sum per item, then one sort."""
    scores = {}
    for ranking in rankings:
        for rank, item in enumerate(ranking, start=1):
            scores[item] = scores.get(item, 0.0) + 1.0 / (c + rank)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def _bits(fused):
    """Items, their types and the exact score bits, in order."""
    return [(item, type(item), score.hex(), type(score)) for item, score in fused]


def _random_rankings(rng: random.Random, pool: int):
    """One to three rankings of distinct items drawn from range(pool), so
    items repeat across lists; some lists are empty, and a short pool makes
    score ties common."""
    return [rng.sample(range(pool), min(pool, rng.choice((0, 1, 2, rng.randint(0, 60)))))
            for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("c", [1, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_fusion_equals_the_dict_and_sort(c, seed):
    rng = random.Random(seed)
    for _ in range(400):
        rankings = _random_rankings(rng, rng.choice((1, 3, 8, 40, 300)))
        expected = _bits(_reference_fuse(rankings, c))
        positions = [np.array(r, dtype=np.intp) for r in rankings]
        assert _bits(rrf_fuse(positions, c=c)) == expected, rankings
        assert _bits(rrf_fuse(rankings, c=c)) == expected, rankings
        ids = [[f"d{item:03d}#v1#{item % 7:05d}" for item in r] for r in rankings]
        assert _bits(rrf_fuse(ids, c=c)) == _bits(_reference_fuse(ids, c)), ids


@pytest.mark.parametrize("c", [1, 60])
@pytest.mark.parametrize("rankings", [
    [[3, 1, 2]],                        # one list
    [[]],                               # one empty list
    [[], [4, 0]],                       # an empty list beside a full one
    [[], []],
    [],
    [[5, 2], [2, 5]],                   # both items tie
    [[7, 8, 9], [9, 8, 7], [8]],        # repeated across three lists
])
def test_chosen_rankings_fuse_as_the_dict_and_sort(rankings, c):
    expected = _bits(_reference_fuse(rankings, c))
    assert _bits(rrf_fuse([np.array(r, dtype=np.intp) for r in rankings], c=c)) == expected
    ids = [[f"id-{item}" for item in r] for r in rankings]
    assert _bits(rrf_fuse(ids, c=c)) == _bits(_reference_fuse(ids, c))


def test_ids_are_compared_as_python_compares_strings():
    # a numpy string array would drop the trailing NUL and merge the two
    # ids; code points order "Z" before "a" and "é" after both
    rankings = [["a\x00", "é", "Z"], ["a", "Z", "é"]]
    assert _bits(rrf_fuse(rankings)) == _bits(_reference_fuse(rankings, 60))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_cut_fusion_is_the_head_of_the_whole_one(seed):
    rng = random.Random(seed)
    for _ in range(100):
        rankings = _random_rankings(rng, rng.choice((1, 3, 8, 40, 300)))
        c = rng.choice((1, 60))
        for ranked in ([np.array(r, dtype=np.intp) for r in rankings],
                       [[f"id-{item}" for item in r] for r in rankings]):
            whole = _bits(rrf_fuse(ranked, c=c))
            for k in range(1, len(whole) + 3):
                assert _bits(rrf_fuse(ranked, c=c, k=k)) == whole[:k], (rankings, k)


@pytest.mark.parametrize("rankings", [[[3, 1, 2]], []])
def test_a_cut_below_one_is_refused(rankings):
    with pytest.raises(ValueError, match="k must be >= 1"):
        rrf_fuse(rankings, k=0)
