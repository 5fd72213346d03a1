from __future__ import annotations

import itertools
import random

import pytest

from esap.corpus import Chunk, Document, chunk_document
from esap.errors import EmptyCorpus, EmptyIndex
from esap.hybrid import (
    DEFAULT_GUARDS,
    GuardRule,
    HybridParams,
    apply_guards,
    build_hybrid,
    filter_acl,
    fuse,
    rrf_fuse,
    search_hybrid,
)
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts, make_toy_kb_documents


# ---------------------------------------------------------------------------
# reciprocal rank fusion
# ---------------------------------------------------------------------------

def test_hand_values():
    # rank 1 in both lists: 1/61 + 1/61 = 2/61
    fused = dict(fuse(["a", "b"], ["a", "c"]))
    assert fused["a"] == pytest.approx(2.0 / 61.0, abs=1e-15)
    # rank 3 in a single list: 1/63
    fused = dict(rrf_fuse([["x", "y", "z"]]))
    assert fused["z"] == pytest.approx(1.0 / 63.0, abs=1e-15)


def test_top_in_both_lists_wins():
    rng = random.Random(4)
    items = [f"i{j}" for j in range(8)]
    for _ in range(100):
        rest = items[1:]
        rng.shuffle(rest)
        left = ["i0"] + rest
        rest2 = items[1:]
        rng.shuffle(rest2)
        right = ["i0"] + rest2
        assert rrf_fuse([left, right])[0][0] == "i0"


def test_permutation_invariance_in_list_order():
    lists = [["a", "b", "c"], ["b", "a"], ["c", "a", "b"]]
    base = rrf_fuse(lists)
    for perm in itertools.permutations(lists):
        assert rrf_fuse(list(perm)) == base


def test_removing_an_item_never_helps_others():
    lists = [["a", "b", "c"], ["c", "b", "a"]]
    with_all = dict(rrf_fuse(lists))
    without_a = dict(rrf_fuse([[x for x in lst if x != "a"] for lst in lists]))
    for item, score in without_a.items():
        assert score >= with_all[item]  # removal can only improve ranks


def test_ties_break_by_chunk_id():
    fused = rrf_fuse([["b"], ["a"]])
    assert [cid for cid, _ in fused] == ["a", "b"]
    assert fused[0][1] == fused[1][1]


def test_custom_c():
    fused = dict(rrf_fuse([["a"], ["a"]], c=1))
    assert fused["a"] == pytest.approx(1.0, abs=1e-15)  # 1/2 + 1/2


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_guard_redaction_kinds():
    text = ("reach bob@example.com or 555-123-4567; "
            "ssn 123-45-6789 stays private")
    redacted = apply_guards(text)
    assert "[REDACTED:email]" in redacted
    assert "[REDACTED:phone]" in redacted
    assert "[REDACTED:ssn]" in redacted
    assert "bob@example.com" not in redacted
    assert "123-45-6789" not in redacted


def test_guards_leave_clean_text_alone():
    text = "nothing sensitive here, just words"
    assert apply_guards(text) == text


def test_guard_rule_order_ssn_before_phone():
    # an SSN also matches loose phone shapes; the ssn rule runs first
    assert apply_guards("123-45-6789") == "[REDACTED:ssn]"


def test_custom_guard_rules():
    rules = (GuardRule(kind="ticket", pattern=r"TCK-\d+"),)
    assert apply_guards("see TCK-42 for details", rules) == \
        "see [REDACTED:ticket] for details"


def test_text_outside_matches_untouched():
    text = "prefix bob@example.com suffix"
    redacted = apply_guards(text)
    assert redacted.startswith("prefix ")
    assert redacted.endswith(" suffix")


# ---------------------------------------------------------------------------
# ACL filtering
# ---------------------------------------------------------------------------

def _chunk(cid: str, doc_id: str) -> Chunk:
    return Chunk(chunk_id=cid, doc_id=doc_id, version=1, token_span=(0, 1),
                 text="t", size_tokens=1)


def test_filter_acl_order_preserving_and_idempotent():
    ranked = [("c2", 0.9), ("c1", 0.8), ("c3", 0.7)]
    chunks = {cid: _chunk(cid, f"d{cid[-1]}") for cid, _ in ranked}
    acl = {"d1": ["*"], "d2": ["staff"], "d3": ["staff", "admin"]}
    got = filter_acl(ranked, chunks, acl, "staff")
    assert got == ranked  # staff sees everything, order kept
    anon = filter_acl(ranked, chunks, acl, "guest")
    assert anon == [("c1", 0.8)]
    assert filter_acl(anon, chunks, acl, "guest") == anon


def test_wildcard_principal_matches_wildcard_docs_only():
    ranked = [("c1", 0.5), ("c2", 0.4)]
    chunks = {cid: _chunk(cid, f"d{cid[-1]}") for cid, _ in ranked}
    acl = {"d1": ["*"], "d2": ["staff"]}
    assert filter_acl(ranked, chunks, acl, "*") == [("c1", 0.5)]


# ---------------------------------------------------------------------------
# end-to-end search
# ---------------------------------------------------------------------------

def build_toy_index(acl_overrides: dict[str, list[str]] | None = None):
    docs = make_toy_kb_documents()
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=50, overlap=10))
    acl = {doc.doc_id: ["*"] for doc in docs}
    acl.update(acl_overrides or {})
    return build_hybrid(chunks, HashingEmbedder(),
                        acl, HybridParams(chunk_size=50, chunk_overlap=10))


def test_search_finds_the_obvious_chunk():
    index = build_toy_index()
    hits = search_hybrid(index, "red apple basket", HashingEmbedder(), k=1)
    assert hits[0].doc_id == "fruit-apple"


def test_acl_prefilter_happens_before_truncation():
    # k=1 with the apple doc hidden must yield the next allowed hit,
    # not an empty list
    index = build_toy_index({"fruit-apple": ["staff"]})
    hits = search_hybrid(index, "red apple basket", HashingEmbedder(), k=1,
                         principal="guest")
    assert len(hits) == 1
    assert hits[0].doc_id != "fruit-apple"
    staff_hits = search_hybrid(index, "red apple basket", HashingEmbedder(),
                               k=1, principal="staff")
    assert staff_hits[0].doc_id == "fruit-apple"


def test_scores_non_increasing_and_ids_unique():
    index = build_toy_index()
    hits = search_hybrid(index, "shipping days", HashingEmbedder(), k=5)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)
    assert len({h.chunk_id for h in hits}) == len(hits)


def test_hits_match_a_pinned_list():
    # 360 chunks, so the lexical list is cut at 4 * k = 32 of them; the
    # query repeats a term and holds one no chunk has. The list was written
    # down from the per-posting dict loop the columnar BM25 replaced.
    docs = [Document(doc_id=f"d{i:03d}", version=1, text=text)
            for i, text in enumerate(make_clustered_texts(120, seed=5))]
    chunks = [c for d in docs for c in chunk_document(d, size=12, overlap=2)]
    acl = {d.doc_id: ["*"] if i % 3 else ["ops"] for i, d in enumerate(docs)}
    index = build_hybrid(chunks, HashingEmbedder(), acl,
                         HybridParams(chunk_size=12, chunk_overlap=2))
    hits = search_hybrid(index, "c3 c3 t7w5 c12 t7w40 zzz", HashingEmbedder(),
                         k=8, principal="ops")
    assert [(h.chunk_id, h.score) for h in hits] == [
        ("d059#v1#00000", 0.03252247488101534),
        ("d053#v1#00000", 0.03131881575727918),
        ("d081#v1#00002", 0.03125763125763126),
        ("d006#v1#00002", 0.030621785881252923),
        ("d040#v1#00002", 0.029957522915269395),
        ("d070#v1#00002", 0.0293236301369863),
        ("d086#v1#00001", 0.028594771241830064),
        ("d111#v1#00001", 0.02854251012145749),
    ]


def test_guards_applied_to_returned_text():
    doc = Document(doc_id="contact", version=1,
                   text="Email the desk at help@shop.example to ask anything.")
    chunks = chunk_document(doc, size=50, overlap=10)
    index = build_hybrid(chunks, HashingEmbedder(), {"contact": ["*"]},
                         HybridParams(chunk_size=50, chunk_overlap=10))
    hits = search_hybrid(index, "email desk", HashingEmbedder(), k=1)
    assert "[REDACTED:email]" in hits[0].text
    # the stored chunk is untouched; only the returned copy is redacted
    assert "help@shop.example" in index.chunks[hits[0].chunk_id].text


def test_validation_and_empty_index():
    index = build_toy_index()
    with pytest.raises(ValueError):
        search_hybrid(index, "x", HashingEmbedder(), k=0)
    with pytest.raises(ValueError):
        search_hybrid(index, "x", HashingEmbedder(), k=1, overfetch=0)
    with pytest.raises(EmptyCorpus):
        build_hybrid([], HashingEmbedder(), {}, HybridParams())


def test_chunks_sorted_by_id_regardless_of_input_order():
    docs = make_toy_kb_documents()
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=50, overlap=10))
    shuffled = list(reversed(chunks))
    a = build_hybrid(chunks, HashingEmbedder(), {}, HybridParams())
    b = build_hybrid(shuffled, HashingEmbedder(), {}, HybridParams())
    assert a.chunk_ids == b.chunk_ids
    assert (a.dense.vectors == b.dense.vectors).all()
