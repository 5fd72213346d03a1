from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import esap
from esap.corpus import Chunk, Document, chunk_document
from esap.errors import DataError, DimensionMismatch, EmbedderFailure, EmptyCorpus
from esap.hybrid import (
    DEFAULT_GUARDS,
    FETCH_FACTOR,
    GuardRule,
    HybridParams,
    apply_guards,
    build_hybrid,
    filter_acl,
    fuse,
    load_hybrid,
    rrf_fuse,
    save_hybrid,
    search_hybrid,
)
from esap.lexical import score_query
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
    # a marker is its kind as written, never a template that could fail or
    # print the match, and an empty match redacts nothing
    for kind, pattern, text, redacted in [
        (r"id\d", r"ID-\d+", "badge ID-7 here", r"badge [REDACTED:id\d] here"),
        (r"\g<0>", r"\d{3}-\d{2}-\d{4}", "SSN 482-17-6093", r"SSN [REDACTED:\g<0>]"),
        ("z", "z*", "pizza buzz", "pi[REDACTED:z]a bu[REDACTED:z]"),
    ]:
        assert apply_guards(text, (GuardRule(kind, pattern),)) == redacted


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


@pytest.mark.parametrize("seed", range(4))
def test_the_access_mask_keeps_what_filter_acl_keeps(tmp_path, seed):
    # random document tables, several chunks per document, every ACL shape:
    # no entry, ["*"], an empty list and one to three principals
    rng = random.Random(seed)
    principals = ["alice", "bob", "carol", "dave"]
    docs = [Document(doc_id=f"d{i:02d}", version=rng.randint(1, 3),
                     text=" ".join(f"w{rng.randint(0, 9)}" for _ in range(rng.randint(1, 30))))
            for i in range(rng.randint(1, 30))]
    chunks = [c for d in docs for c in chunk_document(d, size=4, overlap=1)]
    rng.shuffle(chunks)
    acl = {}
    for d in docs:
        shape = rng.randrange(4)
        if shape == 1:
            acl[d.doc_id] = ["*"]
        elif shape == 2:
            acl[d.doc_id] = []
        elif shape == 3:
            acl[d.doc_id] = rng.sample(principals, rng.randint(1, 3))
    built = build_hybrid(chunks, HashingEmbedder(16), acl, HybridParams())
    save_hybrid(built, tmp_path)
    for index in (built, load_hybrid(tmp_path)):
        table = [(cid, float(pos)) for pos, cid in enumerate(index.chunk_ids)]
        for principal in [*principals, "*", "eve"]:
            mask = index.allowed(principal)
            kept = filter_acl(table, index.chunks, index.doc_acl, principal)
            assert np.flatnonzero(mask).tolist() == [int(pos) for _, pos in kept]
            assert index.allowed(principal) is mask
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = not mask[0]


def test_a_repeated_chunk_id_is_refused_at_build(tmp_path):
    chunks = [Chunk(chunk_id="a", doc_id="d", version=1, token_span=(0, 1), text="one",
                    size_tokens=1),
              Chunk(chunk_id="b", doc_id="d", version=1, token_span=(1, 2), text="two",
                    size_tokens=1),
              Chunk(chunk_id="a", doc_id="e", version=1, token_span=(0, 1), text="three",
                    size_tokens=1)]
    with pytest.raises(DataError, match="chunk_id 'a' repeats") as refused:
        save_hybrid(build_hybrid(chunks, HashingEmbedder(), {}, HybridParams()), tmp_path)
    assert refused.value.exit_code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc_acl", [[("d", ["*"])], None, "d"], ids=["pairs", "none", "string"])
def test_a_doc_acl_that_is_not_a_mapping_is_refused_at_build(doc_acl):
    chunks = [Chunk(chunk_id="a", doc_id="d", version=1, token_span=(0, 1), text="one",
                    size_tokens=1)]
    with pytest.raises(DataError, match="doc_acl must map doc_ids to ACL lists, got") as refused:
        build_hybrid(chunks, HashingEmbedder(), doc_acl, HybridParams())
    assert refused.value.exit_code == 2


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


def test_a_few_readable_documents_are_not_crowded_out():
    # 200 documents only bob may read outrank alice's one document on every
    # term; a filter after the cut would leave alice with nothing
    docs = [Document(doc_id=f"bob{i:03d}", version=1,
                     text=f"quarterly revenue report number {i} for the region")
            for i in range(200)]
    docs.append(Document(doc_id="alice-notes", version=1,
                         text="notes on revenue from the spring offsite"))
    chunks = [c for d in docs for c in chunk_document(d, size=50, overlap=10)]
    acl = {d.doc_id: ["bob"] for d in docs}
    acl["alice-notes"] = ["alice"]
    index = build_hybrid(chunks, HashingEmbedder(), acl,
                         HybridParams(chunk_size=50, chunk_overlap=10))
    hits = search_hybrid(index, "quarterly revenue report", HashingEmbedder(),
                         k=5, principal="alice")
    # first in both lists of alice's own view: 1/61 + 1/61
    assert [(h.doc_id, h.score) for h in hits] == [("alice-notes", 2.0 / 61.0)]
    assert len(search_hybrid(index, "quarterly revenue report",
                             HashingEmbedder(), k=5, principal="bob")) == 5


def test_principal_who_may_read_nothing_gets_an_empty_list():
    index = build_toy_index({doc.doc_id: ["staff"]
                             for doc in make_toy_kb_documents()})
    assert search_hybrid(index, "red apple basket", HashingEmbedder(), k=3,
                         principal="guest") == []
    assert not index.allowed("guest").any()
    assert index.allowed("staff").all()


@pytest.mark.parametrize("query", ["", "???", " \t\n"], ids=["empty", "punctuation", "blank"])
def test_a_query_with_no_tokens_gets_an_empty_list(query):
    # no BM25 candidate and a zero query vector: every chunk would tie at 0
    index = build_toy_index()
    assert search_hybrid(index, query, HashingEmbedder(), k=3) == []
    # the dense side still ranks a tokenless query that embeds to a nonzero vector
    assert len(search_hybrid(index, query, _with_query_embedding(_set(1.0)), k=3)) == 3


def test_equals_fusion_of_brute_force_rankings_of_the_readable_subset(unit_rule):
    # random corpora, ACL layouts and principals: the result is RRF over
    # the full BM25 and cosine rankings restricted to what the principal may
    # read, each cut at FETCH_FACTOR * k, then cut at k
    rng = random.Random(11)
    words = [f"w{j}" for j in range(9)]
    principals = ["alice", "bob", "carol", "dave", "*"]
    embed = HashingEmbedder(16)
    for _ in range(60):
        docs = [Document(doc_id=f"d{i:02d}", version=1,
                         text=" ".join(rng.choices(words, k=rng.randint(1, 25))))
                for i in range(rng.randint(1, 25))]
        chunks = [c for d in docs for c in chunk_document(d, size=5, overlap=1)]
        acl = {}
        for d in docs:
            layout = rng.random()
            if layout < 0.15:
                continue                       # no entry: everyone may read
            acl[d.doc_id] = (["*"] if layout < 0.3 else
                             rng.sample(principals[:4], rng.randint(0, 3)))
        index = build_hybrid(chunks, embed, acl,
                             HybridParams(chunk_size=5, chunk_overlap=1))
        for _ in range(6):
            principal = rng.choice(principals)
            k = rng.randint(1, 8)
            query = " ".join(rng.choices(words + ["zz"], k=rng.randint(1, 4)))
            hits = search_hybrid(index, query, embed, k=k, principal=principal)

            grants = [acl.get(index.chunks[cid].doc_id, ["*"])
                      for cid in index.chunk_ids]
            readable = [pos for pos, grant in enumerate(grants)
                        if "*" in grant or principal in grant]
            cut = FETCH_FACTOR * k
            bm25 = score_query(index.lexical, query)
            lexical = sorted((index.chunk_ids[p] for p in readable
                              if index.chunk_ids[p] in bm25),
                             key=lambda cid: (-bm25[cid], cid))[:cut]
            qv = unit_rule(embed([query])[0])
            # the dense score as defined: float64 products added over every
            # dimension in ascending order, from 0.0
            sims = np.zeros(index.n_chunks)
            for j in range(len(qv)):
                sims += index.dense.vectors[:, j].astype(np.float64) * float(qv[j])
            dense = [index.chunk_ids[p] for p in
                     sorted(readable, key=lambda p: (-float(sims[p]), p))[:cut]]
            expected = rrf_fuse([lexical, dense])[:k] if readable else []
            assert [(h.chunk_id, h.score) for h in hits] == expected


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


_KERNEL_DIGESTS = """
import hashlib
from esap.corpus import Chunk
from esap.dense import embed_query
from esap.hybrid import HybridParams, build_hybrid, search_hybrid
from esap.ports import HashingEmbedder
from esap.synthetic import make_clustered_texts
embed = HashingEmbedder()
queries = make_clustered_texts(2000, seed=31)
vectors = hashlib.sha256()
for query in queries:
    vectors.update(embed_query(embed, query).tobytes())
chunks = [Chunk(chunk_id=f"c{i:04d}", doc_id=f"d{i:04d}", version=1, token_span=(0, 30),
                text=text, size_tokens=30)
          for i, text in enumerate(make_clustered_texts(400, seed=32))]
index = build_hybrid(chunks, embed, {}, HybridParams())
hits = hashlib.sha256()
for query in queries[:500]:
    for hit in search_hybrid(index, query, embed, k=50):
        hits.update(f"{hit.chunk_id} {hit.score.hex()}\\n".encode())
print(vectors.hexdigest(), hits.hexdigest())
"""


def test_query_vectors_and_hits_do_not_depend_on_the_blas_kernel():
    # the same digests under the default OpenBLAS kernel and the Nehalem
    # one, which runs on any x86-64 CPU; where numpy's BLAS ignores
    # OPENBLAS_CORETYPE both runs use one kernel and this passes trivially
    env = {**os.environ, "PYTHONPATH": str(Path(esap.__file__).parents[1])}
    env.pop("OPENBLAS_CORETYPE", None)
    runs = [subprocess.Popen([sys.executable, "-c", _KERNEL_DIGESTS], stdout=subprocess.PIPE,
                             text=True, env={**env, **extra})
            for extra in ({}, {"OPENBLAS_CORETYPE": "Nehalem"})]
    try:
        outs = [proc.communicate(timeout=120)[0] for proc in runs]
    finally:
        for proc in runs:
            proc.kill()
            proc.wait()
    assert [proc.returncode for proc in runs] == [0, 0]
    assert len(outs[0].split()) == 2 and outs[0] == outs[1]


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


# PII fragments that overlap or touch: SSNs inside phone-shaped digit runs,
# digits and dots inside emails, SSN- and phone-shaped email local parts
_PII_PIECES = (
    "123-45-6789", "555-123-4567", "(555) 123-4567", "555.123.4567",
    "555-123-45-6789", "123-45-67890", "1234-56-7890", "(123)45-6789",
    "a.1@b2.c3.com", "x9.y8@mail.example.org", "123-45-6789@d.io",
    "555.123.4567@x.co", "jo.e+tag@host.net.", "a@b.c", "@555-123-4567",
)
_FILLER = ("apple", "ledger", "desk", "Q3", "42", "-", ".", "@", "x7", "plan")


def _pii_text(rng: random.Random) -> str:
    parts = [rng.choice(_PII_PIECES + _FILLER) for _ in range(rng.randint(1, 12))]
    # some matches sit at the chunk's very edges, some are glued together
    if rng.random() < 0.3:
        parts.insert(0, rng.choice(_PII_PIECES))
    if rng.random() < 0.3:
        parts.append(rng.choice(_PII_PIECES))
    return rng.choice(("", " ", "-", ".")).join(parts)


def _pii_index(seed: int, n: int = 60):
    rng = random.Random(seed)
    chunks = [Chunk(chunk_id=f"c{i:03d}", doc_id=f"d{i % 7}", version=1,
                    token_span=(0, 1), text=_pii_text(rng), size_tokens=1)
              for i in range(n)]
    return build_hybrid(chunks, HashingEmbedder(), {}, HybridParams())


_CUSTOM_GUARDS = (
    GuardRule("phone", DEFAULT_GUARDS[2].pattern),     # default rules reordered
    GuardRule("ssn", DEFAULT_GUARDS[1].pattern),
    GuardRule("digits", r"\d{2,}"),
    GuardRule("at", r"@[\w.]+"),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_guarded_text_equals_uncached_apply_guards(seed):
    index = _pii_index(seed)
    embed = HashingEmbedder()
    rule_sets = (DEFAULT_GUARDS, _CUSTOM_GUARDS, ())
    queries = [("apple ledger", index.n_chunks), ("555 desk", 5), ("a.1 mail", 17)]
    # each guard tuple in turn, then interleaved on the same, warm index
    order = [(g, q) for g in rule_sets for q in queries]
    order += [(g, q) for q in queries for g in rule_sets] * 2
    for guards, (query, k) in order:
        hits = search_hybrid(index, query, embed, k=k, guards=guards)
        assert len(hits) == k
        for hit in hits:
            assert hit.text == apply_guards(index.chunks[hit.chunk_id].text, guards)
    # the texts do exercise the rules and their order
    raw = [c.text for c in index.chunks.values()]
    assert any(apply_guards(t) != t for t in raw)
    assert any(apply_guards(t) != apply_guards(t, _CUSTOM_GUARDS) for t in raw)


def test_apply_guards_runs_once_per_chunk_and_guard_tuple(monkeypatch):
    import esap.hybrid

    calls = []

    def counting(text, rules=DEFAULT_GUARDS):
        calls.append(rules)
        return apply_guards(text, rules)

    monkeypatch.setattr(esap.hybrid, "apply_guards", counting)
    index = build_toy_index()
    pii = Chunk(chunk_id="zz-pii", doc_id="pii", version=1, token_span=(0, 1),
                text="mail bob@example.com or call 555-123-4567", size_tokens=1)
    index = build_hybrid([*index.chunks.values(), pii], HashingEmbedder(), {},
                         HybridParams())
    embed = HashingEmbedder()

    def search(guards):
        returned = set()
        for _ in range(4):
            hits = search_hybrid(index, "mail bob call", embed, k=index.n_chunks,
                                 guards=guards)
            returned |= {hit.chunk_id for hit in hits}
        return returned, {hit.chunk_id: hit.text for hit in hits}

    returned, texts = search(DEFAULT_GUARDS)
    assert calls == [DEFAULT_GUARDS] * len(returned)
    assert texts["zz-pii"] == "mail [REDACTED:email] or call [REDACTED:phone]"

    calls.clear()
    custom = (GuardRule("email", r"\S+@\S+"),)
    returned, texts = search(custom)
    assert calls == [custom] * len(returned)
    assert texts["zz-pii"] == "mail [REDACTED:email] or call 555-123-4567"

    calls.clear()
    returned, texts = search(())
    assert calls == [()] * len(returned)
    assert texts == {cid: index.chunks[cid].text for cid in texts}
    assert "bob@example.com" in texts["zz-pii"]

    calls.clear()
    search(DEFAULT_GUARDS)
    assert calls == []
    # a clean chunk's entry is its own text, not a copy
    clean = next(cid for cid, text in texts.items() if "@" not in text)
    assert index.guarded(DEFAULT_GUARDS)[index.chunk_ids.index(clean)] \
        is index.chunks[clean].text
    # the stored chunk text is never rewritten
    assert index.chunks["zz-pii"] == pii
    assert pii.text == "mail bob@example.com or call 555-123-4567"


def test_the_guard_cache_is_looked_up_once_per_search():
    # a guard tuple is hashed, rule by rule, each time its cache is looked up
    hashed = []

    class CountingRule(GuardRule):
        def __hash__(self):
            hashed.append(self.kind)
            return super().__hash__()

    guards = tuple(CountingRule(rule.kind, rule.pattern) for rule in DEFAULT_GUARDS)
    index = _pii_index(4)
    embed = HashingEmbedder()
    for k in (1, 10, index.n_chunks):
        hashed.clear()
        hits = search_hybrid(index, "555 apple", embed, k=k, guards=guards)
        assert len(hits) == k
        assert hashed == [rule.kind for rule in guards]
        assert [hit.text for hit in hits] == \
            [apply_guards(index.chunks[hit.chunk_id].text) for hit in hits]


def test_a_guard_cache_is_built_once_per_guard_tuple():
    index = _pii_index(5)
    embed = HashingEmbedder()
    for guards in (DEFAULT_GUARDS, _CUSTOM_GUARDS, DEFAULT_GUARDS, (), _CUSTOM_GUARDS):
        for k in (1, 10, index.n_chunks):
            hits = search_hybrid(index, "555 apple", embed, k=k, guards=guards)
            assert [hit.text for hit in hits] == \
                [apply_guards(index.chunks[hit.chunk_id].text, guards) for hit in hits]
    # one memo per guard tuple, keyed by the tuple itself
    assert list(index._guarded) == [DEFAULT_GUARDS, _CUSTOM_GUARDS, ()]
    # an equal tuple built anew gets the same memo
    memo = index.guarded(DEFAULT_GUARDS)
    assert index.guarded(tuple(GuardRule(r.kind, r.pattern) for r in DEFAULT_GUARDS)) is memo
    assert len(index._guarded) == 3

    class SameHash(GuardRule):
        def __hash__(self):
            return 7

    # tuples whose hashes collide each get their own memo and their own redaction
    colliding = [(SameHash("email", DEFAULT_GUARDS[0].pattern),), (SameHash("digits", r"\d+"),)]
    assert hash(colliding[0]) == hash(colliding[1])
    for guards in colliding * 2:
        hits = search_hybrid(index, "555 apple", embed, k=index.n_chunks, guards=guards)
        assert [hit.text for hit in hits] == \
            [apply_guards(index.chunks[hit.chunk_id].text, guards) for hit in hits]
    assert list(index._guarded)[3:] == colliding
    memos = [index.guarded(guards) for guards in colliding]
    assert memos[0] is not memos[1] and memos[0] != memos[1]
    assert all(memo == {pos: apply_guards(index.chunks.texts[pos], guards)
                        for pos in range(index.n_chunks)}
               for memo, guards in zip(memos, colliding))


def test_concurrent_first_lookups_return_the_uncached_text():
    index = _pii_index(3)
    embed = HashingEmbedder()
    rule_sets = (DEFAULT_GUARDS, _CUSTOM_GUARDS, ())
    wrong = []

    def worker(offset: int) -> None:
        for i in range(12):
            guards = rule_sets[(offset + i) % len(rule_sets)]
            for hit in search_hybrid(index, "555 apple", embed, k=index.n_chunks,
                                     guards=guards):
                if hit.text != apply_guards(index.chunks[hit.chunk_id].text, guards):
                    wrong.append((hit.chunk_id, guards))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_validation_and_empty_index():
    index = build_toy_index()
    with pytest.raises(ValueError):
        search_hybrid(index, "x", HashingEmbedder(), k=0)
    with pytest.raises(EmptyCorpus):
        build_hybrid([], HashingEmbedder(), {}, HybridParams())


def _with_query_embedding(change):
    """A HashingEmbedder whose result for a search query is changed by ``change``."""
    embed = HashingEmbedder()
    return lambda texts: change(embed(texts))


def _set(value):
    def change(matrix):
        matrix[0, 3] = value
        return matrix
    return change


# query embeddings a search must refuse as it refuses them at build: each
# would otherwise rank on NaN scores, divide inf by inf, drop a row silently
# or index an empty result
BAD_QUERY_EMBEDDINGS = {
    "nan": (_set(np.nan), "non-finite embedding"),
    "inf": (_set(np.inf), "non-finite embedding"),
    "minus-inf": (_set(-np.inf), "non-finite embedding"),
    "two-rows": (lambda m: np.vstack([m, m]), r"shape \(2, 256\), expected \(1, d\)"),
    "no-rows": (lambda m: m[:0], r"shape \(0, 256\), expected \(1, d\)"),
    "one-dim": (lambda m: m[0], r"shape \(256,\), expected \(1, d\)"),
}


@pytest.mark.parametrize("change,message", BAD_QUERY_EMBEDDINGS.values(),
                         ids=BAD_QUERY_EMBEDDINGS.keys())
def test_a_bad_query_embedding_is_embedder_failure(change, message):
    index = build_toy_index()
    with pytest.raises(EmbedderFailure, match=message) as refused:
        search_hybrid(index, "red apple basket", _with_query_embedding(change), k=3)
    assert refused.value.exit_code == 2


def test_a_raising_query_embedder_is_embedder_failure():
    def explode(texts):
        raise RuntimeError("remote down")

    with pytest.raises(EmbedderFailure, match="embedding failed: remote down") as refused:
        search_hybrid(build_toy_index(), "red apple basket", explode, k=3)
    assert refused.value.exit_code == 2
    assert isinstance(refused.value.__cause__, RuntimeError)


def test_a_query_embedding_of_another_width_is_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="query dimension 13 != index dimension 256"):
        search_hybrid(build_toy_index(), "red apple basket", HashingEmbedder(13), k=3)


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
