from __future__ import annotations

import random
import re

import pytest

from esap.corpus import Document, chunk_document
from esap.derek import (
    CRITIQUE_INSTRUCTION,
    Citation,
    CoStarPrompt,
    DerekPipeline,
    PersonaConfig,
    _flatten,
    _strip_markers,
)
from esap.errors import NoContext
from esap.evaluation import supported_mask
from esap.hybrid import HybridParams, build_hybrid
from esap.ports import ChatResponse, ExtractiveStub, HashingEmbedder, ScriptedModel, chat_request
from esap.synthetic import make_clustered_texts, make_toy_kb_documents
from esap.tokenizer import sentences, token_texts


def small_index(embedder, version: int = 1):
    docs = [
        Document("d-apple", version, "The red apple sits in the basket."),
        Document("d-pear", version, "The green pear hangs on the tree."),
        Document("d-banana", version, "Bananas are yellow and sweet."),
    ]
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=64, overlap=8))
    acl = {doc.doc_id: sorted(doc.acl) for doc in docs}
    return build_hybrid(chunks, embedder, acl, HybridParams(chunk_size=64, chunk_overlap=8))


def pipeline_with(embedder, chat, **kwargs):
    return DerekPipeline(small_index(embedder), embedder, chat, k=3, **kwargs)


# ---------------------------------------------------------------------------
# stage: refine
# ---------------------------------------------------------------------------

def test_refine_uses_model_rewrite(embedder):
    chat = ScriptedModel(["red apple location"])
    refined, fallback = pipeline_with(embedder, chat).refine_query("where's the apple?")
    assert refined == "red apple location"
    assert not fallback


def test_refine_falls_back_on_empty_rewrite(embedder):
    chat = ScriptedModel(["   "])
    refined, fallback = pipeline_with(embedder, chat).refine_query("original")
    assert refined == "original"
    assert fallback


def test_refine_rejects_blank_question(embedder):
    with pytest.raises(ValueError):
        pipeline_with(embedder, ScriptedModel([])).refine_query("  ")


# ---------------------------------------------------------------------------
# stage: assemble
# ---------------------------------------------------------------------------

def test_costar_render_sections_in_order():
    prompt = CoStarPrompt(
        snippets=("first snippet", "second snippet"),
        persona=PersonaConfig(objective="obj", style="sty", tone="ton",
                              audience="aud", response_format="fmt"),
        question="q?")
    text = prompt.render()
    assert text.index("# CONTEXT") < text.index("# OBJECTIVE") \
        < text.index("# STYLE") < text.index("# TONE") \
        < text.index("# AUDIENCE") < text.index("# RESPONSE")
    assert "[1] first snippet\n[2] second snippet" in text
    assert text.endswith("QUESTION: q?")


def test_assemble_flattens_snippet_newlines(embedder):
    pipe = pipeline_with(embedder, ScriptedModel([]))
    hits = pipe.retrieve("red apple")
    hits[0] = hits[0].__class__(**{**hits[0].__dict__,
                                   "text": "line one\n  line two"})
    prompt = pipe.assemble_costar("q", hits)
    assert prompt.snippets[0] == "line one line two"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flatten_equals_the_regex_form(seed):
    rng = random.Random(seed)
    pieces = ("word", "x.", " ", "\t", "\r\n", "\n", "\n\n", "\x0b", "\u2003", "\xa0")
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.5:
            text = text.replace("\n", "")
        assert _flatten(text) == re.sub(r"\s*\n\s*", " ", text).strip(), repr(text)


def test_assemble_requires_hits(embedder):
    with pytest.raises(NoContext):
        pipeline_with(embedder, ScriptedModel([])).assemble_costar("q", [])


# ---------------------------------------------------------------------------
# stage: generate
# ---------------------------------------------------------------------------

def test_generate_resolves_and_strips_markers(embedder):
    chat = ScriptedModel(["The apple [1] is red [1]."])
    pipe = pipeline_with(embedder, chat)
    hits = pipe.retrieve("red apple basket")
    prompt = pipe.assemble_costar("red apple basket", hits)
    draft, citations, warnings = pipe.generate(prompt, hits)
    assert draft == "The apple is red."
    assert [c.snippet_no for c in citations] == [1]
    assert citations[0].chunk_id == hits[0].chunk_id
    assert citations[0].doc_id == hits[0].doc_id
    assert warnings == []


def test_generate_drops_out_of_range_markers(embedder):
    chat = ScriptedModel(["apple [1] pear [9]"])
    pipe = pipeline_with(embedder, chat)
    hits = pipe.retrieve("red apple")
    draft, citations, warnings = pipe.generate(
        pipe.assemble_costar("red apple", hits), hits)
    assert [c.snippet_no for c in citations] == [1]
    assert warnings == ["citation [9] out of range, dropped"]
    assert "[9]" not in draft


def test_generate_keeps_the_sentences_each_marker_sits_in(embedder):
    # a sentence's markers are the ones inside it and the ones right after
    # its end; a marker on a piece with no token names no sentence
    chat = ScriptedModel(["Apples keep well. [1] Bananas bruise [2] [1]! "
                          "Apples keep well. [1][9] . [3] tail [2]"])
    pipe = pipeline_with(embedder, chat)
    hits = pipe.retrieve("red apple")
    draft, citations, warnings = pipe.generate(pipe.assemble_costar("q", hits), hits)
    assert draft == "Apples keep well. Bananas bruise! Apples keep well.. tail"
    assert [(c.snippet_no, c.sentences) for c in citations] == [
        (1, ((0, "Apples keep well."), (1, "Bananas bruise!"), (2, "Apples keep well."))),
        (2, ((1, "Bananas bruise!"), (4, "tail"))),
        (3, ()),
    ]
    assert warnings == ["citation [9] out of range, dropped"]


def test_citation_carries_chunk_version(embedder):
    chat = ScriptedModel(["cited [1]"])
    index = small_index(embedder, version=3)
    pipe = DerekPipeline(index, embedder, chat, k=3)
    hits = pipe.retrieve("red apple")
    _, citations, _ = pipe.generate(pipe.assemble_costar("q", hits), hits)
    assert citations[0].version == 3


# ---------------------------------------------------------------------------
# stage: validate
# ---------------------------------------------------------------------------

def test_validate_requires_citations(embedder):
    pipe = pipeline_with(embedder, ScriptedModel([]))
    hits = pipe.retrieve("red apple")
    prompt = pipe.assemble_costar("red apple", hits)
    verdict, reason, _ = pipe.validate("uncited draft", [], prompt)
    assert (verdict, reason) == ("insufficient", "no-citation")


def test_validate_flags_low_support(embedder):
    chat = ScriptedModel(["The red apple sits in the basket. [1]"])
    pipe = pipeline_with(embedder, chat)
    hits = pipe.retrieve("red apple")
    prompt = pipe.assemble_costar("red apple", hits)
    _, citations, _ = pipe.generate(prompt, hits)
    verdict, reason, events = pipe.validate(
        "completely unrelated invented words everywhere", citations, prompt)
    assert (verdict, reason) == ("insufficient", "low-support")
    assert events[0]["support_fraction"] == 0.0


def test_validate_reads_every_snippet_for_a_partly_supported_draft(embedder):
    pipe = pipeline_with(embedder, ScriptedModel(["sufficient"]))
    prompt = CoStarPrompt(("The red apple sits in the basket.",
                           "The green pear hangs on the tree.",
                           "Bananas are yellow and sweet."),
                          PersonaConfig(), "what fruit?")
    citations = [Citation(snippet_no=1, chunk_id="d-apple#v1#00000", doc_id="d-apple",
                          version=1)]
    # trigrams from the first and the last snippet cover 8 of 11 tokens:
    # "the red apple" and "bananas are yellow and sweet"; "is purple and"
    # is in no snippet, so no snippet can be skipped
    draft = "The red apple is purple, and bananas are yellow and sweet."
    _, _, events = pipe.validate(draft, citations, prompt)
    assert events[0] == {"stage": "validate", "support_fraction": round(8 / 11, 4)}


def test_validate_checks_a_sentence_against_the_union_of_its_snippets(embedder):
    # the first and the last snippet support 7 and 5 of the sentence's 13
    # tokens, each below the 0.6 threshold; the two together support 12
    draft = ("The red apple sits in the basket and bananas are yellow and sweet {}.")
    pipe = pipeline_with(embedder, ScriptedModel([draft.format("[1][3]"), "sufficient",
                                                  draft.format("[1]")]))
    prompt = CoStarPrompt(("The red apple sits in the basket.",
                           "The green pear hangs on the tree.",
                           "Bananas are yellow and sweet."),
                          PersonaConfig(), "what fruit?")
    hits = pipe.retrieve("red apple")
    both = pipe.validate(*pipe.generate(prompt, hits)[:2], prompt)
    assert both[:2] == ("sufficient", None)
    one = pipe.validate(*pipe.generate(prompt, hits)[:2], prompt)
    assert one[:2] == ("insufficient", "misattributed")
    assert one[2] == [{"stage": "validate", "support_fraction": round(12 / 13, 4)}]


@pytest.mark.parametrize("snippet_no", [0, 3, 99])
def test_a_citation_outside_the_prompt_supports_nothing(embedder, snippet_no):
    # the draft is the second snippet's sentence, so the whole draft is
    # supported; a number outside the two snippets, 0 included, supports no
    # sentence, so the sentence check fails before the critique is asked
    pipe = pipeline_with(embedder, ScriptedModel(["sufficient"]))
    prompt = CoStarPrompt(("The red apple sits in the basket.",
                           "Bananas are yellow and sweet."), PersonaConfig(), "what fruit?")
    draft = "Bananas are yellow and sweet."
    citations = [Citation(snippet_no=snippet_no, chunk_id="d-banana#v1#00000",
                          doc_id="d-banana", version=1, sentences=((0, draft),))]
    verdict, reason, _ = pipe.validate(draft, citations, prompt)
    assert (verdict, reason) == ("insufficient", "misattributed")
    assert pipe.chat.calls == 0


def test_validate_critique_drives_verdict(embedder):
    draft = "The red apple sits in the basket."
    for reply, expected in (("sufficient", ("sufficient", None)),
                            ("insufficient", ("insufficient", "model-critique")),
                            ("hmm, unclear", ("sufficient", None))):
        chat = ScriptedModel([draft + " [1]", reply])
        pipe = pipeline_with(embedder, chat)
        hits = pipe.retrieve("red apple basket")
        prompt = pipe.assemble_costar("red apple basket", hits)
        cleaned, citations, _ = pipe.generate(prompt, hits)
        verdict, reason, _ = pipe.validate(cleaned, citations, prompt)
        assert (verdict, reason) == expected, reply


def test_critique_prompt_shows_the_drafts_context(embedder):
    sent: list[str] = []

    class Recorder:
        def chat(self, request):
            sent.append(request.last_user)
            return ExtractiveStub().chat(request)

    pipe = pipeline_with(embedder, Recorder())
    hits = pipe.retrieve("red apple basket")
    hits[0] = hits[0].__class__(**{**hits[0].__dict__,
                                   "text": "The red apple\n  sits in the basket."})
    prompt = pipe.assemble_costar("red apple basket", hits)
    cleaned, citations, _ = pipe.generate(prompt, hits)
    verdict, _, _ = pipe.validate(cleaned, citations, prompt)
    assert verdict == "sufficient"
    assert prompt.context in prompt.render()
    assert sent[-1] == ("Review the draft answer against the context snippets.\n"
                        + "\n".join(f"[{i}] {text}" for i, text
                                    in enumerate(prompt.snippets, start=1))
                        + f"\nDRAFT: {cleaned}\n{CRITIQUE_INSTRUCTION}")
    assert "[1] The red apple sits in the basket.\n[2] " in sent[-1]


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

def test_answer_sufficient_first_pass(embedder):
    chat = ScriptedModel([
        "red apple basket",
        "The red apple sits in the basket. [1]",
        "sufficient",
    ])
    pipe = pipeline_with(embedder, chat)
    grounded, session = pipe.answer_with_session("where is the apple?")
    assert grounded.verdict == "sufficient"
    assert grounded.answer == "The red apple sits in the basket."
    assert grounded.regeneration_count == 0
    assert grounded.refined_question == "red apple basket"
    assert [c.doc_id for c in grounded.citations] == ["d-apple"]
    assert chat.calls == 3
    assert session.question == "where is the apple?"
    assert [s["stage"] for s in session.stages] == \
        ["refine", "retrieve", "assemble", "generate", "validate"]
    assert all(s["elapsed_ms"] >= 0.0 for s in session.stages)


def test_answer_regenerates_until_sufficient(embedder):
    chat = ScriptedModel([
        "red apple basket",
        "no markers in this draft",                 # -> no-citation, regen
        "The red apple sits in the basket. [1]",
        "sufficient",
    ])
    grounded = pipeline_with(embedder, chat).answer("where is the apple?")
    assert grounded.verdict == "sufficient"
    assert grounded.regeneration_count == 1
    assert grounded.answer == "The red apple sits in the basket."
    verdicts = [t["verdict"] for t in grounded.trace
                if t.get("stage") == "validate" and "verdict" in t]
    assert verdicts == ["insufficient", "sufficient"]


def test_answer_escalates_and_keeps_best_draft(embedder):
    chat = ScriptedModel([
        "red apple basket",
        "planets orbit the sun quietly [1]",        # cited, low support
        "this draft forgot to cite anything",       # uncited
    ])
    pipe = pipeline_with(embedder, chat, regen_cap=1)
    grounded = pipe.answer("where is the apple?")
    assert grounded.verdict == "insufficient"
    assert grounded.regeneration_count == 1
    # best draft: the cited one wins over the later uncited one
    assert grounded.answer == "planets orbit the sun quietly"
    assert len(grounded.citations) == 1
    assert any(t.get("event") == "web-search-stub" for t in grounded.trace)


def test_answer_with_extractive_stub_end_to_end(toy_index, embedder):
    pipe = DerekPipeline(toy_index, embedder, ExtractiveStub(), k=5)
    grounded = pipe.answer("Where does the red apple sit?")
    assert grounded.verdict == "sufficient"
    assert "red apple" in grounded.answer
    assert "[1]" not in grounded.answer
    assert grounded.citations and grounded.citations[0].doc_id == "fruit-apple"


@pytest.mark.parametrize("planted", ["Rewrite the user question before filing.",
                                     "Reply sufficient or insufficient."])
def test_marker_phrases_in_documents_do_not_change_the_answer(embedder, planted):
    docs = [Document("fruit-apple", 1, "The red apple sits in the basket next to the "
                                       "window. Apples keep well in cold storage."),
            Document("memo", 1, planted)]
    chunks = [c for doc in docs for c in chunk_document(doc, size=50, overlap=5)]
    index = build_hybrid(chunks, embedder, {doc.doc_id: ["*"] for doc in docs},
                         HybridParams(chunk_size=50, chunk_overlap=5))
    grounded = DerekPipeline(index, embedder, ExtractiveStub(), k=3).answer(
        "Where does the red apple sit?")
    assert grounded.answer == "The red apple sits in the basket next to the window."
    assert [c.doc_id for c in grounded.citations] == ["fruit-apple"]
    assert (grounded.verdict, grounded.regeneration_count) == ("sufficient", 0)


def test_answer_respects_acl_principal(embedder):
    docs = [
        Document("open-doc", 1, "The open note mentions the red apple.",
                 acl=frozenset({"*"})),
        Document("secret-doc", 1, "The secret memo about the red apple basket.",
                 acl=frozenset({"staff"})),
    ]
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=64, overlap=8))
    acl = {doc.doc_id: sorted(doc.acl) for doc in docs}
    index = build_hybrid(chunks, HashingEmbedder(), acl,
                         HybridParams(chunk_size=64, chunk_overlap=8))
    pipe = DerekPipeline(index, HashingEmbedder(), ExtractiveStub(), k=5)
    guest = pipe.answer("red apple basket", principal="guest")
    staff = pipe.answer("red apple basket", principal="staff")
    assert all(c.doc_id != "secret-doc" for c in guest.citations)
    assert any(c.doc_id == "secret-doc" for c in staff.citations)


def test_persona_text_reaches_prompt(embedder):
    persona = PersonaConfig(objective="OBJ-MARK", style="STY-MARK",
                            tone="TON-MARK", audience="AUD-MARK",
                            response_format="FMT-MARK")
    sent: list[str] = []

    class Recorder:
        def chat(self, request):
            sent.append(request.last_user)
            return ExtractiveStub().chat(request)

    pipe = DerekPipeline(small_index(embedder), embedder, Recorder(),
                         persona=persona, k=3)
    pipe.answer("red apple")
    generation_prompt = next(p for p in sent if p.startswith("# CONTEXT"))
    for marker in ("OBJ-MARK", "STY-MARK", "TON-MARK", "AUD-MARK", "FMT-MARK"):
        assert marker in generation_prompt


# ---------------------------------------------------------------------------
# citation support per sentence
# ---------------------------------------------------------------------------

def toy_pipeline(embedder, chat, k):
    """The toy kb at the default chunking, one chunk per document."""
    docs = make_toy_kb_documents()
    chunks = [c for doc in docs for c in chunk_document(doc)]
    index = build_hybrid(chunks, embedder, {doc.doc_id: sorted(doc.acl) for doc in docs},
                         HybridParams())
    return DerekPipeline(index, embedder, chat, k=k)


def test_a_sentence_citing_a_snippet_that_does_not_hold_it_is_misattributed(embedder):
    # the sentence is snippet 1's; [2] names fruit-banana. The whole draft is
    # supported, so only the per-sentence check can reject it, and the
    # critique is never asked
    question = "How long does standard shipping take?"
    draft = "Standard shipping takes three business days [2]."
    chat = ScriptedModel([question, draft, draft, draft])
    pipe = toy_pipeline(embedder, chat, k=3)
    assert [h.doc_id for h in pipe.retrieve(question)][:2] == \
        ["policy-shipping", "fruit-banana"]
    grounded = pipe.answer(question)
    assert (grounded.verdict, grounded.reason) == ("insufficient", "misattributed")
    assert grounded.regeneration_count == 2
    assert [c.chunk_id for c in grounded.citations] == ["fruit-banana#v1#00000"]
    assert chat.calls == 4
    assert [t["support_fraction"] for t in grounded.trace
            if "support_fraction" in t] == [1.0] * 3

    right = ScriptedModel([question, draft.replace("[2]", "[1]"), "sufficient"])
    grounded = toy_pipeline(embedder, right, k=3).answer(question)
    assert (grounded.verdict, grounded.regeneration_count) == ("sufficient", 0)


def test_a_point_inside_a_number_does_not_end_a_cited_claim(embedder):
    # "2.5" is one sentence's number, so the whole fee claim is checked
    # against the shipping snippet its [2] names, not just "5 percent."
    docs = [Document("fee", 1, "The fee is 2.5 percent of the order."),
            Document("ship", 1, "Shipping adds 5 percent on weekends.")]
    chunks = [c for doc in docs for c in chunk_document(doc)]
    index = build_hybrid(chunks, embedder, {doc.doc_id: sorted(doc.acl) for doc in docs},
                         HybridParams())
    question, draft = "What is the fee?", "The fee is 2.5 percent [2]."
    chat = ScriptedModel([question, draft, draft, draft])
    pipe = DerekPipeline(index, embedder, chat)
    assert [h.doc_id for h in pipe.retrieve(question)] == ["fee", "ship"]
    grounded = pipe.answer(question)
    assert (grounded.verdict, grounded.reason) == ("insufficient", "misattributed")
    assert grounded.answer == "The fee is 2.5 percent."
    assert [(c.chunk_id, c.sentences) for c in grounded.citations] == \
        [("ship#v1#00000", ((0, "The fee is 2.5 percent."),))]
    assert chat.calls == 4


def test_a_draft_of_markers_only_has_no_support(embedder):
    question = "Where does the red apple sit?"
    chat = ScriptedModel([question, "[1]", "[1]", "[1]"])
    grounded = toy_pipeline(embedder, chat, k=3).answer(question)
    assert (grounded.verdict, grounded.reason) == ("insufficient", "low-support")
    assert grounded.answer == ""
    assert [(c.snippet_no, c.sentences) for c in grounded.citations] == [(1, ())]
    assert [t["support_fraction"] for t in grounded.trace
            if "support_fraction" in t] == [0.0] * 3
    assert chat.calls == 4


# the split before esap.tokenizer.sentences: a sentence ended at every ., !
# or ? run, the markers right after it were its own, and the text after the
# last end was a sentence too
_POINT_SPLIT_RE = re.compile(r"[^.!?]*[.!?]+(?:\s*\[\d+\])*|[^.!?]+\Z")
_POINT_END_RE = re.compile(r"[.!?]+(?:\s*\[\d+\])*")
_DRAFT_PARTS = ["fee", "Apples", "keep", "2", ",", " ", " ", " ", "  ", "\n", "\u00a0",
                ".", "!", "?", "...", "?!", "[1]", "[2]", "[13]", " [4]", "[0]", "(", ")"]


def test_sentence_claims_equal_the_point_split_where_whitespace_follows_each_end():
    rng = random.Random(32)
    compared = 0
    for _ in range(80_000):
        draft = "".join(rng.choices(_DRAFT_PARTS, k=rng.randrange(0, 20)))
        if any(m.end() < len(draft) and not draft[m.end()].isspace()
               for m in _POINT_END_RE.finditer(draft)):
            continue
        old = [p for p in _POINT_SPLIT_RE.findall(draft) if p.strip()]
        new = sentences(draft)
        assert [(re.findall(r"\[\d+\]", p), _strip_markers(p)) for p in new] == \
            [(re.findall(r"\[\d+\]", p), _strip_markers(p)) for p in old], repr(draft)
        compared += 1
    assert compared > 30_000


class DraftThenStub:
    """Answers a draft prompt with ``self.draft`` and every other prompt as
    ExtractiveStub does."""

    draft = ""

    def chat(self, request):
        if request.last_user.startswith("# CONTEXT"):
            return ChatResponse(text=self.draft)
        return ExtractiveStub().chat(request)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_draft_is_sufficient_exactly_when_each_cited_sentence_cites_its_source(
        embedder, seed):
    # every toy sentence shares no trigram with any other document, so a
    # sentence is supported by the snippets it cites exactly when they
    # include its own
    rng = random.Random(seed)
    chat = DraftThenStub()
    pipe = toy_pipeline(embedder, chat, k=5)
    hits = pipe.retrieve("fruit")
    prompt = pipe.assemble_costar("fruit", hits)
    assert len(prompt.snippets) == 5
    sentences = [(number, sentence) for number, snippet in enumerate(prompt.snippets, 1)
                 for sentence in re.split(r"(?<=[.!?])\s+", snippet)]
    for case in range(300):
        pieces = []
        expected = "sufficient"
        cited = False
        for source, sentence in rng.choices(sentences, k=rng.randint(1, 4)):
            markers = rng.sample(range(1, 6), rng.choice([0, 0, 1, 1, 2, 3]))
            if markers:
                cited = True
                if source not in markers:
                    expected = "insufficient"
            marks = rng.choice(["", " "]).join(f"[{m}]" for m in markers)
            if rng.random() < 0.5:                   # after the sentence's end
                pieces.append(f"{sentence} {marks}")
            else:                                    # before its full stop
                pieces.append(f"{sentence[:-1]} {marks}{sentence[-1]}")
        chat.draft = " ".join(pieces)
        draft, citations, _ = pipe.generate(prompt, hits)
        verdict, reason, _ = pipe.validate(draft, citations, prompt)
        if not cited:
            assert (verdict, reason) == ("insufficient", "no-citation"), chat.draft
        else:
            assert verdict == expected, (case, chat.draft)
            assert reason == (None if expected == "sufficient" else "misattributed")


# ---------------------------------------------------------------------------
# validation reads the cited snippets first
# ---------------------------------------------------------------------------

def _reference_validate(pipe, draft, citations, prompt):
    """``DerekPipeline.validate`` reading every snippet, in prompt order."""
    def fraction(text, snippets):
        tokens = token_texts(text)
        if not tokens:
            return 0.0
        mask = supported_mask(tokens, [token_texts(s) for s in snippets], n=pipe.ngram_n)
        return sum(mask) / len(tokens)

    events = []
    if not citations:
        return "insufficient", "no-citation", events
    support = fraction(draft, prompt.snippets)
    events.append({"stage": "validate", "support_fraction": round(support, 4)})
    if support < pipe.support_threshold:
        return "insufficient", "low-support", events
    cited = {}
    for citation in citations:
        for sentence in citation.sentences:
            cited.setdefault(sentence, []).append(prompt.snippets[citation.snippet_no - 1])
    for (_, text), snippets in cited.items():
        if fraction(text, snippets) < pipe.support_threshold:
            return "insufficient", "misattributed", events
    context = "\n".join(f"[{i}] {text}" for i, text in enumerate(prompt.snippets, start=1))
    critique = (f"Review the draft answer against the context snippets.\n"
                f"{context}\nDRAFT: {draft}\n{CRITIQUE_INSTRUCTION}")
    reply = pipe.chat.chat(chat_request(critique)).text.strip().lower()
    if "insufficient" in reply:
        return "insufficient", "model-critique", events
    if "sufficient" not in reply:
        events.append({"stage": "validate", "critique": "unparseable-pass"})
    return "sufficient", None, events


class DraftAndCritique:
    """Answers a draft prompt with ``self.draft``; a critique gets one of
    three replies, chosen by the prompt's length, and is recorded."""

    draft = ""

    def __init__(self):
        self.critiques: list[str] = []

    def chat(self, request):
        prompt = request.last_user
        if prompt.startswith("# CONTEXT"):
            return ChatResponse(text=self.draft)
        self.critiques.append(prompt)
        return ChatResponse(text=("sufficient", "insufficient", "unclear")[len(prompt) % 3])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_equals_reading_every_snippet_in_prompt_order(embedder, seed):
    rng = random.Random(seed)
    texts = make_clustered_texts(60, seed=seed, tokens_per_text=24)
    documents = []
    for i, text in enumerate(texts):
        words = text.split()
        cuts = sorted(rng.sample(range(1, len(words)), 3))
        documents.append(Document(f"d{i:02d}", 1, ". ".join(
            " ".join(words[a:b]) for a, b in zip([0] + cuts, cuts + [len(words)])) + "."))
    chunks = [c for doc in documents for c in chunk_document(doc, size=40, overlap=4)]
    index = build_hybrid(chunks, embedder, {doc.doc_id: ["*"] for doc in documents},
                         HybridParams(chunk_size=40, chunk_overlap=4))
    chat = DraftAndCritique()
    pipe = DerekPipeline(index, embedder, chat, k=12)
    verdicts = set()
    for case in range(150):
        question = rng.choice(texts)
        hits = pipe.retrieve(question)
        prompt = pipe.assemble_costar(question, hits)
        claims = [s.strip() for snippet in prompt.snippets for s in sentences(snippet)]
        pieces = []
        for _ in range(rng.randint(1, 4)):
            claim = rng.choice(claims)
            words = claim.rstrip(".").split()
            kind = rng.random()
            if kind < 0.3:               # part of a claim: partly supported
                start = rng.randrange(len(words))
                claim = " ".join(words[start:start + rng.randint(1, 4)]) + "."
            elif kind < 0.45:            # words no snippet holds
                claim = " ".join(rng.choice(("zq", "xv", "wk")) for _ in words) + "."
            markers = rng.sample(range(1, len(hits) + 2), rng.choice((0, 0, 1, 1, 2, 3)))
            pieces.append(claim[:-1] + "".join(f" [{m}]" for m in markers) + ".")
        chat.draft = " ".join(pieces)
        draft, citations, _ = pipe.generate(prompt, hits)
        before = len(chat.critiques)
        got = pipe.validate(draft, citations, prompt)
        between = len(chat.critiques)
        assert got == _reference_validate(pipe, draft, citations, prompt), (case, chat.draft)
        assert chat.critiques[before:between] == chat.critiques[between:], (case, chat.draft)
        verdicts.add(got[:2])
    # every verdict and reason the draft can reach was reached
    assert verdicts == {("insufficient", "no-citation"), ("insufficient", "low-support"),
                        ("insufficient", "misattributed"), ("insufficient", "model-critique"),
                        ("sufficient", None)}
