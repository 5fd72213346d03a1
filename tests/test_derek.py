from __future__ import annotations

import pytest

from esap.corpus import Document, chunk_document
from esap.derek import (
    CRITIQUE_INSTRUCTION,
    Citation,
    CoStarPrompt,
    DerekPipeline,
    PersonaConfig,
)
from esap.errors import ModelRefusal, NoContext
from esap.hybrid import HybridParams, build_hybrid
from esap.ports import ExtractiveStub, HashingEmbedder, ScriptedModel, chat_request


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


def test_refine_falls_back_on_refusal(embedder):
    class Refuser:
        def chat(self, request):
            raise ModelRefusal("no")
    refined, fallback = pipeline_with(embedder, Refuser()).refine_query("original")
    assert (refined, fallback) == ("original", True)


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


def test_validate_passes_when_critique_port_fails(embedder):
    class FlakyChat:
        def chat(self, request):
            raise ModelRefusal("overloaded")
    pipe = pipeline_with(embedder, FlakyChat())
    hits = pipe.retrieve("red apple basket")
    citations_source = ScriptedModel(["The red apple sits in the basket. [1]"])
    gen_pipe = pipeline_with(embedder, citations_source)
    prompt = gen_pipe.assemble_costar("red apple basket", hits)
    cleaned, citations, _ = gen_pipe.generate(prompt, hits)
    verdict, reason, events = pipe.validate(cleaned, citations, prompt)
    assert (verdict, reason) == ("sufficient", None)
    assert {"stage": "validate", "critique": "fallback-pass"} in events


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
