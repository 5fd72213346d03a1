"""Grounded question answering: refine, retrieve, assemble, generate, validate.

The pipeline rewrites the question for retrieval, pulls the fused top-k
snippets, lays them into a structured prompt (context, objective, style,
tone, audience, response format), asks the chat port for a cited draft,
and validates the draft before returning it. Insufficient drafts trigger
bounded regeneration; escalation to web search is logged but does nothing.
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, field

from .errors import ModelRefusal, NoContext, TransportError
from .evaluation import DEFAULT_NGRAM, supported_mask
from .hybrid import DEFAULT_GUARDS, DEFAULT_K, GuardRule, Hit, HybridIndex, search_hybrid
from .ports import ChatPort, chat_request
from .tokenizer import token_texts

REFINE_INSTRUCTION = ("Rewrite the user question to maximize retrieval "
                      "precision; output only the rewritten question.")

CRITIQUE_INSTRUCTION = ("Is the draft fully supported by the context? "
                        "Reply with exactly one word: sufficient or insufficient.")

DEFAULT_REGEN_CAP = 2
DEFAULT_SUPPORT_THRESHOLD = 0.6


@dataclass(frozen=True)
class PersonaConfig:
    objective: str = ("Answer strictly from the provided context, citing "
                      "snippets with [n] markers.")
    style: str = "Concise, professional."
    tone: str = "Neutral."
    audience: str = "Business analyst."
    response_format: str = "Short paragraphs with [n] citation markers."


@dataclass(frozen=True)
class CoStarPrompt:
    snippets: tuple[str, ...]          # rank order, newline-free
    persona: PersonaConfig
    question: str

    @property
    def context(self) -> str:
        """The numbered snippet block; the critique shows the same one."""
        return "\n".join(f"[{i}] {text}"
                         for i, text in enumerate(self.snippets, start=1))

    def render(self) -> str:
        persona = self.persona
        return (f"# CONTEXT\n{self.context}\n"
                f"# OBJECTIVE\n{persona.objective}\n"
                f"# STYLE\n{persona.style}\n"
                f"# TONE\n{persona.tone}\n"
                f"# AUDIENCE\n{persona.audience}\n"
                f"# RESPONSE\n{persona.response_format}\n"
                f"QUESTION: {self.question}")


@dataclass(frozen=True)
class Citation:
    snippet_no: int
    chunk_id: str
    doc_id: str
    version: int

    def to_json(self) -> dict:
        return {"snippet": self.snippet_no, "chunk_id": self.chunk_id,
                "doc_id": self.doc_id, "version": self.version}


@dataclass
class GroundedAnswer:
    answer: str
    citations: list[Citation]
    verdict: str                        # sufficient | insufficient
    reason: str | None
    regeneration_count: int
    refined_question: str
    trace: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "answer": self.answer,
            "citations": [c.to_json() for c in self.citations],
            "verdict": self.verdict,
            "reason": self.reason,
            "regeneration_count": self.regeneration_count,
            "refined_question": self.refined_question,
            "trace": self.trace,
        }


@dataclass
class QuerySession:
    question: str
    refined_question: str
    principal: str
    k: int
    chunk_size: int
    chunk_overlap: int
    stages: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


_MARKER_RE = re.compile(r"\[(\d+)\]")


def _flatten(text: str) -> str:
    """Snippets must occupy one template line each."""
    return re.sub(r"\s*\n\s*", " ", text).strip()


class DerekPipeline:
    """Stateless answer pipeline over a built index and a chat port."""

    def __init__(self, index: HybridIndex, embed, chat: ChatPort,
                 persona: PersonaConfig | None = None, k: int = DEFAULT_K,
                 regen_cap: int = DEFAULT_REGEN_CAP,
                 support_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
                 ngram_n: int = DEFAULT_NGRAM,
                 guards: tuple[GuardRule, ...] = DEFAULT_GUARDS):
        self.index = index
        self.embed = embed
        self.chat = chat
        self.persona = persona or PersonaConfig()
        self.k = k
        self.regen_cap = regen_cap
        self.support_threshold = support_threshold
        self.ngram_n = ngram_n
        self.guards = guards

    # -- stages -------------------------------------------------------------

    def refine_query(self, question: str) -> tuple[str, bool]:
        """Model rewrite of the question; falls back to the original on any
        port failure or empty rewrite. Returns (refined, used_fallback)."""
        if not question.strip():
            raise ValueError("question must be non-empty")
        prompt = f"{REFINE_INSTRUCTION}\nQUESTION: {question}"
        try:
            response = self.chat.chat(chat_request(prompt))
        except (ModelRefusal, TransportError):
            return question, True
        refined = response.text.strip()
        if not refined:
            return question, True
        return refined, False

    def retrieve(self, refined: str, principal: str = "*") -> list[Hit]:
        return search_hybrid(self.index, refined, self.embed, k=self.k,
                             principal=principal, guards=self.guards)

    def assemble_costar(self, refined: str, hits: list[Hit]) -> CoStarPrompt:
        if not hits:
            raise NoContext("no context snippets to assemble")
        return CoStarPrompt(snippets=tuple(_flatten(h.text) for h in hits),
                            persona=self.persona, question=refined)

    def generate(self, prompt: CoStarPrompt,
                 hits: list[Hit]) -> tuple[str, list[Citation], list[str]]:
        """One draft: citation markers [n] are resolved against the snippet
        numbering and stripped from the prose; out-of-range markers are
        dropped with a warning."""
        response = self.chat.chat(chat_request(prompt.render()))
        raw = response.text
        warnings = []
        citations: list[Citation] = []
        seen: set[int] = set()
        for match in _MARKER_RE.finditer(raw):
            number = int(match.group(1))
            if number < 1 or number > len(hits):
                warnings.append(f"citation [{number}] out of range, dropped")
                continue
            if number in seen:
                continue
            seen.add(number)
            hit = hits[number - 1]
            version = self.index.chunks[hit.chunk_id].version
            citations.append(Citation(snippet_no=number, chunk_id=hit.chunk_id,
                                      doc_id=hit.doc_id, version=version))
        cleaned = _MARKER_RE.sub("", raw)
        cleaned = re.sub(r" {2,}", " ", cleaned)
        cleaned = re.sub(r" +([.,;:!?])", r"\1", cleaned).strip()
        return cleaned, citations, warnings

    def _support_fraction(self, draft: str, snippets: tuple[str, ...]) -> float:
        tokens = token_texts(draft)
        if not tokens:
            return 0.0
        mask = supported_mask(tokens, map(token_texts, snippets),
                              n=self.ngram_n)
        return sum(mask) / len(tokens)

    def validate(self, draft: str, citations: list[Citation],
                 prompt: CoStarPrompt) -> tuple[str, str | None, list[dict]]:
        """Heuristic check first (citations + supported-token fraction); the
        model critique only runs when the heuristic passes, since a failed
        heuristic already settles the verdict. Both read the snippets of the
        draft prompt, so the critique sees the context the draft saw."""
        events: list[dict] = []
        if not citations:
            return "insufficient", "no-citation", events
        fraction = self._support_fraction(draft, prompt.snippets)
        events.append({"stage": "validate", "support_fraction": round(fraction, 4)})
        if fraction < self.support_threshold:
            return "insufficient", "low-support", events
        critique = (f"Review the draft answer against the context snippets.\n"
                    f"{prompt.context}\nDRAFT: {draft}\n{CRITIQUE_INSTRUCTION}")
        try:
            response = self.chat.chat(chat_request(critique))
        except (ModelRefusal, TransportError):
            events.append({"stage": "validate", "critique": "fallback-pass"})
            return "sufficient", None, events
        text = response.text.strip().lower()
        if "insufficient" in text:
            return "insufficient", "model-critique", events
        if "sufficient" not in text:
            events.append({"stage": "validate", "critique": "unparseable-pass"})
        return "sufficient", None, events

    # -- composition ----------------------------------------------------------

    def answer(self, question: str, principal: str = "*") -> GroundedAnswer:
        grounded, _ = self.answer_with_session(question, principal)
        return grounded

    def answer_with_session(self, question: str,
                            principal: str = "*") -> tuple[GroundedAnswer, QuerySession]:
        trace: list[dict] = []
        stages: list[dict] = []

        def timed(stage: str, fn, *args):
            started = time.perf_counter()
            result = fn(*args)
            stages.append({"stage": stage,
                           "elapsed_ms": (time.perf_counter() - started) * 1000.0})
            return result

        refined, fallback = timed("refine", self.refine_query, question)
        trace.append({"stage": "refine", "fallback": fallback})
        hits = timed("retrieve", self.retrieve, refined, principal)
        trace.append({"stage": "retrieve", "hits": len(hits)})
        prompt = timed("assemble", self.assemble_costar, refined, hits)
        trace.append({"stage": "assemble", "snippets": len(prompt.snippets)})

        # (cited, supported fraction, regen) keys are unique, so max never
        # compares the drafts themselves
        drafts: list[tuple[tuple[bool, float, int], str, list[Citation]]] = []
        # a cap below 0 still allows the first draft
        for regen in range(max(self.regen_cap, 0) + 1):
            draft, citations, warnings = timed("generate", self.generate,
                                               prompt, hits)
            trace.append({"stage": "generate", "citations": len(citations)})
            trace.extend({"stage": "generate", "warning": warning}
                         for warning in warnings)
            verdict, reason, events = timed("validate", self.validate,
                                            draft, citations, prompt)
            trace.extend(events)
            trace.append({"stage": "validate", "verdict": verdict,
                          "reason": reason})
            if verdict == "sufficient":
                break
            fraction = next((e["support_fraction"] for e in events
                             if "support_fraction" in e), 0.0)
            drafts.append(((bool(citations), fraction, regen), draft, citations))
        else:
            # escalation is recorded but does nothing; it returns the best
            # draft: cited first, then the highest supported fraction, then
            # the most recent
            trace.append({"stage": "escalate", "event": "web-search-stub",
                          "question": question})
            _, draft, citations = max(drafts)

        grounded = GroundedAnswer(answer=draft, citations=citations,
                                  verdict=verdict, reason=reason,
                                  regeneration_count=regen,
                                  refined_question=refined, trace=trace)
        session = QuerySession(question=question, refined_question=refined,
                               principal=principal, k=self.k,
                               chunk_size=self.index.params.chunk_size,
                               chunk_overlap=self.index.params.chunk_overlap,
                               stages=stages)
        return grounded, session
