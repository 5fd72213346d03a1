"""Grounded question answering: refine, retrieve, assemble, generate, validate.

The pipeline rewrites the question for retrieval, pulls the fused top-k
snippets, lays them into a structured prompt (context, objective, style,
tone, audience, response format), asks the chat port for a cited draft,
and validates the draft before returning it. Insufficient drafts trigger
bounded regeneration; escalation to web search is logged but does nothing.
The draft comes from ``esap.ports.reply``; the rewrite and the critique from
``esap.ports.optional_reply``.
"""

from __future__ import annotations

import re
import time
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain

from .errors import NoContext
from .evaluation import DEFAULT_NGRAM, supported_mask
from .hybrid import DEFAULT_GUARDS, DEFAULT_K, GuardRule, Hit, HybridIndex, search_hybrid
from .ports import ChatPort, optional_reply, reply
from .tokenizer import sentences, token_texts

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

    @cached_property
    def context(self) -> str:
        """The numbered snippet block; the critique shows the same one. Built
        once per prompt: ``cached_property`` stores it in the instance dict,
        which a frozen dataclass leaves writable."""
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
    # (number, text) of each draft sentence that carries this marker and
    # holds a token, markers stripped; validated, never printed
    sentences: tuple[tuple[int, str], ...] = ()

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
        return {**asdict(self), "citations": [c.to_json() for c in self.citations]}


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
_NEWLINE_RE = re.compile(r"\s*\n\s*")


def _flatten(text: str) -> str:
    """Snippets must occupy one template line each: every newline and the
    whitespace around it becomes one space, and the ends are stripped. A
    text without a newline cannot match, so it is only stripped."""
    if "\n" not in text:
        return text.strip()
    return _NEWLINE_RE.sub(" ", text).strip()


def _strip_markers(text: str) -> str:
    """text without its [n] markers, each run of spaces made one, no space
    before punctuation and the ends stripped."""
    text = re.sub(r" {2,}", " ", _MARKER_RE.sub("", text))
    return re.sub(r" +([.,;:!?])", r"\1", text).strip()


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
        """Model rewrite of the question, or the original when the port refuses
        or is unreachable or the rewrite is empty. Returns (refined, used_fallback)."""
        if not question.strip():
            raise ValueError("question must be non-empty")
        rewrite = optional_reply(self.chat, f"{REFINE_INSTRUCTION}\nQUESTION: {question}")
        refined = (rewrite or "").strip()
        return (refined, False) if refined else (question, True)

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
        dropped with a warning. Each citation keeps the sentences
        (``esap.tokenizer.sentences``) that carry its marker and hold a
        token."""
        raw = reply(self.chat, prompt.render())
        warnings = []
        cited: dict[int, list[tuple[int, str]]] = {}    # first-marker order
        for at, sentence in enumerate(sentences(raw)):
            claim = (at, _strip_markers(sentence))
            for match in _MARKER_RE.finditer(sentence):
                number = int(match.group(1))
                if number < 1 or number > len(hits):
                    warnings.append(f"citation [{number}] out of range, dropped")
                    continue
                claims = cited.setdefault(number, [])
                if claim not in claims and token_texts(claim[1]):
                    claims.append(claim)
        citations = []
        for number, claims in cited.items():
            hit = hits[number - 1]
            version = self.index.chunks[hit.chunk_id].version
            citations.append(Citation(snippet_no=number, chunk_id=hit.chunk_id,
                                      doc_id=hit.doc_id, version=version,
                                      sentences=tuple(claims)))
        return _strip_markers(raw), citations, warnings

    def _support_fraction(self, tokens: list[str],
                          snippet_tokens: Iterable[Sequence[str]]) -> float:
        if not tokens:
            return 0.0
        mask = supported_mask(tokens, snippet_tokens, n=self.ngram_n)
        return sum(mask) / len(tokens)

    def validate(self, draft: str, citations: list[Citation],
                 prompt: CoStarPrompt) -> tuple[str, str | None, list[dict]]:
        """Heuristic checks first: some citation, the supported-token
        fraction of the whole draft, then each cited sentence against the
        union of the snippets it cites, at the same threshold. The model
        critique only runs when they pass, since a failed heuristic already
        settles the verdict. All read the snippets of the draft prompt, so
        the critique sees the context the draft saw.

        The draft's support reads the cited snippets first, then the rest
        in prompt order. The mask does not depend on the order, and
        ``supported_mask`` stops reading once every draft n-gram is found,
        so a cited draft usually tokenizes the snippet it cites and no
        other; the cited-sentence check reuses those token lists.
        """
        events: list[dict] = []
        if not citations:
            return "insufficient", "no-citation", events
        read: dict[int, list[str]] = {}        # snippet index -> its tokens
        n = len(prompt.snippets)

        def tokens_of(i: int) -> list[str]:
            tokens = read.get(i)
            if tokens is None:
                # a hand-made citation outside the prompt supports nothing
                tokens = read[i] = token_texts(prompt.snippets[i]) if 0 <= i < n else []
            return tokens

        cited_first = dict.fromkeys(c.snippet_no - 1 for c in citations if 0 < c.snippet_no <= n)
        order = chain(cited_first, (i for i in range(n) if i not in cited_first))
        fraction = self._support_fraction(token_texts(draft), map(tokens_of, order))
        events.append({"stage": "validate", "support_fraction": round(fraction, 4)})
        if fraction < self.support_threshold:
            return "insufficient", "low-support", events
        cited: dict[tuple[int, str], list[int]] = {}
        for citation in citations:
            for sentence in citation.sentences:
                cited.setdefault(sentence, []).append(citation.snippet_no - 1)
        for (_, text), indices in cited.items():
            if self._support_fraction(token_texts(text),
                                      map(tokens_of, indices)) < self.support_threshold:
                return "insufficient", "misattributed", events
        critique = (f"Review the draft answer against the context snippets.\n"
                    f"{prompt.context}\nDRAFT: {draft}\n{CRITIQUE_INSTRUCTION}")
        text = optional_reply(self.chat, critique)
        if text is None:
            events.append({"stage": "validate", "critique": "fallback-pass"})
            return "sufficient", None, events
        if "insufficient" in text.lower():
            return "insufficient", "model-critique", events
        if "sufficient" not in text.lower():
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
