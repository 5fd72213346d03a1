"""Deterministic chat ports for the ask and sql workloads.

Both answer by prompt content, never by call order, so a change in how
many calls a pipeline makes changes the call counts without pushing a
script out of step.
"""

from __future__ import annotations

import re

from esap.ports import ChatRequest, ChatResponse, ExtractiveStub

_MARKER_RE = re.compile(r"\s*\[\d+\]")


class DraftingStub:
    """``ExtractiveStub`` whose first draft for chosen questions is uncited.

    The draft prompt is identical on every regeneration, so the stub keeps
    the set of questions it has drafted since the last ``reset``; the
    first draft of a question in ``uncited`` has its citation markers
    removed, which the pipeline rejects as ``no-citation``.
    """

    def __init__(self, uncited: set[str]):
        self._inner = ExtractiveStub()
        self._uncited = uncited
        self._drafted: set[str] = set()

    def reset(self) -> None:
        self._drafted.clear()

    def chat(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.chat(request)
        prompt = request.last_user
        if "# CONTEXT" not in prompt:
            return response
        question = prompt.rsplit("QUESTION:", 1)[-1].strip()
        first = question not in self._drafted
        self._drafted.add(question)
        if first and question in self._uncited:
            return ChatResponse(text=_MARKER_RE.sub("", response.text))
        return response


_QUESTION_RE = re.compile(r"^QUESTION: (.*)$", re.MULTILINE)
_SQL_LINE_RE = re.compile(r"^SQL: (.*)$", re.MULTILINE)


class SqlScriptChat:
    """Chat port for ``ThorPipeline`` driven by per-question scripts.

    - route prompt: ``structured``;
    - generation prompt: script entry n, where n - 1 is the number of SQL
      lines in the prior-attempts block (the last entry repeats);
    - rating prompt: 0.3 for the question's low-rated SQL, 0.92 otherwise;
    - narrative prompt: a fixed sentence naming the question.
    """

    def __init__(self, scripts: dict[str, tuple[list[str], list[str]]]):
        self._scripts = scripts            # question -> (script, low_rated)

    def _question(self, prompt: str) -> str:
        match = _QUESTION_RE.search(prompt)
        if match is None:
            raise ValueError(f"prompt carries no QUESTION line: {prompt[:80]!r}")
        return match.group(1).strip()

    def chat(self, request: ChatRequest) -> ChatResponse:
        prompt = request.last_user
        if prompt.startswith("Classify the user question"):
            return ChatResponse(text="structured")
        question = self._question(prompt)
        script, low_rated = self._scripts[question]
        if prompt.startswith("Write one SQLite SELECT"):
            prior = prompt.split("PRIOR ATTEMPTS", 1)
            n = len(_SQL_LINE_RE.findall(prior[1])) if len(prior) == 2 else 0
            return ChatResponse(text=script[min(n, len(script) - 1)])
        if prompt.startswith("Rate how well"):
            sql = _SQL_LINE_RE.search(prompt).group(1).strip()
            return ChatResponse(text="0.3" if sql in low_rated else "0.92")
        if prompt.startswith("Summarize the query result"):
            return ChatResponse(text=f"Summary of the result for: {question}")
        raise ValueError(f"unexpected prompt: {prompt[:80]!r}")
