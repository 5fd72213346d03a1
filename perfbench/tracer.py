"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces the names each layer looks up at call time
(module functions and pipeline/executor methods) with timing wrappers, and
``uninstall`` puts the originals back, so untraced operations run the
program untouched. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from esap import corpus, dense, derek, hybrid, thor
from esap.derek import DerekPipeline
from esap.errors import NonSelectRejected
from esap.ports import SqliteExecutor
from esap.thor import ThorPipeline

LAYERS = ("corpus", "lexical", "dense", "hybrid", "ports", "derek",
          "evaluation", "thor")
SETUP_OP = -1
PHASES = ("op", "setup")

# (owner, attribute the program looks up at call time, span name); no
# private helper is wrapped
TARGETS = (
    (hybrid, "search_lexical", "lexical.search"),
    (hybrid, "search_dense", "dense.search"),
    (dense, "search_dense", "dense.search"),      # the publish ANN probe
    (hybrid, "rrf_fuse", "hybrid.fuse"),
    (hybrid, "filter_acl", "hybrid.acl"),
    (hybrid, "apply_guards", "hybrid.guard"),
    (hybrid, "build_lexical", "lexical.build"),
    (hybrid, "build_dense_from_texts", "dense.build"),
    (hybrid, "search_hybrid", "hybrid.search"),
    (hybrid, "save_hybrid", "hybrid.save"),
    (hybrid, "load_hybrid", "hybrid.load"),
    (derek, "search_hybrid", "hybrid.search"),
    (derek, "supported_mask", "evaluation.support"),
    (corpus, "chunk_document", "corpus.chunk"),
    (corpus.VersionStore, "ingest", "corpus.ingest"),
    (DerekPipeline, "answer_with_session", "derek.answer"),
    (DerekPipeline, "refine_query", "derek.refine"),
    (DerekPipeline, "retrieve", "derek.retrieve"),
    (DerekPipeline, "assemble_costar", "derek.assemble"),
    (DerekPipeline, "generate", "derek.generate"),
    (DerekPipeline, "validate", "derek.validate"),
    (thor, "route", "thor.route"),
    (thor, "interpret", "thor.interpret"),
    (thor, "introspect_schema", "ports.schema"),
    (ThorPipeline, "run", "thor.run"),
    (ThorPipeline, "generate_sql", "thor.generate"),
    (ThorPipeline, "rate", "thor.rate"),
    (SqliteExecutor, "execute", "ports.sql_exec"),
)
# every span name, including the embedder and chat port the benchmark wraps
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in TARGETS]
                                 + ["ports.embed", "ports.chat"]))
# the calls some workload makes while it sets up
SETUP_SPANS = ("corpus.ingest", "corpus.chunk", "ports.embed", "lexical.build",
               "dense.build", "hybrid.save", "hybrid.load", "ports.schema")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 for a root
    op: int                # op id, SETUP_OP for set-up

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.outer: dict[int, tuple[float, float]] = {}   # root index -> clock pair
        self._stack: list[int] = []
        self._op = SETUP_OP
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None, on_error=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def root(self, name: str, op: int, fn):
        """Run fn() as the root span of an op or of set-up.

        A second clock pair, read outside the root span, is the op's traced
        time. Returns (result, exception or None, seconds by that clock)."""
        self._op = op
        wrapped = self.wrap(name, fn)
        index = len(self.spans)
        start = perf_counter()
        try:
            result, error = wrapped(), None
        except Exception as exc:
            result, error = None, exc
        end = perf_counter()
        self.outer[index] = (start, end)
        self._op = SETUP_OP
        return result, error, end - start

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    # -- wrappers for objects the benchmark hands to the program -----------

    def embedder(self, embed):
        return self.wrap("ports.embed", embed)

    def chat_port(self, port):
        chat, count = self.wrap("ports.chat", port.chat), self.count

        class TracedChat:
            def chat(self, request):
                count("ports.chat_calls")
                count("ports.prompt_chars",
                      sum(len(content) for _, content in request.messages))
                return chat(request)

        return TracedChat()

    # -- installing on the program's call-time names ------------------------

    def install(self) -> None:
        count = self.count

        def lexical_hits(args, kwargs, result):
            count("lexical.requested", args[2])
            count("lexical.returned", len(result))

        def acl_drops(args, kwargs, result):
            count("hybrid.acl_in", len(args[0]))
            count("hybrid.acl_out", len(result))

        def redactions(args, kwargs, result):
            count("hybrid.redactions", result.count("[REDACTED:")
                  - args[0].count("[REDACTED:"))

        def index_bytes(args, kwargs, result):
            count("hybrid.saves")
            count("hybrid.index_bytes", _dir_bytes(result))

        def rejected(exc):
            if isinstance(exc, NonSelectRejected):
                count("ports.sql_rejected")

        observers = {"lexical.search": lexical_hits, "hybrid.acl": acl_drops,
                     "hybrid.guard": redactions, "hybrid.save": index_bytes}
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(
                name, original, observers.get(name),
                rejected if name == "ports.sql_exec" else None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own

    def check_spans(self) -> list[str]:
        """Faults in the span tree: a span never closed, a child outside its
        parent or in another op, overlapping siblings, a root outside its
        outer clock pair. With none of these, every self time is >= 0 and
        the layer self times of an op plus its unattributed time sum to the
        op's time by the outer clock."""
        if any(span is None for span in self.spans):
            return ["span never closed"]
        faults = []
        last_end: dict[int, float] = {}          # parent -> end of last child
        for index, span in enumerate(self.spans):
            if span.parent < 0:
                start, end = self.outer.get(index, (float("inf"), 0.0))
                if not start <= span.start <= span.end <= end:
                    faults.append(f"root {index} has no clock pair around it")
                continue
            parent = self.spans[span.parent]
            if not (parent.start <= span.start <= span.end <= parent.end
                    and parent.op == span.op):
                faults.append(f"span {index} ({span.name}) outside its parent")
            if span.start < last_end.get(span.parent, span.start):
                faults.append(f"span {index} ({span.name}) overlaps a sibling")
            last_end[span.parent] = span.end
        return faults

    def summary(self) -> dict:
        """Per phase (op or set-up): traced seconds by the outer clock; per
        span name: calls, busy seconds, per-call median; per layer: self
        seconds, where ``unattributed`` is traced time outside every
        wrapped call."""
        selfs = self.self_times()
        calls: dict[tuple[str, str], list[float]] = defaultdict(list)
        layer_self = {phase: defaultdict(float) for phase in PHASES}
        traced = dict.fromkeys(PHASES, 0.0)
        for index, (span, own) in enumerate(zip(self.spans, selfs)):
            phase = "setup" if span.op == SETUP_OP else "op"
            if span.parent < 0:
                start, end = self.outer[index]
                traced[phase] += end - start
                continue
            calls[(span.name, phase)].append(span.seconds)
            layer_self[phase][span.name.split(".", 1)[0]] += own
        for phase in PHASES:
            layer_self[phase]["unattributed"] = (traced[phase]
                                                 - sum(layer_self[phase].values()))
        return {
            "traced_s": traced,
            "calls": {f"{name}@{phase}": {
                "calls": len(times),
                "busy_s": sum(times),
                "median_ms": statistics.median(times) * 1000.0,
            } for (name, phase), times in sorted(calls.items())},
            "layer_self_s": {phase: dict(v) for phase, v in layer_self.items()},
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent, span.op]) + "\n")
