"""Evaluation harness: retrieval benchmark and generation-quality metrics.

Two protocols:

- Retrieval: token-level Recall@k / Precision@k of retrieved chunks against
  verbatim evidence quotes located in the corpus.
- Generation: n-gram attribution metrics over (answer, contexts, gold)
  triples: completeness, utilization, context relevance, and the fraction
  of answer tokens that cannot be attributed to the retrieved context.

Attribution is purely lexical (shared n-grams after normalization), so every
number here is reproducible offline, with no model in the loop.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DatasetFormatError,
    EvidenceNotFound,
    RunsFormatError,
)
from .hybrid import search_hybrid
from .jsonio import read_jsonl
from .tokenizer import token_texts

DEFAULT_KS = (1, 2, 4, 8, 16, 50)
DEFAULT_NGRAM = 3


# ---------------------------------------------------------------------------
# n-gram attribution
# ---------------------------------------------------------------------------

def _windows(tokens: Sequence[str], n: int):
    """The n-grams of tokens as tuples, in order; none when n < 1 or there
    are fewer than n tokens."""
    return zip(*(tokens[j:] for j in range(n)))


def _marked(tokens: Sequence[str], grams: set[tuple[str, ...]],
            n: int) -> list[bool]:
    """Mark every token inside a window whose n-gram is in grams."""
    mask = [False] * len(tokens)
    run = [True] * n
    for i, gram in enumerate(_windows(tokens, n)):
        if gram in grams:
            mask[i:i + n] = run
    return mask


def supported_mask(answer_tokens: list[str],
                   context_token_lists: Iterable[Sequence[str]],
                   n: int = DEFAULT_NGRAM) -> list[bool]:
    """Mark each answer token that shares an n-gram with some context.

    The contexts may be any iterable of token sequences, a one-shot
    iterator included. They are read in order, and reading stops once every
    answer n-gram has been found, so later contexts are never pulled; the
    mask is the same as checking every context. n-grams never cross context
    boundaries. Answers shorter than n are checked with n equal to the
    answer length.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not answer_tokens:
        return []
    n_eff = min(n, len(answer_tokens))
    grams = set(_windows(answer_tokens, n_eff))
    missing = set(grams)
    for ctx in context_token_lists:
        missing.difference_update(_windows(ctx, n_eff))
        if not missing:
            break
    return _marked(answer_tokens, grams - missing, n_eff)


# the generation metrics in report order: (name, table header, decimal places)
_METRICS = (("completeness", "Completeness", 4), ("utilization", "Utilization", 4),
            ("context_relevance", "Context Relevance", 4),
            ("pc_hallucinated", "pc hallucinated", 4), ("accuracy", "Accuracy", 2))


@dataclass(frozen=True)
class TraceScores:
    pc_hallucinated: float
    utilization: float
    context_relevance: float | None = None
    completeness: float | None = None
    accuracy: float | None = None

    def to_json(self) -> dict:
        """The metrics in report order; ``accuracy`` only when the run was graded."""
        return {name: getattr(self, name) for name, _, _ in _METRICS
                if name != "accuracy" or self.accuracy is not None}


def trace_scores(answer: str, contexts: list[str], gold_answer: str | None = None,
                 human_accuracy: float | None = None,
                 n: int = DEFAULT_NGRAM) -> TraceScores:
    """Score one (answer, contexts[, gold]) triple.

    Without a gold answer the gold-dependent metrics (context relevance,
    completeness) are omitted; the other two are still computed.
    """
    a_tokens = token_texts(answer)
    if not a_tokens:
        raise ValueError("answer has no tokens")
    if not contexts or not any(c.strip() for c in contexts):
        raise ValueError("contexts must be non-empty")
    ctx_tokens = [token_texts(c) for c in contexts]
    total_ctx = sum(map(len, ctx_tokens))

    def shared_with(reference: list[str]) -> list[bool]:
        """The context tokens inside an n-gram of reference, one mask over
        the contexts end to end; n shrinks for a short reference as in
        ``supported_mask``, and a reference with no tokens marks none."""
        n_eff = min(n, len(reference))
        grams = set(_windows(reference, n_eff))
        return [m for ctx in ctx_tokens for m in _marked(ctx, grams, n_eff)]

    mask = supported_mask(a_tokens, ctx_tokens, n=n)
    pc_hallucinated = 1.0 - sum(mask) / len(a_tokens)

    used = shared_with(a_tokens)
    utilization = (sum(used) / total_ctx) if total_ctx else 0.0

    context_relevance: float | None = None
    completeness: float | None = None
    if gold_answer is not None:
        relevant = shared_with(token_texts(gold_answer))
        context_relevance = (sum(relevant) / total_ctx) if total_ctx else 0.0
        n_relevant = sum(relevant)
        completeness = (sum(u and r for u, r in zip(used, relevant)) / n_relevant
                        if n_relevant else 1.0)

    return TraceScores(pc_hallucinated=pc_hallucinated,
                       utilization=utilization,
                       context_relevance=context_relevance,
                       completeness=completeness,
                       accuracy=human_accuracy)


# ---------------------------------------------------------------------------
# Runs files and the generation benchmark
# ---------------------------------------------------------------------------

def read_runs_jsonl(path: str | Path) -> list[dict]:
    """The records of a runs file, one JSON object per line.

    Each has "qid", "question", "system" and "answer" (strings) and
    "contexts" (a list of strings); "gold_answer" (a string) and
    "human_accuracy" (a number, not a boolean) may be absent or null. The
    answer holds a token and some context is not blank, as ``trace_scores``
    requires. Raises RunsFormatError naming the first bad line.
    """
    records = []
    for lineno, obj in read_jsonl(path, RunsFormatError):
        for key in ("qid", "system", "question", "answer", "contexts"):
            if key not in obj:
                raise RunsFormatError(f"line {lineno}: missing key {key!r}")
        for key in ("qid", "system", "question", "answer"):
            if not isinstance(obj[key], str):
                raise RunsFormatError(f"line {lineno}: {key} must be a string")
        if not obj["answer"].strip():
            raise RunsFormatError(f"line {lineno}: answer is blank")
        if not token_texts(obj["answer"]):
            raise RunsFormatError(f"line {lineno}: answer has no tokens")
        if not isinstance(obj.get("gold_answer"), (str, type(None))):
            raise RunsFormatError(f"line {lineno}: gold_answer must be a string or null")
        if not isinstance(obj["contexts"], list) or not all(
                isinstance(c, str) for c in obj["contexts"]):
            raise RunsFormatError(f"line {lineno}: contexts must be a list of strings")
        if not any(c.strip() for c in obj["contexts"]):
            raise RunsFormatError(f"line {lineno}: contexts hold no non-blank string")
        accuracy = obj.get("human_accuracy")
        if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float, type(None))):
            raise RunsFormatError(f"line {lineno}: human_accuracy must be a number or null")
        records.append(obj)
    if not records:
        raise RunsFormatError("runs file contains no records")
    return records


def run_generation_benchmark(runs: list[dict], n: int = DEFAULT_NGRAM) -> dict:
    """Aggregate per-system means of each metric; rows sorted by system."""
    if not runs:
        raise RunsFormatError("no runs to evaluate")
    by_system: dict[str, list[TraceScores]] = {}
    for run in runs:
        scores = trace_scores(run["answer"], run["contexts"],
                              gold_answer=run.get("gold_answer"),
                              human_accuracy=run.get("human_accuracy"),
                              n=n)
        by_system.setdefault(run["system"], []).append(scores)

    rows = []
    for system in sorted(by_system):
        scores = by_system[system]
        row = {"system": system, "n": len(scores)}
        for name, _, _ in _METRICS:     # each over the runs that have it
            values = [getattr(s, name) for s in scores if getattr(s, name) is not None]
            row[name] = sum(values) / len(values) if values else None
        row["accuracy_n"] = sum(s.accuracy is not None for s in scores)
        rows.append(row)
    return {"rows": rows, "n_runs": len(runs), "ngram_n": n}


def render_generation_table(rows: list[dict]) -> str:
    """Aligned plain-text table: one row per system, one column per metric."""
    headers = ["System"] + [header for _, header, _ in _METRICS]
    body = [[row["system"]] + ["-" if row.get(name) is None else f"{row[name]:.{places}f}"
                               for name, _, places in _METRICS]
            for row in rows]
    return _aligned_table(headers, body)


def _aligned_table(headers: list[str], body: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, under a header and a dash rule."""
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Evidence location and retrieval metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceSpan:
    doc_id: str
    start: int          # token index, inclusive
    end: int            # token index, exclusive


def read_qa_jsonl(path: str | Path) -> list[dict]:
    """The records of a QA dataset, one JSON object per line.

    Each has "qid", "question" (a string) and "evidence", a non-empty list
    of {"doc_id", "quote"} objects with string values. Raises
    DatasetFormatError naming the first bad line.
    """
    records = []
    for lineno, obj in read_jsonl(path, DatasetFormatError):
        for key in ("qid", "question", "evidence"):
            if key not in obj:
                raise DatasetFormatError(f"line {lineno}: missing key {key!r}")
        if not isinstance(obj["question"], str):
            raise DatasetFormatError(f"line {lineno}: question must be a string")
        ev = obj["evidence"]
        if not isinstance(ev, list) or not ev:
            raise DatasetFormatError(
                f"line {lineno}: evidence must be a non-empty list")
        for item in ev:
            if not isinstance(item, dict) or not isinstance(item.get("doc_id"), str) \
                    or not isinstance(item.get("quote"), str):
                raise DatasetFormatError(
                    f"line {lineno}: evidence items need doc_id and quote strings")
        records.append(obj)
    if not records:
        raise DatasetFormatError("dataset contains no records")
    return records


def _find_subsequence(haystack: list[str], needle: list[str]) -> int:
    """First index where needle occurs contiguously in haystack, else -1."""
    if not needle or len(needle) > len(haystack):
        return -1
    first = needle[0]
    limit = len(haystack) - len(needle)
    for i in range(limit + 1):
        if haystack[i] == first and haystack[i:i + len(needle)] == needle:
            return i
    return -1


def locate_evidence(record: dict, doc_tokens: dict[str, list[str]]) -> list[EvidenceSpan]:
    """Map each evidence quote to its first token-level occurrence.

    Matching is done on normalized token sequences (lowercase, punctuation
    and whitespace insensitive), which is a token-level reading of "exact
    substring after lowercasing and whitespace collapsing".
    """
    spans = []
    for item in record["evidence"]:
        doc_id = item["doc_id"]
        if doc_id not in doc_tokens:
            raise EvidenceNotFound(
                f"qid {record['qid']}: document {doc_id!r} not in corpus")
        quote = token_texts(item["quote"])
        if not quote:
            raise EvidenceNotFound(
                f"qid {record['qid']}: evidence quote has no tokens")
        start = _find_subsequence(doc_tokens[doc_id], quote)
        if start < 0:
            raise EvidenceNotFound(
                f"qid {record['qid']}: quote not found in {doc_id!r}")
        spans.append(EvidenceSpan(doc_id=doc_id, start=start,
                                  end=start + len(quote)))
    return spans


def _gold_tokens(spans: list[EvidenceSpan]) -> set[tuple[str, int]]:
    gold: set[tuple[str, int]] = set()
    for span in spans:
        for i in range(span.start, span.end):
            gold.add((span.doc_id, i))
    return gold


def recall_at_k(chunk_spans: list[tuple[str, int, int]],
                spans: list[EvidenceSpan]) -> float:
    """Fraction of gold evidence tokens covered by the union of chunk spans."""
    gold = _gold_tokens(spans)
    if not gold:
        return 0.0
    covered: set[tuple[str, int]] = set()
    for doc_id, start, end in chunk_spans:
        for i in range(start, end):
            key = (doc_id, i)
            if key in gold:
                covered.add(key)
    return len(covered) / len(gold)


def precision_at_k(chunk_spans: list[tuple[str, int, int]],
                   spans: list[EvidenceSpan]) -> float:
    """Fraction of retrieved chunk tokens lying inside gold spans.

    Tokens are counted per chunk, so a token retrieved twice (overlapping
    chunks) weighs twice in both numerator and denominator.
    """
    gold = _gold_tokens(spans)
    total = 0
    inside = 0
    for doc_id, start, end in chunk_spans:
        total += end - start
        for i in range(start, end):
            if (doc_id, i) in gold:
                inside += 1
    return (inside / total) if total else 0.0


# ---------------------------------------------------------------------------
# Retrieval benchmark runner and report
# ---------------------------------------------------------------------------

def run_retrieval_benchmark(datasets: dict[str, list[dict]],
                            index, embed,
                            doc_tokens: dict[str, list[str]],
                            ks: tuple[int, ...] = DEFAULT_KS,
                            principal: str = "*") -> dict:
    """Evaluate every dataset and return the full report structure.

    Per-question metrics are macro-averaged within each dataset; the ALL row
    macro-averages over every included question pooled across datasets.
    Records whose evidence cannot be located are excluded from the averages
    and surfaced via the excluded count. Dataset names are row names, so
    ``ALL`` is refused beside another dataset.
    """
    if not datasets or all(not records for records in datasets.values()):
        raise DatasetFormatError("no questions to evaluate")
    if "ALL" in datasets and len(datasets) > 1:
        raise ValueError("dataset name ALL is reserved for the pooled row")
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 1:
        raise ValueError(f"ks must be positive, got {ks}")
    max_k = ks[-1]

    def row(name: str, scored: list[dict[int, tuple[float, float]]],
            excluded: int) -> dict:
        def average(metric: int) -> dict[str, float]:
            return {str(k): round(100.0 * sum(r[k][metric] for r in scored)
                                  / len(scored), 2) if scored else 0.0
                    for k in ks}
        return {"dataset": name, "n_questions": len(scored),
                "n_excluded": excluded, "recall": average(0),
                "precision": average(1)}

    rows = []
    pooled: list[dict[int, tuple[float, float]]] = []
    pooled_excluded = 0
    for name, records in datasets.items():
        scored = []
        excluded = 0
        for record in records:
            try:
                spans = locate_evidence(record, doc_tokens)
            except EvidenceNotFound:
                excluded += 1
                continue
            hits = search_hybrid(index, record["question"], embed, k=max_k,
                                 principal=principal)
            chunk_spans = [(h.doc_id, *index.chunks[h.chunk_id].token_span) for h in hits]
            scored.append({k: (recall_at_k(chunk_spans[:k], spans),
                               precision_at_k(chunk_spans[:k], spans))
                           for k in ks})
        rows.append(row(name, scored, excluded))
        pooled += scored
        pooled_excluded += excluded
    if len(datasets) > 1:
        rows.append(row("ALL", pooled, pooled_excluded))
    return {
        "ks": list(ks),
        "rows": rows,
        "config_echo": {
            "chunk_size": index.params.chunk_size,
            "chunk_overlap": index.params.chunk_overlap,
            "rrf_c": index.params.rrf_c,
        },
    }


def validate_report_row(row: dict, ks: list[int] | tuple[int, ...]) -> list[str]:
    """Invariant check for one report row: every value in [0, 100] and the
    recall sequence non-decreasing in k. Returns violation messages."""
    problems = []
    name = row.get("dataset", "?")
    for metric in ("recall", "precision"):
        for k in ks:
            value = row[metric][str(k)]
            if not 0.0 <= value <= 100.0:
                problems.append(f"{name}: {metric}@{k} = {value} outside [0, 100]")
    recalls = [row["recall"][str(k)] for k in sorted(ks)]
    for lo, hi, k in zip(recalls, recalls[1:], sorted(ks)[1:]):
        if hi < lo:
            problems.append(f"{name}: recall@{k} = {hi} drops below {lo}")
    return problems


def validate_report(report: dict) -> list[str]:
    """Run the row invariants over a whole report; [] means all rows pass."""
    problems = []
    for row in report["rows"]:
        problems.extend(validate_report_row(row, report["ks"]))
    return problems


def render_retrieval_table(report: dict) -> str:
    """Aligned plain-text table: datasets x k, recall block then precision."""
    ks = report["ks"]
    headers = (["Dataset"]
               + [f"R@{k}" for k in ks]
               + [f"P@{k}" for k in ks])
    body = []
    for row in report["rows"]:
        body.append([row["dataset"]]
                    + [f"{row['recall'][str(k)]:.2f}" for k in ks]
                    + [f"{row['precision'][str(k)]:.2f}" for k in ks])
    return _aligned_table(headers, body)
