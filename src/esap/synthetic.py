"""Synthetic corpora with known-by-construction retrieval answers.

The planted-evidence generator writes one document per question whose
marker tokens appear nowhere else, so the correct chunk is the unique
best hit for both retrievers and Recall@1 is 100% by construction. The
clustered generator produces texts with topic-level vocabulary overlap,
giving dense search a realistic neighbor structure.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document

# word pool for filler text; small enough to force vocabulary overlap
_FILLER = (
    "the record notes that routine operations continued without incident "
    "teams reviewed metrics dashboards weekly while coordinating vendor "
    "updates and seasonal planning budgets stayed within approved limits "
    "staff completed training sessions on schedule customers reported "
    "steady satisfaction across regions audits found minor issues resolved "
    "quickly through standard procedures systems remained available"
).split()

MARKERS_PER_DOC = 4
FILLERS_PER_DOC = 8


def make_planted_corpus(n_questions: int = 100,
                        seed: int = 42) -> tuple[list[Document], list[dict]]:
    """Documents plus QA records where evidence location is analytic.

    Each document holds MARKERS_PER_DOC globally unique marker tokens
    followed by FILLERS_PER_DOC shared filler tokens; the question repeats
    the markers and the evidence quote is exactly the marker prefix. With
    one chunk per document, Precision@1 is MARKERS_PER_DOC / doc length.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    documents = []
    records = []
    for i in range(n_questions):
        markers = [f"zq{i:03d}x{j}" for j in range(MARKERS_PER_DOC)]
        fillers = [str(_FILLER[int(rng.integers(0, len(_FILLER)))])
                   for _ in range(FILLERS_PER_DOC)]
        text = " ".join(markers + fillers)
        doc_id = f"planted-{i:03d}"
        documents.append(Document(doc_id=doc_id, version=1, text=text))
        records.append({
            "qid": f"q{i:03d}",
            "question": " ".join(markers),
            "evidence": [{"doc_id": doc_id, "quote": " ".join(markers)}],
        })
    return documents, records


def planted_precision_at_1() -> float:
    """Analytic Precision@1 for the planted corpus: evidence/chunk ratio."""
    return MARKERS_PER_DOC / (MARKERS_PER_DOC + FILLERS_PER_DOC)


def make_random_text(rng: np.random.Generator, n_tokens: int,
                     vocab_size: int = 500) -> str:
    """Uniform random words 'w<id>'; used for fuzz tests."""
    ids = rng.integers(0, vocab_size, size=n_tokens)
    return " ".join(f"w{int(i)}" for i in ids)


def make_clustered_texts(n_texts: int, seed: int = 42,
                         n_topics: int = 40, topic_vocab: int = 120,
                         tokens_per_text: int = 30) -> list[str]:
    """Texts drawn mostly from one topic's vocabulary, plus common glue.

    Same-topic texts share many tokens, so they embed near each other and
    dense search has genuine neighborhoods to rank.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    common = [f"c{j}" for j in range(60)]
    texts = []
    for _ in range(n_texts):
        topic = int(rng.integers(0, n_topics))
        words = []
        for _ in range(tokens_per_text):
            if rng.random() < 0.8:
                words.append(f"t{topic}w{int(rng.integers(0, topic_vocab))}")
            else:
                words.append(common[int(rng.integers(0, len(common)))])
        texts.append(" ".join(words))
    return texts


def make_toy_kb_documents() -> list[Document]:
    """A tiny human-readable corpus for walkthroughs and CLI tests."""
    rows = [
        ("fruit-apple", "The red apple sits in the basket next to the window. "
                        "Apples keep well in cold storage for several weeks."),
        ("fruit-banana", "A ripe banana turns yellow and sweetens quickly. "
                         "Bananas bruise easily during long transport."),
        ("fruit-cherry", "Cherry season is short; the orchard ships cherries "
                         "in refrigerated crates within two days of picking."),
        ("policy-returns", "Customers may return any fruit order within seven "
                           "days for a full refund if quality is unsatisfactory."),
        ("policy-shipping", "Standard shipping takes three business days; "
                            "cold-chain shipping is required for cherries."),
    ]
    return [Document(doc_id=doc_id, version=1, text=text)
            for doc_id, text in rows]
