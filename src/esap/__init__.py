"""Grounded retrieval, a self-correcting SQL agent, and their benchmarks.

Two engines share one knowledge-base directory: a hybrid (BM25 + dense)
retrieval pipeline that produces cited, validated answers, and a bounded
generate -> execute -> rate loop that answers structured questions against
SQLite. The evaluation half scores retrieval (Recall/Precision@k) and
generation grounding (support, utilization, relevance, completeness).
"""

__version__ = "0.1.0"

from .corpus import (
    Chunk,
    Document,
    VersionStore,
    chunk_count,
    chunk_document,
    ingest_corpus,
    read_corpus_jsonl,
)
from .derek import (
    CoStarPrompt,
    Citation,
    DerekPipeline,
    GroundedAnswer,
    PersonaConfig,
    QuerySession,
)
from .dense import AnnParams, DenseIndex, build_dense_from_texts, search_dense
from .errors import EsapError
from .evaluation import (
    TraceScores,
    locate_evidence,
    precision_at_k,
    recall_at_k,
    run_generation_benchmark,
    run_retrieval_benchmark,
    supported_mask,
    trace_scores,
    validate_report,
)
from .hybrid import (
    GuardRule,
    Hit,
    HybridIndex,
    HybridParams,
    apply_guards,
    build_hybrid,
    fuse,
    load_hybrid,
    rrf_fuse,
    save_hybrid,
    search_hybrid,
)
from .lexical import LexicalIndex, build_lexical, score_query, search_lexical
from .ports import (
    ChatRequest,
    ChatResponse,
    ExtractiveStub,
    HashingEmbedder,
    HttpChatModel,
    ScriptedModel,
    SqlResult,
    SqliteExecutor,
    chat_request,
    introspect_schema,
    serialize_schema,
)
from .thor import (
    Insight,
    SqlAttempt,
    ThorAttemptLog,
    ThorPipeline,
    ThorResult,
    interpret,
    route,
)
from .tokenizer import term_ids, token_spans, token_texts

__all__ = [
    "__version__",
    "AnnParams",
    "ChatRequest",
    "ChatResponse",
    "Chunk",
    "Citation",
    "CoStarPrompt",
    "DenseIndex",
    "DerekPipeline",
    "Document",
    "EsapError",
    "ExtractiveStub",
    "GroundedAnswer",
    "GuardRule",
    "HashingEmbedder",
    "Hit",
    "HttpChatModel",
    "HybridIndex",
    "HybridParams",
    "Insight",
    "LexicalIndex",
    "PersonaConfig",
    "QuerySession",
    "ScriptedModel",
    "SqlAttempt",
    "SqlResult",
    "SqliteExecutor",
    "ThorAttemptLog",
    "ThorPipeline",
    "ThorResult",
    "TraceScores",
    "VersionStore",
    "apply_guards",
    "build_dense_from_texts",
    "build_hybrid",
    "build_lexical",
    "chat_request",
    "chunk_count",
    "chunk_document",
    "fuse",
    "ingest_corpus",
    "interpret",
    "introspect_schema",
    "load_hybrid",
    "locate_evidence",
    "precision_at_k",
    "read_corpus_jsonl",
    "recall_at_k",
    "route",
    "rrf_fuse",
    "run_generation_benchmark",
    "run_retrieval_benchmark",
    "save_hybrid",
    "score_query",
    "search_dense",
    "search_hybrid",
    "search_lexical",
    "serialize_schema",
    "supported_mask",
    "term_ids",
    "token_spans",
    "token_texts",
    "trace_scores",
    "validate_report",
]
