"""Command-line surface: ingest, index, query, ask, sql, eval commands.

Flags hold no settings of their own: each one is written into the JSON
form of the config (``--config`` file or defaults) at the key it sets,
and ``esap.config`` checks the result as it checks a file, before any
command touches a kb or an index. A bad flag value is a ``ConfigError``
naming that key (``--k 0`` names ``retrieval.k``).

Each ``cmd_*`` returns ``(body, text)`` and ``main`` prints one of them:
``text`` under ``--pretty``, otherwise ``body`` as one JSON document.

Exit codes: 0 success, 1 user/config error, 2 data error, 3 external-port
error; each error type carries its code (``esap.errors``). Every failure
prints a single JSON line to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import AppConfig, config_from_dict, load_config
from .corpus import VersionStore, chunk_document, ingest_corpus
from .derek import DerekPipeline
from .errors import ConfigError, EmptyCorpus, EsapError
from .evaluation import (
    read_qa_jsonl,
    read_runs_jsonl,
    render_generation_table,
    render_retrieval_table,
    run_generation_benchmark,
    run_retrieval_benchmark,
)
from .fixtures import seed_music_db
from .hybrid import HybridParams, build_hybrid, load_hybrid, save_hybrid, search_hybrid
from .jsonio import read_json
from .ports import (
    ExtractiveStub,
    HashingEmbedder,
    HttpChatModel,
    ScriptedModel,
    SqliteExecutor,
)
from .thor import ThorPipeline
from .tokenizer import token_texts

EXIT_OK = 0
EXIT_USER = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one-line machine-parsable errors instead of argparse's two-line usage dump
    def error(self, message):
        raise _UsageError(message)


_EPILOG = """\
flags by command:
  ingest          --corpus --kb --config --pretty --seed
  index           --kb --chunk-size --overlap --config --pretty --seed
  query           --q --k --principal --kb --config --pretty --seed
  ask             --q --k --principal --ports --kb --config --pretty --seed
  sql             --q --db --ports --max-retries --threshold --allow-empty
                  --verbose --kb --config --pretty --seed
  eval-retrieval  --dataset --ks --out --principal --kb --config --pretty --seed
  eval-trace      --runs --ngram --out --kb --config --pretty --seed
  version         --kb --config --pretty --seed
"""


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--kb", default=None,
                        help="knowledge-base directory (documents, audit log, index)")
    common.add_argument("--config", default=None,
                        help="JSON config file; flags override file values")
    common.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    common.add_argument("--seed", type=int, default=None,
                        help="ann.seed: accepted, echoed and recorded; "
                             "dense search is exact and uses no seed")

    parser = _Parser(
        prog="esap",
        description="Versioned corpus, hybrid retrieval, grounded answers, "
                    "a self-correcting SQL agent, and evaluation reports.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", parents=[common],
                       help="version documents from a JSONL corpus into the kb")
    p.add_argument("--corpus", required=True, help="JSONL corpus file")

    p = sub.add_parser("index", parents=[common],
                       help="build and persist the hybrid index")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="window size in tokens")
    p.add_argument("--overlap", type=int, default=None,
                   help="window overlap in tokens (must be < size)")

    p = sub.add_parser("query", parents=[common],
                       help="fused lexical+dense top-k search")
    p.add_argument("--q", required=True, help="query text")
    p.add_argument("--k", type=int, default=None, help="results to return")
    p.add_argument("--principal", default="*",
                   help="identity for access filtering")

    p = sub.add_parser("ask", parents=[common],
                       help="grounded answer with citations and a trace")
    p.add_argument("--q", required=True, help="question text")
    p.add_argument("--k", type=int, default=None, help="snippets to retrieve")
    p.add_argument("--principal", default="*",
                   help="identity for access filtering")
    p.add_argument("--ports", default=None,
                   help="chat port: stub, scripted:<file>, or http")

    p = sub.add_parser("sql", parents=[common],
                       help="answer a structured question against SQLite")
    p.add_argument("--q", required=True, help="question text")
    p.add_argument("--db", default=None,
                   help="SQLite file (default: <kb>/music_store.db, seeded)")
    p.add_argument("--ports", default=None,
                   help="chat port: scripted:<file> or http")
    p.add_argument("--max-retries", type=int, default=None,
                   help="correction attempts after the first")
    p.add_argument("--threshold", type=float, default=None,
                   help="acceptance rating in [0, 1]")
    p.add_argument("--allow-empty", action="store_true",
                   help="accept empty result tables")
    p.add_argument("--verbose", action="store_true",
                   help="include the result table in the output")

    p = sub.add_parser("eval-retrieval", parents=[common],
                       help="Recall@k / Precision@k benchmark report")
    p.add_argument("--dataset", action="append", required=True,
                   metavar="NAME=PATH", help="QA JSONL dataset (repeatable)")
    p.add_argument("--ks", default=None, help="comma-separated k grid")
    p.add_argument("--out", default=None,
                   help="write the JSON report here plus a .txt table")
    p.add_argument("--principal", default="*",
                   help="identity for access filtering")

    p = sub.add_parser("eval-trace", parents=[common],
                       help="grounding-metric benchmark over recorded runs")
    p.add_argument("--runs", required=True, help="runs JSONL file")
    p.add_argument("--ngram", type=int, default=None,
                   help="n-gram size for support matching")
    p.add_argument("--out", default=None,
                   help="write the JSON report here plus a .txt table")

    sub.add_parser("version", parents=[common], help="print tool version")
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

# flag (argparse dest) -> the config key it sets
_FLAG_KEYS = {
    "seed": ("ann", "seed"),
    "chunk_size": ("chunk", "size"),
    "overlap": ("chunk", "overlap"),
    "k": ("retrieval", "k"),
    "ngram": ("eval", "ngram_n"),
    "max_retries": ("thor", "max_retries"),
    "threshold": ("thor", "threshold"),
}


def _resolve_config(args) -> AppConfig:
    """The config file (or the defaults) with each given flag written in.

    Flags go into the JSON form of the config, so ``config_from_dict``
    checks them as it checks file keys, before any command runs.
    """
    data = (load_config(args.config) if args.config else AppConfig()).to_json()
    if args.kb is not None:
        data["kb"] = args.kb
    for dest, (section, key) in _FLAG_KEYS.items():
        if getattr(args, dest, None) is not None:
            data[section][key] = getattr(args, dest)
    if getattr(args, "ks", None) is not None:
        try:
            data["eval"]["ks"] = [int(part) for part in args.ks.split(",")
                                  if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"--ks must be comma-separated integers: {exc}")
    ports = getattr(args, "ports", None)
    if ports is not None:
        if ports == "stub" or ports == "http":
            data["ports"].update(mode=ports, script=None)
        elif ports.startswith("scripted:"):
            data["ports"].update(mode="scripted", script=ports.split(":", 1)[1])
        else:
            raise ConfigError(
                f"--ports must be stub, scripted:<file>, or http, got {ports!r}")
    if getattr(args, "allow_empty", False):
        data["thor"]["allow_empty"] = True
    return config_from_dict(data)


def _document(cfg: AppConfig, body: dict) -> str:
    """JSON-mode output: ``body`` after the tool version and the config echo."""
    return json.dumps({"tool_version": __version__, "config_echo": cfg.to_json(),
                       **body}, indent=2, ensure_ascii=False)


def _make_chat(cfg: AppConfig):
    mode = cfg.ports.mode
    if mode == "stub":
        return ExtractiveStub()
    if mode == "scripted":
        if not cfg.ports.script:
            raise ConfigError("scripted ports need a script file "
                              "(--ports scripted:<file>)")
        return ScriptedModel(read_json(cfg.ports.script, ConfigError,
                                       "script file", "array of strings"))
    return HttpChatModel(
        base_url=os.environ.get(cfg.ports.base_url_env),
        api_key=os.environ.get(cfg.ports.api_key_env),
        model=os.environ.get(cfg.ports.model_env),
    )


def _load_index_and_embedder(cfg: AppConfig):
    index = load_hybrid(cfg.kb)
    # fusion runs with the config's rrf_c, the value the echo states
    index.params.rrf_c = cfg.retrieval.rrf_c
    return index, HashingEmbedder(index.dense.dim)


def _report(args, cfg: AppConfig, report: dict, table: str) -> tuple[dict, str]:
    """An eval command's result; ``--out`` also writes it and its table."""
    body = {"report": report}
    if args.out:
        out_path = Path(args.out)
        txt_path = out_path.with_suffix(".txt")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(_document(cfg, body) + "\n", encoding="utf-8")
        txt_path.write_text(table + "\n", encoding="utf-8")
        body = {**body, "out": str(out_path), "out_table": str(txt_path)}
    return body, table


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(args, cfg: AppConfig) -> tuple[dict, str]:
    if not Path(args.corpus).is_file():
        raise ConfigError(f"corpus file not found: {args.corpus}")
    ingested, updated = ingest_corpus(VersionStore(cfg.kb), args.corpus)
    return ({"ingested": ingested, "updated": updated},
            f"ingested={ingested} updated={updated}")


def cmd_index(args, cfg: AppConfig) -> tuple[dict, str]:
    size, overlap = cfg.chunk.size, cfg.chunk.overlap
    store = VersionStore(cfg.kb)
    docs = store.latest_documents()
    if not docs:
        raise EmptyCorpus(f"no documents in kb {cfg.kb!r}; run ingest first")
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc, size=size, overlap=overlap))
    doc_acl = {doc.doc_id: sorted(doc.acl) for doc in docs}
    embed = HashingEmbedder()
    params = HybridParams(rrf_c=cfg.retrieval.rrf_c, chunk_size=size,
                          chunk_overlap=overlap, ann=cfg.ann)
    index = build_hybrid(chunks, embed, doc_acl, params)
    index_dir = save_hybrid(index, cfg.kb)
    body = {
        "chunks": index.n_chunks,
        "dim": index.dense.dim,
        "chunk": {"size": size, "overlap": overlap},
        "mode": index.dense.mode,
        "index_dir": str(index_dir),
    }
    return body, (f"indexed {index.n_chunks} chunks "
                  f"(dim={index.dense.dim}, size={size}, overlap={overlap}, "
                  f"mode={index.dense.mode}) -> {index_dir}")


def cmd_query(args, cfg: AppConfig) -> tuple[dict, str]:
    k = cfg.retrieval.k
    index, embed = _load_index_and_embedder(cfg)
    hits = search_hybrid(index, args.q, embed, k=k, principal=args.principal,
                         guards=tuple(cfg.guards))
    body = {
        "query": args.q,
        "k": k,
        "hits": [{"chunk_id": h.chunk_id, "doc_id": h.doc_id,
                  "score": h.score, "text": h.text} for h in hits],
    }
    lines = []
    for rank, hit in enumerate(hits, start=1):
        snippet = " ".join(hit.text.split())
        if len(snippet) > 100:
            snippet = snippet[:97] + "..."
        lines.append(f"{rank:3d}. {hit.score:.6f}  {hit.chunk_id}  {snippet}")
    return body, "\n".join(lines) or "no results"


def cmd_ask(args, cfg: AppConfig) -> tuple[dict, str]:
    k = cfg.retrieval.k
    index, embed = _load_index_and_embedder(cfg)
    chat = _make_chat(cfg)
    pipeline = DerekPipeline(index, embed, chat, k=k,
                             ngram_n=cfg.eval.ngram_n,
                             guards=tuple(cfg.guards))
    grounded, session = pipeline.answer_with_session(args.q, args.principal)
    body = {"answer": grounded.to_json(), "session": session.to_json()}
    lines = [grounded.answer, "",
             f"verdict: {grounded.verdict}"
             + (f" ({grounded.reason})" if grounded.reason else ""),
             f"regenerations: {grounded.regeneration_count}"]
    lines += [f"  [{c.snippet_no}] {c.chunk_id}" for c in grounded.citations]
    return body, "\n".join(lines)


def cmd_sql(args, cfg: AppConfig) -> tuple[dict, str]:
    if cfg.ports.mode == "stub":
        raise ConfigError("sql needs a model port: --ports scripted:<file> "
                          "or --ports http")
    if args.db is not None:
        db_path = Path(args.db)
        if not db_path.is_file():
            raise ConfigError(f"database not found: {args.db}")
    else:
        db_path = Path(cfg.kb) / "music_store.db"
        if not db_path.is_file():
            db_path.parent.mkdir(parents=True, exist_ok=True)
            seed_music_db(db_path)
    chat = _make_chat(cfg)
    executor = SqliteExecutor(str(db_path))
    pipeline = ThorPipeline(executor, chat,
                            max_retries=cfg.thor.max_retries,
                            threshold=cfg.thor.threshold,
                            allow_empty=cfg.thor.allow_empty,
                            narrative_chat=chat)
    result = pipeline.run(args.q)
    body = {"result": result.to_json(verbose=args.verbose)}
    accepted = result.log.attempts[-1]
    lines = [result.insight.narrative, "", f"sql: {accepted.sql}",
             f"attempts: {len(result.log.attempts)} "
             f"(final rating {accepted.rating:.2f})"]
    if args.verbose:
        lines.append(" | ".join(result.table.columns))
        lines += [" | ".join(str(cell) for cell in row) for row in result.table.rows]
    return body, "\n".join(lines)


def cmd_eval_retrieval(args, cfg: AppConfig) -> tuple[dict, str]:
    ks = tuple(cfg.eval.ks)
    datasets = {}
    for spec_arg in args.dataset:
        name, sep, path = spec_arg.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"--dataset must be NAME=PATH, got {spec_arg!r}")
        if name in datasets:
            raise ConfigError(f"--dataset name {name!r} given twice")
        datasets[name] = read_qa_jsonl(path)
    index, embed = _load_index_and_embedder(cfg)
    store = VersionStore(cfg.kb)
    doc_tokens = {doc.doc_id: token_texts(doc.text)
                  for doc in store.latest_documents()}
    report = run_retrieval_benchmark(datasets, index, embed, doc_tokens,
                                     ks=ks, principal=args.principal)
    return _report(args, cfg, report, render_retrieval_table(report))


def cmd_eval_trace(args, cfg: AppConfig) -> tuple[dict, str]:
    report = run_generation_benchmark(read_runs_jsonl(args.runs),
                                      n=cfg.eval.ngram_n)
    return _report(args, cfg, report, render_generation_table(report["rows"]))


def cmd_version(args, cfg: AppConfig) -> tuple[dict, str]:
    return {}, f"esap {__version__}"


_COMMANDS = {
    "ingest": cmd_ingest,
    "index": cmd_index,
    "query": cmd_query,
    "ask": cmd_ask,
    "sql": cmd_sql,
    "eval-retrieval": cmd_eval_retrieval,
    "eval-trace": cmd_eval_trace,
    "version": cmd_version,
}


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}, ensure_ascii=False),
          file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail("UsageError", str(exc), EXIT_USER)
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    try:
        cfg = _resolve_config(args)
        body, text = _COMMANDS[args.command](args, cfg)
        print(text if args.pretty else _document(cfg, body))
        return EXIT_OK
    except EsapError as exc:
        return _fail(type(exc).__name__, str(exc), exc.exit_code)
    except (ValueError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_USER)


if __name__ == "__main__":
    sys.exit(main())
