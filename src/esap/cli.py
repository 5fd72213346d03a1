"""Command-line surface: ingest, index, query, ask, sql, eval commands.

Two tables declare the surface once: ``_FLAGS`` holds each flag's
argparse settings and ``_COMMANDS`` each command's handler, help line and
own flags (every command also takes ``_COMMON``). ``build_parser`` builds
the parser and the ``--help`` epilog from them and ``main`` dispatches
through ``_COMMANDS``.

Flags hold no settings of their own: a flag that sets a config key names
it in ``_FLAGS``, takes that key's type from ``esap.config`` and is
written into the JSON form of the config (``--config`` file or defaults)
at that key, which ``esap.config`` checks as it checks a file, before any
command touches a kb or an index. A bad flag value is a ``ConfigError``
naming that key (``--k 0`` names ``retrieval.k``).

Each ``cmd_*`` returns ``(body, text)`` and ``main`` prints one of them:
``text`` under ``--pretty``, otherwise ``body`` as one strict JSON
document (no ``NaN`` or ``Infinity``).

Exit codes: 0 success, 1 user/config error, 2 data error, 3 external-port
error; each error type carries its code (``esap.errors``). Every failure
prints a single JSON line to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from pathlib import Path

from . import __version__
from .config import _SCHEMA, AppConfig, config_from_dict, load_config
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


# flag -> argparse settings. A flag that sets a config key names it as
# "key" and takes its type from that key's schema entry (the first it accepts).
_FLAGS = {
    "--kb": dict(help="knowledge-base directory (documents, audit log, index)"),
    "--config": dict(help="JSON config file; flags override file values"),
    "--pretty": dict(action="store_true", help="human-readable output instead of JSON"),
    "--seed": dict(key="ann.seed", help="ann.seed: accepted, echoed and recorded; "
                   "dense search is exact and uses no seed"),
    "--corpus": dict(required=True, help="JSONL corpus file"),
    "--chunk-size": dict(key="chunk.size", help="window size in tokens"),
    "--overlap": dict(key="chunk.overlap",
                      help="window overlap in tokens (must be < size)"),
    "--q": dict(required=True, help="query or question text"),
    "--k": dict(key="retrieval.k", help="hits to retrieve"),
    "--principal": dict(default="*", help="identity for access filtering"),
    "--ports": dict(help="chat port: stub, scripted:<file>, or http"),
    "--db": dict(help="SQLite file (default: <kb>/music_store.db, seeded)"),
    "--max-retries": dict(key="thor.max_retries",
                          help="correction attempts after the first"),
    "--threshold": dict(key="thor.threshold", help="acceptance rating in [0, 1]"),
    "--allow-empty": dict(action="store_true", help="accept empty result tables"),
    "--verbose": dict(action="store_true",
                      help="include the result table in the output"),
    "--dataset": dict(action="append", required=True, metavar="NAME=PATH",
                      help="QA JSONL dataset (repeatable)"),
    "--ks": dict(help="comma-separated k grid"),
    "--out": dict(help="write the JSON report here plus a .txt table"),
    "--runs": dict(required=True, help="runs JSONL file"),
    "--ngram": dict(key="eval.ngram_n", help="n-gram size for support matching"),
}
_COMMON = "--kb --config --pretty --seed"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _resolve_config(args) -> AppConfig:
    """The config file (or the defaults) with each given flag written in.

    Flags go into the JSON form of the config, so ``config_from_dict``
    checks them as it checks file keys, before any command runs.
    """
    data = (load_config(args.config) if args.config else AppConfig()).to_json()
    if args.kb is not None:
        data["kb"] = args.kb
    for flag, settings in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if "key" in settings and value is not None:
            section, key = settings["key"].split(".")
            data[section][key] = value
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
                       **body}, indent=2, ensure_ascii=False, allow_nan=False)


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


# command -> (handler, help line, its own flags); each also takes _COMMON
_COMMANDS = {
    "ingest": (cmd_ingest, "version documents from a JSONL corpus into the kb",
               "--corpus"),
    "index": (cmd_index, "build and persist the hybrid index",
              "--chunk-size --overlap"),
    "query": (cmd_query, "fused lexical+dense top-k search", "--q --k --principal"),
    "ask": (cmd_ask, "grounded answer with citations and a trace",
            "--q --k --principal --ports"),
    "sql": (cmd_sql, "answer a structured question against SQLite",
            "--q --db --ports --max-retries --threshold --allow-empty --verbose"),
    "eval-retrieval": (cmd_eval_retrieval, "Recall@k / Precision@k benchmark report",
                       "--dataset --ks --out --principal"),
    "eval-trace": (cmd_eval_trace, "grounding-metric benchmark over recorded runs",
                   "--runs --ngram --out"),
    "version": (cmd_version, "print tool version", ""),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="esap",
        description="Versioned corpus, hybrid retrieval, grounded answers, "
                    "a self-correcting SQL agent, and evaluation reports.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    epilog = ["flags by command:"]
    for name, (_, help_line, own) in _COMMANDS.items():
        flags = f"{own} {_COMMON}".split()
        command = sub.add_parser(name, help=help_line)
        for flag in flags:
            settings = dict(_FLAGS[flag])
            if "key" in settings:
                section, key = settings.pop("key").split(".")
                kinds = _SCHEMA[section][key][0]
                settings["type"] = kinds[0] if isinstance(kinds, tuple) else kinds
            command.add_argument(flag, **settings)
        epilog.append(textwrap.fill(" ".join(flags), width=80,
                                    initial_indent=f"  {name:<16}",
                                    subsequent_indent=" " * 18,
                                    break_on_hyphens=False))
    parser.epilog = "\n".join(epilog) + "\n"
    return parser


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
        body, text = _COMMANDS[args.command][0](args, cfg)
        print(text if args.pretty else _document(cfg, body))
        return EXIT_OK
    except EsapError as exc:
        return _fail(type(exc).__name__, str(exc), exc.exit_code)
    except (ValueError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_USER)


if __name__ == "__main__":
    sys.exit(main())
