"""The four workloads: set-up, one timed operation, and per-op checks.

One closed-loop client in one thread: the next operation starts when the
previous one has returned and been checked. Operations call the same
library functions the CLI commands call, looked up on their modules at
call time so that a traced run can wrap them.

A run alternates set-up and operations: set up, run ops for a slice of
the run's seconds, set up again, and so on. Set-up time is reported as
the median over the repeats. Rounds of a fixed reference task run between
operations and around each set-up (see calibrate.py), and every timing is
scaled by the speed of the rounds next to it, so that the speed of the
shared host drops out of the reported figures.
"""

from __future__ import annotations

import re
import sqlite3
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from esap import corpus as C
from esap import dense as D
from esap import hybrid as H
from esap.corpus import Document, VersionStore
from esap.dense import AnnParams
from esap.derek import DerekPipeline
from esap.errors import ThorFailed
from esap.ports import HashingEmbedder, SqliteExecutor
from esap.thor import ThorPipeline

from . import inputs as I
from .calibrate import REFERENCE_ROUND_S, Calibrator
from .doubles import DraftingStub, SqlScriptChat
from .tracer import SETUP_OP, Tracer

CHUNK_SIZE, CHUNK_OVERLAP = 200, 20

_RAW_PII = (
    re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    re.compile(r"\d{3}-\d{2}-\d{4}"),
    re.compile(r"\(\d{3}\) \d{3}-\d{4}"),
)


@dataclass
class Run:
    """Everything one benchmark run measures."""
    seed: int
    seconds: float
    work: Path
    tracer: Tracer | None
    attempted: int = 0
    failed: int = 0
    wrong: int = 0                       # failures where an output was incorrect
    failures: Counter = field(default_factory=Counter)
    # ops that returned a correct but incomplete result, by reason
    incomplete: Counter = field(default_factory=Counter)
    host: Calibrator = field(default_factory=Calibrator)
    # (start, measured seconds) of each timing
    timings: dict = field(default_factory=lambda: {"untraced": [], "traced": [],
                                                   "setup": []})
    # scaled to the reference host speed by finish_timings()
    untraced_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    op_seconds: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0                 # measured seconds of ops and set-ups
    named: dict = field(default_factory=dict)    # name -> (value, unit)
    props: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    _op: int = 0

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failures[reason] += 1

    def call(self, root: str, traced: bool, fn, op: int, kind: str):
        """(result, error) of fn(), traced or not; its time is kept under
        ``timings[kind]``."""
        start = perf_counter()
        result, error, seconds = self._call(root, traced, fn, op)
        self.timings[kind].append((start, seconds))
        self.timed_s += seconds
        return result, error

    def _call(self, root: str, traced: bool, fn, op: int):
        if traced:
            self.tracer.install()
            try:
                return self.tracer.root(root, op, fn)
            finally:
                self.tracer.uninstall()
        start = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:          # counted as a failed op by the caller
            result, error = None, exc
        return result, error, perf_counter() - start

    def op(self, fn, check, traced: bool) -> None:
        """One timed operation plus its correctness check."""
        result, error = self.call("op", traced, fn, self._op,
                                  "traced" if traced else "untraced")
        self._op += 1
        self.attempted += 1
        if error is not None:
            self.fail(f"raised {type(error).__name__}")
            return
        verdict = check(result)
        if verdict is not None:
            reason, wrong = verdict
            self.fail(reason, wrong)

    def measure(self, workload) -> None:
        """Alternate set-up and op slices; a traced run sets up once,
        traced, and traces every second op, so that traced and untraced
        ops see the same input mix."""
        repeats = 1 if self.tracer else workload.setup_repeats
        items, i = workload.items, 0
        try:
            for r in range(repeats):
                self.host.burst()
                _, error = self.call("setup", self.tracer is not None,
                                     lambda: workload.setup(r), SETUP_OP, "setup")
                if error is not None:
                    raise error
                self.host.burst()
                deadline = perf_counter() + self.seconds / repeats
                while perf_counter() < deadline:
                    item = items[i % len(items)]
                    traced = self.tracer is not None and i % 2 == 1
                    self.op(lambda: workload.op(item, traced),
                            lambda result: workload.check(item, result), traced)
                    self.host.keep_up(self.timed_s)
                    i += 1
            self.host.burst()
        finally:
            self.host.close()
        workload.finish()
        self.finish_timings()

    def scaled(self, kind: str) -> list[float]:
        """Seconds of each timing of a kind, scaled to the reference speed."""
        return [seconds * self.host.factor(start, start + seconds)
                for start, seconds in self.timings[kind]]

    def finish_timings(self) -> None:
        untraced = self.scaled("untraced")
        self.untraced_ms = [s * 1000.0 for s in untraced]
        self.traced_ms = [s * 1000.0 for s in self.scaled("traced")]
        self.op_seconds = sum(untraced)
        self.setup_s = self.scaled("setup")
        measured = [s * 1000.0 for _, s in self.timings["untraced"]]
        self.named.update({
            "measured.latency_p50_ms": (statistics.median(measured), "ms"),
            "measured.throughput_ops_s": (len(measured) / (sum(measured) / 1000.0),
                                          "1/s"),
            "measured.setup_s": (statistics.median(s for _, s in self.timings["setup"]),
                                 "s"),
            "host.speed": (REFERENCE_ROUND_S / statistics.median(self.host.rounds),
                           "ratio"),
        })


def _may_read(acl, principal: str) -> bool:
    return "*" in acl or principal in acl


class _Retrieval:
    """Shared set-up of the search and ask workloads: chunk, build, save,
    load, as ``esap index`` followed by the first ``esap query`` does."""

    ann_mode = "auto"
    setup_repeats = 2

    def __init__(self, run: Run, docs: list[I.Doc]):
        self.run = run
        self.documents = [Document(doc_id=d.doc_id, version=1, text=d.text,
                                   acl=frozenset(d.acl)) for d in docs]
        self.acl = {d.doc_id: d.acl for d in docs}
        self.readable_counts: dict[str, int] = {}
        self.steps: dict[str, list[float]] = {}

    def _step(self, name: str, started: float) -> float:
        now = perf_counter()
        self.steps.setdefault(name, []).append(now - started)
        return now

    def setup(self, i: int) -> None:
        t = perf_counter()
        chunks = [c for doc in self.documents
                  for c in C.chunk_document(doc, CHUNK_SIZE, CHUNK_OVERLAP)]
        t = self._step("chunk_s", t)
        embed = HashingEmbedder()
        if self.run.tracer is not None:
            embed = self.run.tracer.embedder(embed)
        params = H.HybridParams(chunk_size=CHUNK_SIZE, chunk_overlap=CHUNK_OVERLAP,
                                ann=AnnParams(mode=self.ann_mode))
        index = H.build_hybrid(chunks, embed,
                               {d: sorted(a) for d, a in self.acl.items()}, params)
        t = self._step("build_s", t)
        kb = self.run.work / f"kb{i}"
        H.save_hybrid(index, kb)
        t = self._step("save_s", t)
        self.index = H.load_hybrid(kb)
        self._step("load_s", t)
        self.index_bytes = sum(p.stat().st_size for p in (kb / "index").iterdir())
        raw = HashingEmbedder(self.index.dense.dim)
        self.embed = {False: raw, True: raw}
        if self.run.tracer is not None:
            self.embed[True] = self.run.tracer.embedder(raw)

    def finish(self) -> None:
        principals = {p for acl in self.acl.values() for p in acl} - {"*"}
        text_bytes = sum(len(d.text.encode("utf-8")) for d in self.documents)
        named, steps = self.run.named, self.steps
        named["publish_s"] = (statistics.median(
            a + b + c for a, b, c in zip(steps["chunk_s"], steps["build_s"],
                                         steps["save_s"])), "s")
        named["load_s"] = (statistics.median(steps["load_s"]), "s")
        named["index_size_ratio"] = (self.index_bytes / text_bytes, "ratio")
        for step, values in steps.items():
            named[f"setup.{step}"] = (statistics.median(values), "s")
        self.run.props.update(chunks=self.index.n_chunks, tokens_per_chunk=CHUNK_SIZE,
                              vocabulary=len(self.index.lexical.postings),
                              dense_mode=self.index.dense.mode,
                              readable_chunks={p: self.readable(p)
                                               for p in sorted(principals)})

    def readable(self, principal: str) -> int:
        """Chunks of the served index the principal may read."""
        if principal not in self.readable_counts:
            self.readable_counts[principal] = sum(
                _may_read(self.acl[self.index.chunks[cid].doc_id], principal)
                for cid in self.index.chunk_ids)
        return self.readable_counts[principal]

    def check_hits(self, hits, k: int, principal: str):
        keys = [(-h.score, h.chunk_id) for h in hits]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            return "hits_not_sorted", True
        if len(hits) > k:
            return "too_many_hits", True
        for hit in hits:
            if not _may_read(self.acl[hit.doc_id], principal):
                return "acl_leak", True
            if any(rule.search(hit.text) for rule in _RAW_PII):
                return "pii_leak", True
        if len(hits) < min(k, self.readable(principal)):
            self.run.incomplete["short_list"] += 1
        return None


class SearchWorkload(_Retrieval):
    name = "search"
    why = ("hybrid search on a served 3k-chunk index: BM25, exact dense, fusion, "
           "ACL filter and PII guards; index build, save and load are the set-up")
    tail_pct = 99
    ann_mode = "exact"
    sizes = dict(n_docs=980, n_planted=60, n_queries=8000, tokens_per_doc=560)

    def __init__(self, run: Run):
        inputs = I.make_search_inputs(run.seed, **self.sizes)
        super().__init__(run, inputs.docs)
        run.props.update(inputs.props)
        self.items = inputs.queries

    def op(self, q: I.Query, traced: bool):
        return H.search_hybrid(self.index, q.text, self.embed[traced], k=q.k,
                               principal=q.principal)

    def check(self, q: I.Query, hits):
        counts = self.run.counts
        if q.planted_doc is not None:
            counts["planted"] += 1
            counts["planted_first"] += bool(hits) and hits[0].doc_id == q.planted_doc
        return self.check_hits(hits, q.k, q.principal)

    def finish(self) -> None:
        super().finish()
        counts = self.run.counts
        self.quality = counts["planted_first"] / max(1, counts["planted"])
        self.run.named["recall_at_1"] = (self.quality, "ratio")
        self.run.named["short_share"] = (self.run.incomplete["short_list"]
                                         / self.run.attempted, "ratio")


class _RecordingDerek(DerekPipeline):
    """Keeps the hits of the last retrieval so citations can be checked."""

    def retrieve(self, refined: str, principal: str = "*"):
        self.last_hits = super().retrieve(refined, principal)
        return self.last_hits


class AskWorkload(_Retrieval):
    name = "ask"
    why = ("cited answers at k=50 with regeneration: answer stages, guards and "
           "n-gram support outweigh BM25; a lexical speed-up should barely move it")
    tail_pct = 95
    sizes = dict(n_docs=1000, tokens_per_doc=400, n_questions=3000,
                 uncited_share=0.15)

    def __init__(self, run: Run):
        inputs = I.make_ask_inputs(run.seed, **self.sizes)
        super().__init__(run, inputs.docs)
        run.props.update(inputs.props)
        self.items = inputs.questions
        self.stub = DraftingStub({q.text for q in inputs.questions
                                  if q.uncited_first_draft})
        self.chat = {False: self.stub, True: self.stub}
        if run.tracer is not None:
            self.chat[True] = run.tracer.chat_port(self.stub)

    def setup(self, i: int) -> None:
        super().setup(i)
        self.pipeline = _RecordingDerek(self.index, self.embed[False], self.stub, k=50)

    def op(self, q: I.Question, traced: bool):
        self.stub.reset()
        self.pipeline.embed = self.embed[traced]
        self.pipeline.chat = self.chat[traced]
        grounded, _ = self.pipeline.answer_with_session(q.text, q.principal)
        return grounded, self.pipeline.last_hits

    def check(self, q: I.Question, result):
        grounded, hits = result
        counts = self.run.counts
        counts["drafts"] += grounded.regeneration_count + 1
        for c in grounded.citations:
            if not (1 <= c.snippet_no <= len(hits)
                    and hits[c.snippet_no - 1].chunk_id == c.chunk_id
                    and hits[c.snippet_no - 1].doc_id == c.doc_id):
                return "citation_unresolved", True
        counts["grounded"] += grounded.verdict == "sufficient" and bool(grounded.citations)
        return self.check_hits(hits, self.pipeline.k, q.principal)

    def finish(self) -> None:
        super().finish()
        counts, n = self.run.counts, self.run.attempted
        self.quality = counts["grounded"] / n
        self.run.named["grounded_share"] = (self.quality, "ratio")
        self.run.named["drafts_per_answer"] = (counts["drafts"] / n, "ratio")


_MUSIC_SCHEMA = """
CREATE TABLE chinook_track (track_id INTEGER PRIMARY KEY, name TEXT NOT NULL,
    genre TEXT NOT NULL, unit_price REAL NOT NULL);
CREATE TABLE chinook_customer (customer_id INTEGER PRIMARY KEY,
    first_name TEXT NOT NULL, last_name TEXT NOT NULL);
CREATE TABLE chinook_invoice (invoice_id INTEGER PRIMARY KEY,
    customer_id INTEGER NOT NULL REFERENCES chinook_customer(customer_id),
    invoice_date TEXT NOT NULL, total REAL NOT NULL);
CREATE TABLE chinook_invoice_line (invoice_line_id INTEGER PRIMARY KEY,
    invoice_id INTEGER NOT NULL REFERENCES chinook_invoice(invoice_id),
    track_id INTEGER NOT NULL REFERENCES chinook_track(track_id),
    unit_price REAL NOT NULL, quantity INTEGER NOT NULL);
CREATE INDEX idx_line_invoice ON chinook_invoice_line(invoice_id);
CREATE INDEX idx_invoice_customer ON chinook_invoice(customer_id);
"""

# expected (outcome, error prefix) of each failing attempt kind
_ATTEMPT_OUTCOME = {
    "syntax": ("error", "SqlSyntaxError"),
    "write": ("error", "NonSelectRejected"),
    "unknown_column": ("error", "SqlRuntimeError"),
    "empty": ("table", None),
    "low_rating": ("table", None),
}


def write_music_db(path: Path, rows: I.MusicRows) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(_MUSIC_SCHEMA)
        conn.executemany("INSERT INTO chinook_track VALUES (?,?,?,?)", rows.tracks)
        conn.executemany("INSERT INTO chinook_customer VALUES (?,?,?)", rows.customers)
        conn.executemany("INSERT INTO chinook_invoice VALUES (?,?,?,?)", rows.invoices)
        conn.executemany("INSERT INTO chinook_invoice_line VALUES (?,?,?,?,?)",
                         rows.lines)
        conn.commit()
    finally:
        conn.close()


class SqlWorkload:
    name = "sql"
    why = ("scripted SQL agent on a read-only SQLite store: gate, connection per "
           "execute, schema reads, rating, retries; no retrieval at all")
    tail_pct = 99
    setup_repeats = 51             # set-up takes under a millisecond
    max_attempts = 4               # thor.max_retries default (3) + 1
    sizes = dict(n_tracks=400, n_customers=300, n_invoices=10000,
                 lines_per_invoice=3, n_questions=3000, group_concat_share=0.05)

    def __init__(self, run: Run):
        self.run = run
        inputs = I.make_sql_inputs(run.seed, **self.sizes)
        run.props.update(inputs.props)
        self.items = inputs.questions
        self.db = run.work / "music.db"
        write_music_db(self.db, inputs.rows)
        self.port = SqlScriptChat({q.text: (q.script, q.low_rated)
                                   for q in inputs.questions})
        self.chat = {False: self.port, True: self.port}
        if run.tracer is not None:
            self.chat[True] = run.tracer.chat_port(self.port)
        self._reference: dict[str, tuple] = {}

    def _pipeline(self, traced: bool) -> ThorPipeline:
        chat = self.chat[traced]
        return ThorPipeline(SqliteExecutor(str(self.db)), chat,
                            max_retries=self.max_attempts - 1,
                            threshold=0.6, allow_empty=False, narrative_chat=chat)

    def setup(self, i: int) -> None:
        """Open the store and read its schema, as the first question does."""
        self._pipeline(self.run.tracer is not None).schema_text

    def op(self, q: I.SqlQuestion, traced: bool):
        # a new pipeline per question, as ``esap sql`` builds one per call
        pipeline = self._pipeline(traced)
        try:
            return pipeline.run(q.text)
        except ThorFailed as exc:        # check() tells expected from wrong
            return exc

    def reference(self, sql: str) -> tuple:
        if sql not in self._reference:
            conn = sqlite3.connect(f"file:{self.db}?mode=ro", uri=True)
            try:
                cursor = conn.execute(sql)
                rows = tuple(tuple(r) for r in cursor.fetchall())
                self._reference[sql] = (tuple(d[0] for d in cursor.description), rows)
            finally:
                conn.close()
        return self._reference[sql]

    @staticmethod
    def _attempts_match(attempts, script: list[str], expected: list[tuple]):
        if len(attempts) != len(expected):
            return "attempt_count_mismatch", True
        for attempt, sql, (outcome, error) in zip(attempts, script, expected):
            if attempt.sql != sql or attempt.outcome != outcome or (
                    error is not None and not (attempt.error or "").startswith(error)):
                return "attempt_mismatch", True
        return None

    def check(self, q: I.SqlQuestion, result):
        failing = [_ATTEMPT_OUTCOME[k] for k in q.kinds]
        if isinstance(result, ThorFailed):
            # correct only as the known gate defect: every attempt holding
            # the group_concat separator '; ' is rejected as multiple
            # statements, the accepted read on every attempt left, and the
            # question goes unanswered (incomplete, in complete_share)
            if "group_concat" not in q.reference or result.log is None:
                return "thor_failed", True
            left = self.max_attempts - len(failing)
            script = q.script[:-1] + [q.script[-1]] * left
            expected = [("error", "NonSelectRejected") if "'; '" in sql else outcome
                        for sql, outcome in zip(script, failing + [None] * left)]
            verdict = self._attempts_match(result.log.attempts, script, expected)
            if verdict is None:
                self.run.incomplete["group_concat_rejected"] += 1
            return verdict
        verdict = self._attempts_match(result.log.attempts, q.script,
                                       failing + [("table", None)])
        if verdict is not None:
            return verdict
        columns, rows = self.reference(q.reference)
        if result.table.columns != columns or result.table.rows != rows:
            return "table_mismatch", True
        self.run.counts["answered"] += 1
        return None

    def finish(self) -> None:
        self.quality = self.run.counts["answered"] / self.run.attempted
        self.run.named["answered_share"] = (self.quality, "ratio")


class PublishWorkload:
    name = "publish"
    why = ("update cycles of ingest, publish (HNSW build, save) and load: the "
           "only workload that writes, where durability and graph-build changes show")
    tail_pct = 95
    setup_repeats = 3
    sizes = dict(n_docs=30, tokens_per_doc=900, update_share=0.1, n_updates=50,
                 n_probes=20)
    exact_threshold = 100          # auto mode builds the graph above this size

    def __init__(self, run: Run):
        self.run = run
        self.inputs = I.make_publish_inputs(run.seed, **self.sizes)
        run.props.update(self.inputs.props)
        run.props["exact_threshold"] = self.exact_threshold
        self.items = self.inputs.updates
        self.steps: dict[str, list[float]] = {}
        self.ingest_ms: list[float] = []
        self.ann_ms: list[float] = []          # ANN top-10 on the loaded index
        self.recalls: list[float] = []

    def _cycle(self, batch: list[I.Doc], traced: bool, phase: str):
        """Ingest, then publish as ``esap index`` does, then load as every
        serving command does first, then ANN top-10 for each probe on the
        loaded index."""
        stored = []
        for doc in batch:
            t = perf_counter()
            stored.append(self.store.ingest(doc.doc_id, doc.text, acl=set(doc.acl)))
            self.ingest_ms.append((perf_counter() - t) * 1000.0)
        t = perf_counter()
        docs = self.store.latest_documents()
        chunks = [c for doc in docs
                  for c in C.chunk_document(doc, CHUNK_SIZE, CHUNK_OVERLAP)]
        embed = HashingEmbedder()
        if traced:
            embed = self.run.tracer.embedder(embed)
        params = H.HybridParams(chunk_size=CHUNK_SIZE, chunk_overlap=CHUNK_OVERLAP,
                                ann=AnnParams(exact_threshold=self.exact_threshold))
        index = H.build_hybrid(chunks, embed, {d.doc_id: sorted(d.acl) for d in docs},
                               params)
        H.save_hybrid(index, self.store.root)
        t1 = perf_counter()
        loaded = H.load_hybrid(self.store.root)
        self.steps.setdefault(f"{phase}.publish_s", []).append(t1 - t)
        self.steps.setdefault(f"{phase}.load_s", []).append(perf_counter() - t1)
        vectors = embed(self.inputs.probes)
        ann = []
        for vec in vectors:
            t = perf_counter()
            ann.append([pos for pos, _ in D.search_dense(loaded.dense, vec, 10)])
            self.ann_ms.append((perf_counter() - t) * 1000.0)
        return stored, docs, index, loaded, ann

    def setup(self, i: int) -> None:
        """A served knowledge base: every document ingested, published, loaded."""
        self.store = VersionStore(self.run.work / f"kb{i}")
        self.versions = {d.doc_id: 1 for d in self.inputs.docs}
        self._cycle(self.inputs.docs, self.run.tracer is not None, "setup")

    def op(self, batch: list[I.Doc], traced: bool):
        return self._cycle(batch, traced, "op")

    def check(self, batch: list[I.Doc], result):
        stored, docs, index, loaded, ann = result
        for doc, got in zip(batch, stored):
            self.versions[doc.doc_id] += 1
            if got.version != self.versions[doc.doc_id] or got.text != doc.text:
                return "ingest_mismatch", True
        text_bytes = sum(len(d.text.encode("utf-8")) for d in docs)
        index_bytes = sum(p.stat().st_size for p in (self.store.root / "index").iterdir())
        self.steps.setdefault("index_size_ratio", []).append(index_bytes / text_bytes)
        self.props = dict(chunks=index.n_chunks, tokens_per_chunk=CHUNK_SIZE,
                          vocabulary=len(index.lexical.postings),
                          dense_mode=loaded.dense.mode)
        embed = HashingEmbedder(index.dense.dim)
        for query, vec, top in zip(self.inputs.probes, embed(self.inputs.probes), ann):
            in_memory = H.search_hybrid(index, query, embed, k=10, principal="admin")
            served = H.search_hybrid(loaded, query, embed, k=10, principal="admin")
            if in_memory != served:
                return "loaded_index_differs", True
            sims = loaded.dense.vectors @ vec
            exact = np.lexsort((np.arange(sims.shape[0]), -sims))[:10]
            self.recalls.append(len(set(top) & set(exact.tolist())) / 10.0)
        return None

    def finish(self) -> None:
        named, steps = self.run.named, self.steps
        for step in ("publish_s", "load_s"):
            named[step] = (statistics.median(steps[f"op.{step}"]), "s")
            named[f"setup.{step}"] = (statistics.median(steps[f"setup.{step}"]), "s")
        named["index_size_ratio"] = (statistics.median(steps["index_size_ratio"]),
                                     "ratio")
        named["ingest_p50_ms"] = (statistics.median(self.ingest_ms), "ms")
        named["ingest_p95_ms"] = (float(np.percentile(self.ingest_ms, 95)), "ms")
        self.quality = statistics.fmean(self.recalls)
        named["ann_recall_at_10"] = (self.quality, "ratio")
        named["ann_search_p50_ms"] = (statistics.median(self.ann_ms), "ms")
        self.run.props.update(self.props)


WORKLOADS = {w.name: w for w in (SearchWorkload, AskWorkload, SqlWorkload,
                                 PublishWorkload)}
