"""Seeded input generators for every workload.

Each generator takes the workload seed and returns plain data (texts, ACL
tables, queries, SQL scripts); the program only ever sees these inputs.
The same seed always yields the same inputs.

Provenance of the mixes. The repository records no traffic, so only a few
values rest on it: k = 50 is the default of ``retrieval.k`` (esap.config)
and of the ROADMAP's baseline search, ``max_retries`` = 3 (esap.config)
bounds the failed SQL attempts, and planted questions repeat the four
markers of ``esap.synthetic.make_planted_corpus``. Every other mix is an
unverified assumption: equal shares over the values the benchmark's design
names (``equal``), so that no mix is chosen for a steady figure. Single
rates (PII, uncited drafts, new tokens, ``group_concat``, updates) are
assumptions too; each workload lists its assumed inputs under
``assumed`` in its input properties.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

N_TOPICS = 40
TOPIC_VOCAB = 300
GLUE = [f"g{j}" for j in range(60)]            # common terms: long postings
RARE_POOL = 40_000                             # rare terms: short postings
PROSE_GLUE = ("the", "a", "and", "of", "for", "with", "to", "in", "on",
              "our", "this", "that", "was", "were", "by", "after", "before")
EMPLOYEES = [f"u{j}" for j in range(8)]
ADMIN = "admin"
TENANT = "tenant9"
FIRST = ("ada", "alan", "grace", "edsger", "barbara", "donald", "frances",
         "ken", "margaret", "niklaus", "radia", "tony")
LAST = ("lovelace", "turing", "hopper", "dijkstra", "liskov", "knuth",
        "allen", "thompson", "hamilton", "wirth", "perlman", "hoare")


def equal(values) -> dict:
    """Equal shares over ``values``."""
    return {v: 1.0 / len(values) for v in values}


def make_rng(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(0, len(items)))]


def schedule(rng: np.random.Generator, mix: dict, n: int, block: int = 100) -> list:
    """n values in which every block of ``block`` holds each key in its
    exact share (largest remainder), shuffled within the block.

    The mix is then the same in every run prefix, whatever the seed, so a
    run's timings do not depend on how a seed happened to draw the mix.
    """
    keys = list(mix)
    total = sum(mix.values())
    exact = [mix[k] / total * block for k in keys]
    counts = [int(x) for x in exact]
    for i in sorted(range(len(keys)), key=lambda i: counts[i] - exact[i])[
            :block - sum(counts)]:
        counts[i] += 1
    pattern = [k for k, c in zip(keys, counts) for _ in range(c)]
    out: list = []
    while len(out) < n:
        out.extend(pattern[int(i)] for i in rng.permutation(block))
    return out[:n]


def _topic_word(rng: np.random.Generator, topic: int) -> str:
    # mild skew inside a topic: word j has probability ~ 1/sqrt(j), so the
    # head word is about 6% of a topic's tokens
    return f"t{topic}w{int(TOPIC_VOCAB * rng.random() ** 2)}"


def make_pii(rng: np.random.Generator) -> str:
    """One raw email, SSN or phone number."""
    kind = _pick(rng, ("email", "ssn", "phone"))
    if kind == "email":
        n = int(rng.integers(1, 99))
        return f"{_pick(rng, FIRST)}.{_pick(rng, LAST)}{n}@corpmail.com"
    d = [str(int(x)) for x in rng.integers(0, 10, size=10)]
    if kind == "ssn":
        return f"{''.join(d[:3])}-{''.join(d[3:5])}-{''.join(d[5:9])}"
    return f"({''.join(d[:3])}) {''.join(d[3:6])}-{''.join(d[6:10])}"


def make_acl(rng: np.random.Generator, kind: str) -> list[str]:
    """ACL of one document: public, internal (all staff), owned, or tenant."""
    if kind == "public":
        return ["*"]
    if kind == "internal":
        return sorted([ADMIN] + EMPLOYEES)
    if kind == "own":
        return sorted([ADMIN, _pick(rng, EMPLOYEES)])
    return sorted([ADMIN, TENANT])


# public + tenant documents make up the 5% the tenant may read; the rest is
# split equally between internal and owned documents
ACL_SHARES = {"public": 0.01, "internal": 0.475, "own": 0.475, "tenant": 0.04}


@dataclass
class Doc:
    doc_id: str
    text: str
    acl: list[str]
    pii: int = 0                       # PII items written into the text


@dataclass
class Query:
    text: str
    k: int
    principal: str
    planted_doc: str | None = None     # doc whose only chunk must rank first
    new_token: bool = False


@dataclass
class SearchInputs:
    docs: list[Doc]
    queries: list[Query]
    props: dict = field(default_factory=dict)


def _keyword_text(rng: np.random.Generator, n_tokens: int, topic: int,
                  pii_rate: float) -> tuple[str, int]:
    words: list[str] = []
    pii = 0
    while len(words) < n_tokens:
        r = rng.random()
        if r < pii_rate:
            words.append(make_pii(rng))
            pii += 1
        elif r < 0.70:
            words.append(_topic_word(rng, topic))
        elif r < 0.93:
            words.append(_pick(rng, GLUE))
        else:
            words.append(f"r{int(rng.integers(0, RARE_POOL))}")
    return " ".join(words), pii


def make_search_inputs(seed: int, n_docs: int, n_planted: int,
                       n_queries: int, tokens_per_doc: int) -> SearchInputs:
    """Keyword corpus (several 200-token chunks per document), planted
    single-chunk documents with unique markers, and a mixed query stream."""
    rng = make_rng(seed, "search")
    docs = []
    acl_kinds = schedule(rng, ACL_SHARES, n_docs)
    pii_docs = schedule(rng, {True: 0.2, False: 0.8}, n_docs)
    for i in range(n_docs):
        topic = int(rng.integers(0, N_TOPICS))
        text, pii = _keyword_text(rng, tokens_per_doc, topic,
                                  0.01 if pii_docs[i] else 0.0)
        docs.append(Doc(f"kd{i:05d}", text, make_acl(rng, acl_kinds[i]), pii))
    planted_markers = {}
    for i in range(n_planted):
        doc_id = f"pd{i:04d}"
        markers = [f"zq{seed % 1000}m{i}x{j}" for j in range(4)]
        # four markers and eight shared fillers, as in esap.synthetic's
        # planted corpus: the marker chunk is the unique best hit of both
        # retrievers, so Recall@1 is 1 unless retrieval breaks
        body = " ".join(_pick(rng, GLUE) for _ in range(8))
        docs.append(Doc(doc_id, " ".join(markers) + " " + body,
                        sorted([ADMIN] + EMPLOYEES)))
        planted_markers[doc_id] = markers

    length_mix = equal(range(1, 13))
    k_mix = equal((5, 10, 50))
    glue_mix = equal((0.0, 0.3, 0.6))
    principal_mix = equal((ADMIN, "employee", TENANT, "planted"))
    queries = []
    planted_ids = list(planted_markers)
    ks, whos = schedule(rng, k_mix, n_queries), schedule(rng, principal_mix, n_queries)
    lengths, glues = schedule(rng, length_mix, n_queries), schedule(rng, glue_mix, n_queries)
    new_tokens = schedule(rng, {True: 0.1, False: 0.9}, n_queries)
    for i in range(n_queries):
        k, who = ks[i], whos[i]
        if who == "planted":
            doc_id = _pick(rng, planted_ids)
            principal = _pick(rng, [ADMIN] + EMPLOYEES)
            queries.append(Query(" ".join(planted_markers[doc_id]), k,
                                 principal, planted_doc=doc_id))
            continue
        principal = _pick(rng, EMPLOYEES) if who == "employee" else who
        n, glue, new_token = lengths[i], glues[i], new_tokens[i]
        topic = int(rng.integers(0, N_TOPICS))
        words = [_pick(rng, GLUE) if rng.random() < glue
                 else _topic_word(rng, topic) for _ in range(n)]
        if new_token:
            # order-number style token no document or earlier query holds
            words[int(rng.integers(0, n))] = f"ord{seed % 1000}n{i:06d}"
        queries.append(Query(" ".join(words), k, principal,
                             new_token=new_token))

    props = {
        "documents": len(docs),
        "planted_documents": n_planted,
        "tokens_per_document": tokens_per_doc,
        "query_length_mix": length_mix,
        "query_glue_share_mix": glue_mix,
        "k_mix": k_mix,
        "principal_mix": principal_mix,
        "new_token_query_share": round(sum(q.new_token for q in queries)
                                       / len(queries), 4),
        "acl_layout": ACL_SHARES,
        "pii_document_share": round(sum(d.pii > 0 for d in docs) / len(docs), 4),
        "assumed": ["query_length_mix", "query_glue_share_mix", "k_mix shares",
                    "principal_mix", "new_token_query_share", "acl_layout",
                    "pii_document_share"],
    }
    return SearchInputs(docs, queries, props)


# ---------------------------------------------------------------------------
# ask: multi-sentence prose and questions taken from it
# ---------------------------------------------------------------------------

@dataclass
class Question:
    text: str
    principal: str
    uncited_first_draft: bool


@dataclass
class AskInputs:
    docs: list[Doc]
    questions: list[Question]
    props: dict = field(default_factory=dict)


def _sentence(rng: np.random.Generator, topic: int, pii_rate: float) -> tuple[str, int]:
    n = int(rng.integers(8, 19))
    words = []
    pii = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.55:
            words.append(_topic_word(rng, topic))
        elif r < 0.85:
            words.append(_pick(rng, PROSE_GLUE))
        else:
            words.append(f"r{int(rng.integers(0, RARE_POOL))}")
    if rng.random() < pii_rate:
        words.insert(int(rng.integers(1, n)), "contact " + make_pii(rng))
        pii += 1
    words[0] = words[0].capitalize()
    return " ".join(words) + ".", pii


def make_ask_inputs(seed: int, n_docs: int, tokens_per_doc: int,
                    n_questions: int, uncited_share: float) -> AskInputs:
    """Prose documents (sentences of 8-18 words, some carrying PII) and
    questions built from a window of one sentence."""
    rng = make_rng(seed, "ask")
    acl_shares = {"public": 0.02, "internal": 0.49, "own": 0.49}
    docs = []
    sentences: list[tuple[str, list[str]]] = []
    acl_kinds = schedule(rng, acl_shares, n_docs)
    for i in range(n_docs):
        topic = int(rng.integers(0, N_TOPICS))
        parts, count, pii = [], 0, 0
        while count < tokens_per_doc:
            s, p = _sentence(rng, topic, 0.02)
            parts.append(s)
            count += len(s.split())
            pii += p
        acl = make_acl(rng, acl_kinds[i])
        docs.append(Doc(f"ad{i:05d}", " ".join(parts), acl, pii))
        for s in parts:
            sentences.append((s, acl))
    questions = []
    uncited = schedule(rng, {True: uncited_share, False: 1.0 - uncited_share},
                       n_questions)
    for i in range(n_questions):
        s, acl = _pick(rng, sentences)
        words = [w.strip(".").lower() for w in s.split()
                 if not any(c in w for c in "@-()")]
        start = int(rng.integers(0, max(1, len(words) - 6)))
        window = " ".join(words[start:start + 6])
        readers = EMPLOYEES + [ADMIN] if "*" in acl else [p for p in acl]
        questions.append(Question(f"What does the record say about {window}?",
                                  _pick(rng, readers), uncited[i]))
    props = {
        "documents": n_docs,
        "tokens_per_document": tokens_per_doc,
        "questions": n_questions,
        "uncited_first_draft_share": round(
            sum(q.uncited_first_draft for q in questions) / n_questions, 4),
        "acl_layout": acl_shares,
        "pii_document_share": round(sum(d.pii > 0 for d in docs) / n_docs, 4),
        "assumed": ["uncited_first_draft_share", "acl_layout", "pii_document_share"],
    }
    return AskInputs(docs, questions, props)


# ---------------------------------------------------------------------------
# sql: a scaled-up music store and scripted questions
# ---------------------------------------------------------------------------

GENRES = ("Rock", "Jazz", "Hip Hop", "hip-hop", "Hip Hop/Rap", "Blues",
          "Classical", "Pop", "Metal", "Folk", "Soul", "Reggae")


@dataclass
class MusicRows:
    tracks: list[tuple]
    customers: list[tuple]
    invoices: list[tuple]
    lines: list[tuple]


@dataclass
class SqlQuestion:
    text: str
    script: list[str]                  # generated SQL per attempt, accepted last
    low_rated: list[str]               # valid SQL the rater scores below threshold
    reference: str                     # what the benchmark runs to check the table
    kinds: list[str]                   # failure kind of each attempt before the last


@dataclass
class SqlInputs:
    rows: MusicRows
    questions: list[SqlQuestion]
    props: dict = field(default_factory=dict)


def make_music_rows(rng: np.random.Generator, n_tracks: int, n_customers: int,
                    n_invoices: int, lines_per_invoice: int) -> MusicRows:
    tracks = [(i, f"Track {i} {_pick(rng, LAST).title()}", _pick(rng, GENRES),
               float(_pick(rng, (0.99, 1.29, 1.49, 1.99))))
              for i in range(1, n_tracks + 1)]
    customers = [(i, _pick(rng, FIRST).title(), _pick(rng, LAST).title())
                 for i in range(1, n_customers + 1)]
    invoices, lines = [], []
    line_id = 1
    for inv in range(1, n_invoices + 1):
        year = 2023 + int(rng.integers(0, 3))
        date = f"{year}-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
        total = 0.0
        for _ in range(int(rng.integers(1, 2 * lines_per_invoice))):
            track = tracks[int(rng.integers(0, n_tracks))]
            qty = int(rng.integers(1, 6))
            lines.append((line_id, inv, track[0], track[3], qty))
            total += track[3] * qty
            line_id += 1
        invoices.append((inv, int(rng.integers(1, n_customers + 1)), date,
                         round(total, 2)))
    return MusicRows(tracks, customers, invoices, lines)


_LINES = ("chinook_invoice_line l JOIN chinook_track t ON t.track_id = l.track_id "
          "JOIN chinook_invoice i ON i.invoice_id = l.invoice_id")


# every template in an equal share, for coverage: three aggregations over
# the invoice lines (genre_revenue, top_tracks, top_customers) and two
# indexed lookups (customer_months, invoice_detail); latency is bimodal
TEMPLATE_MIX = equal(("genre_revenue", "customer_months", "top_tracks",
                      "invoice_detail", "top_customers"))


def _accepted_sql(rng: np.random.Generator, rows: MusicRows,
                  template: str) -> tuple[str, str, str | None]:
    """(question, accepted SQL, empty-result variant) for one template."""
    if template == "group_concat":
        # a valid read whose string literal holds a semicolon
        genre = _pick(rng, GENRES)
        return (f"List every {genre} track grouped by genre.",
                f"SELECT genre, group_concat(name, '; ') AS tracks "
                f"FROM chinook_track WHERE genre = '{genre}' GROUP BY genre", None)
    if template == "genre_revenue":
        year = 2023 + int(rng.integers(0, 3))
        sql = (f"SELECT t.genre, ROUND(SUM(l.unit_price * l.quantity), 2) AS revenue "
               f"FROM {_LINES} WHERE i.invoice_date LIKE '{year}-%' "
               f"GROUP BY t.genre ORDER BY revenue DESC, t.genre")
        return (f"What was the total revenue by genre in {year}?", sql,
                sql.replace(f"'{year}-%'", "'1999-%'"))
    if template == "customer_months":
        cust = _pick(rng, rows.invoices)[1]
        sql = (f"SELECT substr(invoice_date, 1, 7) AS month, ROUND(SUM(total), 2) AS total "
               f"FROM chinook_invoice WHERE customer_id = {cust} "
               f"GROUP BY month ORDER BY month")
        return (f"Show monthly invoice totals for customer {cust}.", sql,
                sql.replace(f"= {cust}", "= -1"))
    if template == "top_tracks":
        n = int(rng.integers(3, 15))
        genre = _pick(rng, GENRES)
        sql = (f"SELECT t.name, SUM(l.quantity) AS units FROM {_LINES} "
               f"WHERE t.genre = '{genre}' GROUP BY t.track_id "
               f"ORDER BY units DESC, t.name LIMIT {n}")
        return (f"Which {n} {genre} tracks sold the most units?", sql,
                sql.replace(f"'{genre}'", "'Polka'"))
    if template == "invoice_detail":
        inv = _pick(rng, rows.invoices)[0]
        sql = (f"SELECT l.invoice_line_id, t.name, l.quantity, l.unit_price "
               f"FROM chinook_invoice_line l JOIN chinook_track t "
               f"ON t.track_id = l.track_id WHERE l.invoice_id = {inv} "
               f"ORDER BY l.invoice_line_id")
        return (f"List the lines and units of invoice {inv}.", sql,
                sql.replace(f"= {inv}", "= -1"))
    lo = 2023 + int(rng.integers(0, 3))
    sql = (f"SELECT c.first_name || ' ' || c.last_name AS customer, COUNT(*) AS orders "
           f"FROM chinook_invoice i JOIN chinook_customer c "
           f"ON c.customer_id = i.customer_id "
           f"WHERE i.invoice_date BETWEEN '{lo}-01-01' AND '{lo}-06-30' "
           f"GROUP BY c.customer_id ORDER BY orders DESC, customer LIMIT 10")
    return (f"Which customers placed the most orders in the first half of {lo}?",
            sql, sql.replace(f"'{lo}-06-30'", f"'{lo - 10}-06-30'"))


FAILURE_KINDS = ("syntax", "write", "unknown_column", "empty", "low_rating")


def make_sql_inputs(seed: int, n_tracks: int, n_customers: int, n_invoices: int,
                    lines_per_invoice: int, n_questions: int,
                    group_concat_share: float) -> SqlInputs:
    """Music-store rows and questions, each with the script of SQL its
    attempts generate: up to three failing attempts, then the accepted one."""
    rng = make_rng(seed, "sql")
    rows = make_music_rows(rng, n_tracks, n_customers, n_invoices,
                           lines_per_invoice)
    prior_mix = equal(range(4))          # 0 .. max_retries failed attempts
    template_mix = {t: share * (1.0 - group_concat_share)
                    for t, share in TEMPLATE_MIX.items()}
    template_mix["group_concat"] = group_concat_share
    templates = schedule(rng, template_mix, n_questions)
    priors = schedule(rng, prior_mix, n_questions)
    questions = []
    for qi in range(n_questions):
        text, sql, empty = _accepted_sql(rng, rows, templates[qi])
        # question ids keep texts unique, so the port can key scripts on them
        text = f"{text} (request {qi})"
        script, low, kinds = [], [], []
        for _ in range(priors[qi]):
            kind = _pick(rng, FAILURE_KINDS if empty else
                         ("syntax", "write", "unknown_column", "low_rating"))
            kinds.append(kind)
            if kind == "syntax":
                script.append(sql.replace("SELECT ", "SELECT , ", 1))
            elif kind == "write":
                script.append(f"DELETE FROM chinook_invoice WHERE invoice_id = {qi}")
            elif kind == "unknown_column":
                script.append(sql.replace("SELECT ", "SELECT revenue_total, ", 1))
            elif kind == "empty":
                script.append(empty)
            else:
                bad = (f"SELECT genre, COUNT(*) AS tracks FROM chinook_track "
                       f"GROUP BY genre ORDER BY genre LIMIT {len(low) + 2 + qi % 5}")
                script.append(bad)
                low.append(bad)
        script.append(sql)
        questions.append(SqlQuestion(text, script, low, sql, kinds))
    all_kinds = [k for q in questions for k in q.kinds]
    props = {
        "tracks": n_tracks, "customers": n_customers, "invoices": n_invoices,
        "invoice_lines": len(rows.lines),
        "questions": n_questions,
        "template_mix": TEMPLATE_MIX,
        "prior_attempts_mix": prior_mix,
        "failed_attempts_per_question": round(len(all_kinds) / n_questions, 4),
        "attempt_mix": {k: round(all_kinds.count(k) / max(1, len(all_kinds)), 4)
                        for k in FAILURE_KINDS},
        "group_concat_share": round(sum("group_concat" in q.reference
                                        for q in questions) / n_questions, 4),
        "assumed": ["template_mix", "prior_attempts_mix shares", "attempt_mix",
                    "group_concat_share"],
    }
    return SqlInputs(rows, questions, props)


# ---------------------------------------------------------------------------
# publish: documents to ingest, a tenth of them twice
# ---------------------------------------------------------------------------

@dataclass
class PublishInputs:
    docs: list[Doc]                    # initial ingest, one version each
    updates: list[list[Doc]]           # per op: new versions of a tenth of the docs
    probes: list[str]                  # queries for the saved-vs-loaded check
    props: dict = field(default_factory=dict)


def make_publish_inputs(seed: int, n_docs: int, tokens_per_doc: int,
                        update_share: float, n_updates: int,
                        n_probes: int) -> PublishInputs:
    rng = make_rng(seed, "publish")
    docs = []
    acl_kinds = schedule(rng, ACL_SHARES, n_docs)
    for i in range(n_docs):
        topic = int(rng.integers(0, N_TOPICS))
        text, pii = _keyword_text(rng, tokens_per_doc, topic, 0.002)
        docs.append(Doc(f"pub{i:05d}", text, make_acl(rng, acl_kinds[i]), pii))
    updates = []
    for _ in range(n_updates):
        batch = []
        for i in sorted(rng.choice(n_docs, size=max(1, int(n_docs * update_share)),
                                   replace=False).tolist()):
            extra, _ = _keyword_text(rng, 20, int(rng.integers(0, N_TOPICS)), 0.0)
            batch.append(Doc(docs[i].doc_id, docs[i].text + " " + extra, docs[i].acl))
        updates.append(batch)
    probes = []
    for _ in range(n_probes):
        topic = int(rng.integers(0, N_TOPICS))
        probes.append(" ".join(_topic_word(rng, topic)
                               for _ in range(int(rng.integers(2, 8)))))
    props = {
        "documents": n_docs,
        "tokens_per_document": tokens_per_doc,
        "update_share_per_op": update_share,
        "acl_layout": ACL_SHARES,
        "pii_document_share": round(sum(d.pii > 0 for d in docs) / n_docs, 4),
        "probes_per_op": n_probes,
        "assumed": ["update_share_per_op", "acl_layout", "pii_document_share"],
    }
    return PublishInputs(docs, updates, probes, props)
