from __future__ import annotations

import random
import string
from pathlib import Path

import numpy as np
import pytest

from esap.errors import (
    ModelRefusal,
    NonSelectRejected,
    ScriptExhausted,
    SqlRuntimeError,
    SqlSyntaxError,
    SqlTimeout,
    TransportError,
)
from esap import ports
from esap.fixtures import seed_music_db
from esap.ports import (
    ChatRequest,
    ChatResponse,
    ExtractiveStub,
    HashingEmbedder,
    HttpChatModel,
    ScriptedModel,
    SqliteExecutor,
    _TOKEN_SLOT_CACHE,
    _fnv1a64,
    _fnv1a64_array,
    _term_slots,
    _token_slot,
    chat_request,
    introspect_schema,
    serialize_schema,
)
from esap.tokenizer import term_ids, token_texts


# ---------------------------------------------------------------------------
# chat request/response
# ---------------------------------------------------------------------------

def test_chat_request_shape():
    req = chat_request("question here", system="be terse", temperature=0.2)
    assert req.messages == (("system", "be terse"), ("user", "question here"))
    assert req.last_user == "question here"
    assert req.temperature == 0.2


def test_chat_request_requires_messages():
    with pytest.raises(ValueError):
        ChatRequest(messages=())


def test_last_user_falls_back_to_tail():
    req = ChatRequest(messages=(("system", "rules"),))
    assert req.last_user == "rules"


# ---------------------------------------------------------------------------
# scripted model
# ---------------------------------------------------------------------------

def test_scripted_replay_in_order():
    model = ScriptedModel(["one", "two"])
    assert model.chat(chat_request("a")).text == "one"
    assert model.chat(chat_request("b")).text == "two"
    assert model.calls == 2


def test_scripted_exhaustion():
    model = ScriptedModel(["only"])
    model.chat(chat_request("a"))
    with pytest.raises(ScriptExhausted):
        model.chat(chat_request("b"))


def test_scripted_predicate_guards_prompt_drift():
    model = ScriptedModel([
        (lambda req: "expected" in req.last_user, "ok"),
    ])
    with pytest.raises(AssertionError):
        model.chat(chat_request("something else"))


def test_scripted_records_requests():
    model = ScriptedModel(["x"])
    model.chat(chat_request("remember me"))
    assert model.requests[0].last_user == "remember me"


# ---------------------------------------------------------------------------
# extractive stub
# ---------------------------------------------------------------------------

def test_stub_echoes_refine_prompts():
    stub = ExtractiveStub()
    reply = stub.chat(chat_request(
        "Rewrite the user question to maximize retrieval precision; "
        "output only the rewritten question.\nQUESTION: where is the apple?"))
    assert reply.text == "where is the apple?"


def test_stub_picks_best_overlap_sentence_with_citation():
    prompt = ("# CONTEXT\n"
              "[1] The pear is green. The red apple sits in the basket.\n"
              "[2] Bananas are yellow.\n"
              "# OBJECTIVE\nanswer\n# RESPONSE\ncite\n"
              "QUESTION: where does the red apple sit")
    reply = ExtractiveStub().chat(chat_request(prompt))
    assert reply.text == "The red apple sits in the basket. [1]"


def test_stub_tie_prefers_earliest_sentence():
    prompt = ("# CONTEXT\n"
              "[1] zebra alpha. zebra beta.\n"
              "# RESPONSE\ncite\n"
              "QUESTION: zebra")
    reply = ExtractiveStub().chat(chat_request(prompt))
    assert reply.text == "zebra alpha. [1]"


def test_stub_approves_critique_prompts():
    reply = ExtractiveStub().chat(chat_request(
        "Is the draft fully supported by the context? "
        "Reply with exactly one word: sufficient or insufficient.\nDRAFT: x"))
    assert reply.text == "sufficient"


def test_stub_acknowledges_everything_else():
    assert ExtractiveStub().chat(chat_request("hello")).text == "Acknowledged."


# ---------------------------------------------------------------------------
# hashing embedder
# ---------------------------------------------------------------------------

def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a64(b"foobar") == 0x85944171F73967E8


def test_embedder_deterministic_and_unit_norm():
    embed = HashingEmbedder()
    a = embed(["red apple in a basket"])
    b = HashingEmbedder()(["red apple in a basket"])
    assert np.array_equal(a, b)
    assert np.linalg.norm(a[0]) == pytest.approx(1.0, abs=1e-6)
    assert a.shape == (1, 256)


def test_embedder_order_insensitive_bag_of_tokens():
    embed = HashingEmbedder()
    a = embed(["red apple basket"])
    b = embed(["basket red apple"])
    assert np.allclose(a, b)


def test_embedder_empty_text_is_zero_vector():
    vec = HashingEmbedder()([""])[0]
    assert not vec.any()


def test_embedder_single_token_coordinates():
    dim = 16
    vec = HashingEmbedder(dim)(["apple"])[0]
    h = _fnv1a64(b"apple")
    expected = np.zeros(dim, dtype=np.float32)
    expected[h % dim] = 1.0 if (h >> 63) == 0 else -1.0
    assert np.array_equal(vec, expected)


def test_embedder_token_cache_is_bounded():
    # single-text calls (queries) fill the cache; a many-text call hashes
    # its vocabulary as arrays and leaves the cache alone
    dim = 64
    texts = [" ".join(f"bound{row}x{col}" for col in range(10))
             for row in range(_TOKEN_SLOT_CACHE // 10 + 100)]
    embed = HashingEmbedder(dim)
    vectors = np.concatenate([embed([text]) for text in texts])
    assert _token_slot.cache_info().currsize <= _TOKEN_SLOT_CACHE
    expected = np.zeros((len(texts), dim), dtype=np.float32)
    for row, text in enumerate(texts):
        for token in text.split():
            h = _fnv1a64(token.encode("utf-8"))
            expected[row, h % dim] += 1.0 if (h >> 63) == 0 else -1.0
        expected[row] /= np.linalg.norm(expected[row])
    assert np.array_equal(vectors, expected)
    # the first texts' tokens were evicted and are hashed again
    assert np.array_equal(np.concatenate([embed([text]) for text in texts[:50]]),
                          expected[:50])
    before = _token_slot.cache_info()
    assert np.array_equal(embed(texts[:50]), expected[:50])
    assert _token_slot.cache_info() == before


def random_terms(rng: random.Random, count: int, ascii_only: bool) -> list[str]:
    """count terms of 1 to 300 UTF-8 bytes; outside ASCII, chars of 2, 3 and
    4 bytes and ones that change under case mapping."""
    alphabet = string.ascii_lowercase + string.digits
    if not ascii_only:
        alphabet += "İßσΣé中文字語𝔘"
    terms = []
    for _ in range(count):
        limit, term = rng.randrange(1, 301), ""
        while True:
            char = rng.choice(alphabet)
            if len((term + char).encode("utf-8")) > limit:
                break
            term += char
        terms.append(term or "x")
    return terms


@pytest.mark.parametrize("dim", [1, 7, 256])
def test_array_hash_equals_the_scalar_hash(dim, monkeypatch):
    rng = random.Random(53)
    named = ["İstanbul", "straße", "中文字", "語", "apple"]
    vocabularies = [[], ["a"], named, named * 3]
    for count in (1, 5, 31, 32, 33, 100, 400):
        for ascii_only in (True, False):
            terms = random_terms(rng, count, ascii_only)
            vocabularies.append(terms + rng.sample(terms, min(count, 7)))    # repeats
    vocabularies.append(named + random_terms(rng, 200, True))
    # every column an array step, the default, every column in the scalar loop
    for column_min in (1, ports._ARRAY_COLUMN_MIN, 1 << 30):
        monkeypatch.setattr(ports, "_ARRAY_COLUMN_MIN", column_min)
        for terms in vocabularies:
            hashes = _fnv1a64_array(terms)
            assert hashes.dtype == np.uint64 and hashes.shape == (len(terms),)
            assert hashes.tolist() == [_fnv1a64(t.encode("utf-8")) for t in terms]
            slots, signs = _term_slots(terms, dim)
            assert list(zip(slots.tolist(), signs.tolist())) == \
                   [_token_slot(t, dim) for t in terms]


def reference_embed(texts: list[str], dim: int) -> np.ndarray:
    """The per-token loop the bincount rows replaced, transcribed: +/-1
    added into a float32 row token by token, then the row divided by its
    ``np.linalg.norm``."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    for row, text in enumerate(texts):
        vec = out[row]
        for token in token_texts(text):
            slot, sign = _token_slot(token, dim)
            vec[slot] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
    return out


# more than 4,096 tokens, so squared norms pass 2**24 and float32 partial
# sums of squares may round: at dim 7 (first text) and dim 256 (second)
# the square root of the exact sum differs from np.linalg.norm of the
# float32 row in the last bit
LONG_TEXTS = ["w57 " * 445 + "w19 " * 1592 + "w0 " * 2519,
              "w46 " * 2665 + "w19 " * 1395 + "w51 " * 2963,
              "apple " * 5000]


def embedder_cases() -> list[list[str]]:
    rng = random.Random(31)
    words = [f"w{i}" for i in range(60)] + ["İstanbul", "straße", "ΣΟΦΙΑ", "café"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randrange(0, 50)))
             for _ in range(200)]
    return [texts, ["", "...", "", "red apple"], LONG_TEXTS, texts[:3] + LONG_TEXTS,
            [""], LONG_TEXTS[:1], texts[:1], []]


@pytest.mark.parametrize("dim, text", [(7, LONG_TEXTS[0]), (256, LONG_TEXTS[1])])
def test_long_texts_round_in_float32(dim, text):
    # the premise of LONG_TEXTS: an exact norm would not match the loop
    sums = np.zeros(dim)
    for token in token_texts(text):
        slot, sign = _token_slot(token, dim)
        sums[slot] += sign
    exact = np.float32(np.sqrt(sums @ sums))
    assert exact != np.linalg.norm(sums.astype(np.float32))


@pytest.mark.parametrize("dim", [1, 7, 256])
def test_embedder_equals_the_per_token_loop(dim):
    embed = HashingEmbedder(dim)
    for texts in embedder_cases():
        want = reference_embed(texts, dim)
        got = embed(texts)
        assert got.dtype == np.float32 and got.shape == (len(texts), dim)
        assert np.array_equal(got, want)
        assert np.array_equal(embed.embed_ids(*term_ids(texts)), want)
        # one text at a time takes the query path
        for text, row in zip(texts, want):
            assert np.array_equal(embed([text])[0], row)


def test_embedder_rows_across_block_boundaries(monkeypatch):
    dim = 7
    monkeypatch.setattr(ports, "_BLOCK_CELLS", 3 * dim)     # 3 rows per block
    texts = [" ".join(f"t{(row * col) % 11}" for col in range(row % 5))
             for row in range(20)]
    assert np.array_equal(HashingEmbedder(dim)(texts), reference_embed(texts, dim))


def test_embedder_dim_validation():
    with pytest.raises(ValueError):
        HashingEmbedder(0)


# ---------------------------------------------------------------------------
# http chat adapter
# ---------------------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code: int, body: dict | None = None, text: str = ""):
        self.status_code = status_code
        self._body = body or {}
        self.text = text

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, outcomes: list):
        self.outcomes = list(outcomes)
        self.posts: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_model(session, **kwargs):
    return HttpChatModel(base_url="http://unit.test/v1", api_key="k",
                         model="m", backoff_base=0.0, session=session, **kwargs)


def ok_body(text: str = "hi") -> dict:
    return {"choices": [{"message": {"content": text},
                         "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 5}}


def test_http_success_and_wire_format():
    session = FakeSession([FakeResponse(200, ok_body("answer"))])
    reply = make_model(session).chat(chat_request("q", system="s"))
    assert reply.text == "answer"
    assert reply.prompt_tokens == 3 and reply.completion_tokens == 5
    sent = session.posts[0]["json"]
    assert sent["messages"] == [{"role": "system", "content": "s"},
                                {"role": "user", "content": "q"}]
    assert sent["temperature"] == 0.0
    assert session.posts[0]["url"].endswith("/chat/completions")
    assert session.posts[0]["headers"]["Authorization"] == "Bearer k"


def test_http_retries_429_then_succeeds():
    session = FakeSession([FakeResponse(429), FakeResponse(200, ok_body())])
    assert make_model(session).chat(chat_request("q")).text == "hi"
    assert len(session.posts) == 2


def test_http_retries_transport_errors():
    session = FakeSession([ConnectionError("boom"), FakeResponse(200, ok_body())])
    assert make_model(session).chat(chat_request("q")).text == "hi"


def test_http_gives_up_after_attempt_cap():
    session = FakeSession([FakeResponse(500)] * 3)
    with pytest.raises(TransportError, match="3 attempts"):
        make_model(session).chat(chat_request("q"))
    assert len(session.posts) == 3


def test_http_client_errors_fail_fast():
    session = FakeSession([FakeResponse(401, text="denied")])
    with pytest.raises(TransportError, match="401"):
        make_model(session).chat(chat_request("q"))
    assert len(session.posts) == 1


def test_http_empty_content_is_refusal():
    session = FakeSession([FakeResponse(200, ok_body("  "))])
    with pytest.raises(ModelRefusal):
        make_model(session).chat(chat_request("q"))


@pytest.mark.parametrize("usage, tokens", [
    (None, (0, 0)),
    ({"prompt_tokens": None, "completion_tokens": 5}, (0, 5)),
    ({}, (0, 0)),
    ({"prompt_tokens": "7", "completion_tokens": 2.0}, (7, 2)),
    ({"prompt_tokens": "many"}, None),
    ({"prompt_tokens": [3]}, None),
    ("3 tokens", None),
    ([3, 5], None),
], ids=["null-usage", "null-count", "empty", "numeric-text", "word", "list-count",
        "text-usage", "list-usage"])
def test_http_usage_counts_or_malformed_body(usage, tokens):
    body = {**ok_body(), "usage": usage}
    model = make_model(FakeSession([FakeResponse(200, body)]))
    if tokens is None:
        with pytest.raises(TransportError, match="malformed response body"):
            model.chat(chat_request("q"))
    else:
        reply = model.chat(chat_request("q"))
        assert (reply.prompt_tokens, reply.completion_tokens) == tokens


def test_http_needs_base_url(monkeypatch):
    monkeypatch.delenv("ESAP_BASE_URL", raising=False)
    with pytest.raises(TransportError):
        HttpChatModel()


def test_http_env_configuration(monkeypatch):
    monkeypatch.setenv("ESAP_BASE_URL", "http://env.test/v1/")
    monkeypatch.setenv("ESAP_API_KEY", "env-key")
    monkeypatch.setenv("ESAP_MODEL", "env-model")
    session = FakeSession([FakeResponse(200, ok_body())])
    model = HttpChatModel(session=session)
    model.chat(chat_request("q"))
    assert session.posts[0]["url"] == "http://env.test/v1/chat/completions"
    assert session.posts[0]["json"]["model"] == "env-model"
    assert session.posts[0]["headers"]["Authorization"] == "Bearer env-key"


# ---------------------------------------------------------------------------
# sqlite executor
# ---------------------------------------------------------------------------

@pytest.fixture()
def music_db(tmp_path):
    path = tmp_path / "music.db"
    seed_music_db(path)
    return str(path)


def test_select_executes(music_db):
    result = SqliteExecutor(music_db).execute(
        "SELECT name FROM chinook_track ORDER BY track_id")
    assert result.columns == ("name",)
    assert result.row_count == 5
    assert result.rows[0] == ("Midnight Drive",)
    assert not result.truncated


def test_same_query_gives_equal_results(music_db):
    executor = SqliteExecutor(music_db)
    sql = "SELECT name, unit_price FROM chinook_track ORDER BY track_id"
    assert executor.execute(sql) == executor.execute(sql)


def test_with_clause_allowed(music_db):
    result = SqliteExecutor(music_db).execute(
        "WITH t AS (SELECT unit_price FROM chinook_track) "
        "SELECT COUNT(*) FROM t")
    assert result.rows == ((5,),)
    assert SqliteExecutor(music_db).execute("VALUES (1)").rows == ((1,),)


def test_writes_rejected_by_gate(music_db):
    ex = SqliteExecutor(music_db)
    for sql in ("INSERT INTO chinook_track VALUES (9, 'x', 'y', 1.0)",
                "UPDATE chinook_track SET unit_price = 0",
                "DELETE FROM chinook_track",
                "DROP TABLE chinook_track",
                "PRAGMA user_version = 7",
                "ATTACH ':memory:' AS z",
                "BEGIN",
                "SELECT * FROM pragma_table_info('chinook_track')"):
        with pytest.raises(NonSelectRejected):
            ex.execute(sql)


def test_statement_stacking_rejected(music_db):
    with pytest.raises(NonSelectRejected):
        SqliteExecutor(music_db).execute(
            "SELECT 1; DELETE FROM chinook_track")


def test_semicolon_inside_a_read_is_allowed(music_db):
    ex = SqliteExecutor(music_db)
    assert ex.execute("SELECT ';'").rows == ((";",),)
    rows = ex.execute("SELECT group_concat(name, '; ') FROM chinook_track").rows
    assert len(rows) == 1 and rows[0][0].count("; ") == 4
    # comment markers inside a literal are data, not comments
    assert ex.execute("SELECT '/* x */'").rows == (("/* x */",),)
    assert ex.execute("SELECT 'a--b'").rows == (("a--b",),)


def test_comments_stripped_before_gate(music_db):
    result = SqliteExecutor(music_db).execute(
        "/* lead */ SELECT 1 -- trailing\n")
    assert result.rows == ((1,),)
    with pytest.raises(NonSelectRejected):
        SqliteExecutor(music_db).execute("/* x */ DELETE FROM chinook_track")


def test_trailing_semicolon_tolerated(music_db):
    assert SqliteExecutor(music_db).execute("SELECT 1;").rows == ((1,),)
    assert SqliteExecutor(music_db).execute("SELECT 1;;").rows == ((1,),)


def test_empty_sql_is_syntax_error(music_db):
    for sql in ("   -- nothing here\n", "", " ;; ", "/* nothing */;"):
        with pytest.raises(SqlSyntaxError):
            SqliteExecutor(music_db).execute(sql)


def test_maintenance_statements_rejected(music_db):
    # REINDEX compiles on a fresh connection without drawing an authorizer
    # action and returns no columns; it is refused all the same
    ex = SqliteExecutor(music_db)
    for sql in ("REINDEX", "REINDEX;", "/* tidy up */ REINDEX", "ANALYZE"):
        with pytest.raises(NonSelectRejected):
            ex.execute(sql)


def test_syntax_error_classified(music_db):
    with pytest.raises(SqlSyntaxError):
        SqliteExecutor(music_db).execute("SELECT FROM WHERE")


def test_runtime_error_classified(music_db):
    with pytest.raises(SqlRuntimeError):
        SqliteExecutor(music_db).execute("SELECT * FROM missing_table")


def test_a_database_sqlite_cannot_open_is_runtime_error(tmp_path):
    with pytest.raises(SqlRuntimeError, match="cannot open database"):
        SqliteExecutor(str(tmp_path / "absent.db")).execute("SELECT 1")
    assert not (tmp_path / "absent.db").exists()


def test_row_budget_truncates(music_db):
    ex = SqliteExecutor(music_db, max_rows=2)
    result = ex.execute("SELECT track_id FROM chinook_track ORDER BY track_id")
    assert result.row_count == 2
    assert result.truncated


def test_timeout_interrupts(music_db):
    ex = SqliteExecutor(music_db, timeout_s=0.05)
    # cartesian blowup: forces enough VM steps to hit the progress handler
    with pytest.raises(SqlTimeout):
        ex.execute(
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM n) "
            "SELECT COUNT(*) FROM n")


def test_database_write_protected(music_db, tmp_path):
    import hashlib
    import sqlite3
    before = hashlib.sha256(Path(music_db).read_bytes()).hexdigest()
    # even bypassing the gate, the read-only connection must refuse writes
    conn = sqlite3.connect(f"file:{music_db}?mode=ro", uri=True)
    with pytest.raises(sqlite3.OperationalError):
        conn.execute("DELETE FROM chinook_track")
    conn.close()
    assert hashlib.sha256(Path(music_db).read_bytes()).hexdigest() == before


# ---------------------------------------------------------------------------
# schema introspection
# ---------------------------------------------------------------------------

def test_introspect_and_serialize(music_db):
    tables = introspect_schema(music_db)
    names = [t.name for t in tables]
    assert names == sorted(names)
    assert "chinook_track" in names
    track = next(t for t in tables if t.name == "chinook_track")
    assert [c.name for c in track.columns] == \
        ["track_id", "name", "genre", "unit_price"]
    text = serialize_schema(tables)
    assert "chinook_track(track_id:INTEGER, name:TEXT, genre:TEXT, " \
           "unit_price:REAL)" in text
    assert "chinook_invoice.customer_id -> chinook_customer.customer_id" in text
    assert "chinook_invoice_line.track_id -> chinook_track.track_id" in text
