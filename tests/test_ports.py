from __future__ import annotations

import json
import random
import re
import string
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from esap.corpus import Document, chunk_document
from esap.dense import _BLOCK_ROWS, _unit_columns, embed_query
from esap.derek import CoStarPrompt, DerekPipeline, PersonaConfig
from esap.errors import (
    ModelRefusal,
    NonSelectRejected,
    ScriptExhausted,
    SqlRuntimeError,
    SqlSyntaxError,
    SqlTimeout,
    ThorFailed,
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
from esap.hybrid import HybridParams, build_hybrid
from esap.synthetic import make_clustered_texts
from esap.thor import ThorPipeline
from esap.tokenizer import term_ids, token_texts


# ---------------------------------------------------------------------------
# chat request/response
# ---------------------------------------------------------------------------

def test_chat_request_shape():
    req = chat_request("question here")
    assert req.messages == (("user", "question here"),)
    assert req.last_user == "question here"


def test_chat_request_requires_messages():
    with pytest.raises(ValueError):
        ChatRequest(messages=())


def test_last_user_falls_back_to_tail():
    req = ChatRequest(messages=(("system", "rules"),))
    assert req.last_user == "rules"


def test_a_complete_response_without_text_is_refused():
    with pytest.raises(ValueError, match="complete responses must carry text"):
        ChatResponse(text=None)
    assert ChatResponse(text=None, finish_reason="length").text is None


class Answering:
    """A chat port that answers every prompt with the same response."""

    def __init__(self, response: ChatResponse):
        self.response = response

    def chat(self, request: ChatRequest) -> ChatResponse:
        return self.response


def test_a_reply_without_text_reads_as_an_empty_reply(toy_index, embedder, tmp_path):
    seed_music_db(tmp_path / "music.db")
    answering = [Answering(ChatResponse(text="")),
              Answering(ChatResponse(text=None, finish_reason="length"))]
    answers = [DerekPipeline(toy_index, embedder, port).answer(
        "Where does the red apple sit?").to_json() for port in answering]
    assert answers[0] == answers[1]
    # the rewrite falls back, and no draft cites a snippet
    assert answers[1]["trace"][0] == {"stage": "refine", "fallback": True}
    assert (answers[1]["verdict"], answers[1]["reason"]) == ("insufficient", "no-citation")
    assert answers[1]["regeneration_count"] == 2
    assert answers[1]["trace"][-1]["event"] == "web-search-stub"
    logs = []
    for port in answering:
        with pytest.raises(ThorFailed) as failed:
            ThorPipeline(SqliteExecutor(str(tmp_path / "music.db")), port).run(
                "How many tracks are there?")
        logs.append(failed.value.log.to_json())
    assert logs[0] == logs[1]
    # the route falls back to keywords; every attempt gets no SQL
    assert logs[1]["task_type"] == "structured"
    assert [a["error"] for a in logs[1]["attempts"]] == \
        ["model refusal: model returned no SQL"] * 4


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


def test_scripted_refuses_a_non_string_entry():
    with pytest.raises(ValueError, match="script entry 1 is tuple"):
        ScriptedModel(["ok", (lambda request: True, "text")])


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


def test_stub_classifies_prompts_by_their_start_not_snippet_text():
    stub = ExtractiveStub()
    draft = ("# CONTEXT\n"
             "[1] Rewrite the user question before filing.\n"
             "[2] Reply sufficient or insufficient.\n"
             "[3] The red apple sits in the basket.\n"
             "# RESPONSE\ncite\n"
             "QUESTION: where does the red apple sit")
    assert stub.chat(chat_request(draft)).text == "The red apple sits in the basket. [3]"
    critique = ("Review the draft answer against the context snippets.\n"
                "[1] Rewrite the user question before filing.\n"
                "DRAFT: x\nReply with exactly one word: sufficient or insufficient.")
    assert stub.chat(chat_request(critique)).text == "sufficient"
    assert stub.chat(chat_request("note: Rewrite the user question")).text \
        == "Acknowledged."


def _oracle_extract(prompt: str) -> str:
    """The stub's draft rule as one loop over every sentence, unbounded."""
    question = prompt.rsplit("QUESTION:", 1)[-1].strip()
    q_tokens = set(token_texts(question))
    best_sentence, best_no, best_overlap = "", 1, -1
    for number, text in re.findall(r"^\[(\d+)\] (.+)$", prompt, flags=re.MULTILINE):
        for sentence in re.split(r"(?<=[.!?])\s+", text):
            sentence = sentence.strip()
            if not sentence:
                continue
            overlap = len(q_tokens & set(token_texts(sentence)))
            if overlap > best_overlap:
                best_overlap, best_sentence, best_no = overlap, sentence, int(number)
    if not best_sentence:
        return "No supporting context was retrieved."
    return f"{best_sentence} [{best_no}]"


class _OracleStub(ExtractiveStub):
    def _extract(self, prompt: str) -> str:
        return _oracle_extract(prompt)


# basketball and basketbell share their length and their first eight bytes
_STUB_WORDS = ("apple", "Apple", "pear", "red", "basket", "İstanbul", "straße",
               "STRASSE", "ß", "x1", "zeta", "basketball", "basketbell", "strawberry",
               "2024")
_STUB_SPACES = (" ", "  ", "\t", "\x0b", "\u2003", "\u2028", "\xa0")


def _random_sentence(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(("?!", "...", "-", "."))       # no token at all
    words = " ".join(rng.choice(_STUB_WORDS) for _ in range(rng.randint(1, 5)))
    return words + rng.choice((".", "!", "?", "", "..."))


def _random_draft_prompt(rng: random.Random) -> str:
    snippets = []
    for _ in range(rng.choice((0, 1, 2, 3, 5, 8))):
        sentences = [_random_sentence(rng) for _ in range(rng.randint(1, 4))]
        snippets.append("".join(s + rng.choice(_STUB_SPACES) for s in sentences[:-1])
                        + sentences[-1])
    question = " ".join(rng.choice(_STUB_WORDS + ("plum", "fig"))
                        for _ in range(rng.choice((0, 1, 2, 3, 6))))
    return CoStarPrompt(snippets=tuple(snippets), persona=PersonaConfig(),
                        question=question).render()


@pytest.mark.parametrize("prompt,expected", [
    # ties within a snippet and across snippets keep the first sentence
    ("# CONTEXT\n[1] red pear. red fig.\n[2] red plum.\nQUESTION: red",
     "red pear. [1]"),
    # a later snippet whose bound equals the best so far cannot win
    ("# CONTEXT\n[1] zeta. apple red.\n[2] red apple basket zeta.\nQUESTION: apple red",
     "apple red. [1]"),
    # a later snippet with a higher bound but no better sentence
    ("# CONTEXT\n[1] apple.\n[2] red. basket.\nQUESTION: apple red basket",
     "apple. [1]"),
    # the later snippet has the higher bound and is split first; its best
    # sentence ties with an earlier one, which wins
    ("# CONTEXT\n[1] fig. apple red.\n[2] apple. red basket.\nQUESTION: apple red basket",
     "apple red. [1]"),
    # equal bounds and tied best sentences: the earlier snippet wins
    ("# CONTEXT\n[1] fig. red apple.\n[2] apple red.\nQUESTION: apple red",
     "red apple. [1]"),
    # the marker is the snippet's number as an int
    ("# CONTEXT\n[01] pear.\n[02] red apple.\nQUESTION: apple", "red apple. [2]"),
    # a tokenless first sentence wins when nothing overlaps
    ("# CONTEXT\n[1] ?! pear.\n[2] fig.\nQUESTION: apple", "?! [1]"),
    ("# CONTEXT\n[1] ?! apple.\nQUESTION: apple", "apple. [1]"),
    # empty question: the first non-empty sentence
    ("# CONTEXT\n[1]  \n[2] pear. apple.\nQUESTION: ", "pear. [2]"),
    # repeated question tokens count once
    ("# CONTEXT\n[1] apple apple apple.\n[2] apple red.\nQUESTION: apple apple red",
     "apple red. [2]"),
    ("# CONTEXT\n[1] der straße.\n[2] İstanbul straße.\nQUESTION: İSTANBUL straße",
     "İstanbul straße. [2]"),
    ("# CONTEXT\n\n# RESPONSE\ncite\nQUESTION: apple",
     "No supporting context was retrieved."),
    # a non-ASCII snippet before the winning ASCII one moves none of its
    # tokens: were apple and 2024 counted in [3], it would be split first
    # and [2] never
    ("# CONTEXT\n[1] İİİİ ßßßß straße İstanbul ßß café.\n[2] pear. basketball red apple 2024."
     "\n[3] red apple basketball.\nQUESTION: red apple basketball 2024",
     "basketball red apple 2024. [2]"),
])
def test_bounded_extract_on_chosen_prompts(prompt, expected):
    assert _oracle_extract(prompt) == expected
    assert ExtractiveStub()._extract(prompt) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_extract_equals_per_sentence_loop(seed):
    rng = random.Random(seed)
    stub = ExtractiveStub()
    for _ in range(700):
        prompt = _random_draft_prompt(rng)
        assert stub._extract(prompt) == _oracle_extract(prompt), prompt


def test_pipeline_answers_equal_with_the_oracle_stub(embedder):
    texts = make_clustered_texts(120, seed=5, tokens_per_text=60)
    rng = random.Random(5)
    documents = []
    for i, text in enumerate(texts):
        words = text.split()
        cuts = sorted(rng.sample(range(1, len(words)), 6))
        sentences = [" ".join(words[a:b]) for a, b in zip([0] + cuts, cuts + [len(words)])]
        documents.append(Document(f"d{i:03d}", 1, ". ".join(sentences) + "."))
    chunks = [c for doc in documents for c in chunk_document(doc, size=40, overlap=8)]
    index = build_hybrid(chunks, embedder, {doc.doc_id: ["*"] for doc in documents},
                         HybridParams(chunk_size=40, chunk_overlap=8))
    bounded = DerekPipeline(index, embedder, ExtractiveStub(), k=50)
    oracle = DerekPipeline(index, embedder, _OracleStub(), k=50)
    for _ in range(200):
        words = rng.choice(texts).split()
        start = rng.randrange(len(words) - 6)
        question = f"What does the record say about {' '.join(words[start:start + 6])}?"
        assert bounded.answer(question).to_json() == oracle.answer(question).to_json()


# ---------------------------------------------------------------------------
# hashing embedder
# ---------------------------------------------------------------------------

def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a64(b"foobar") == 0x85944171F73967E8


def test_embedder_deterministic_signed_counts():
    # five tokens in five slots: a +/-1 count each, not scaled to unit length
    embed = HashingEmbedder()
    a = embed(["red apple in a basket"])
    b = HashingEmbedder()(["red apple in a basket"])
    assert np.array_equal(a, b)
    assert a.shape == (1, 256) and a.dtype == np.float32
    assert sorted(np.abs(a[0][a[0] != 0]).tolist()) == [1.0] * 5


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
            pieces = [t.encode("utf-8") for t in terms]
            buffer = b"".join(pieces)
            lengths = np.array([len(p) for p in pieces], dtype=np.intp)
            hashes = _fnv1a64_array(buffer, lengths)
            assert hashes.dtype == np.uint64 and hashes.shape == (len(terms),)
            assert hashes.tolist() == [_fnv1a64(p) for p in pieces]
            slots, signs = _term_slots(buffer, lengths, dim)
            assert list(zip(slots.tolist(), signs.tolist())) == \
                   [_token_slot(t, dim) for t in terms]


def reference_embed(texts: list[str], dim: int) -> np.ndarray:
    """The per-token loop the bincount rows replaced, transcribed: +/-1
    added into a float32 row token by token."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    for row, text in enumerate(texts):
        vec = out[row]
        for token in token_texts(text):
            slot, sign = _token_slot(token, dim)
            vec[slot] += sign
    return out


# more than 4,096 tokens, so sums of squared counts pass 2**24, where
# float32 partial sums may round: at dim 7 (first text) and dim 256
# (second) a float32 sum of the squares is not the exact one
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


def rule_cases(n: int) -> list[np.ndarray]:
    """float32 (n, d) matrices: Gaussian rows, the same scaled to tiny
    (subnormal) and huge values, rows mixing magnitudes from 1e-20 to 1e20,
    rows whose length the summation order decides, zero rows among
    Gaussian ones, an all-zero matrix, and the embedder's counts of
    ``LONG_TEXTS`` and short texts at dims 7 and 256."""
    rng = np.random.default_rng(n)
    gaussian = rng.standard_normal((n, 256))
    some_zero = gaussian.copy()
    some_zero[::3] = 0.0
    mixed = gaussian * 10.0 ** rng.integers(-20, 21, size=gaussian.shape)
    # 10066335**2 + 13421780**2 == 16777225**2, halfway between two float32
    # values; added in ascending order, each (1/16)**2 is then lost, and the
    # length is the even neighbour 16777224. Summed exactly, or pairwise,
    # the squares pass the midpoint and the length is 16777226
    midpoint = np.full((n, 256), 1 / 16, dtype=np.float32)
    midpoint[:, :2] = [10066335.0, 13421780.0]
    texts = (LONG_TEXTS + embedder_cases()[0] * 2)[:n]
    return [gaussian.astype(np.float32), (gaussian * 1e-40).astype(np.float32),
            (gaussian * 1e35).astype(np.float32), mixed.astype(np.float32), midpoint,
            some_zero.astype(np.float32), np.zeros((n, 256), dtype=np.float32),
            HashingEmbedder(7)(texts), HashingEmbedder(256)(texts)]


@pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_unit_columns_follow_the_rule_bit_for_bit(n, unit_rule):
    cases = rule_cases(n)
    for matrix in cases:
        want = np.stack([unit_rule(row) for row in matrix], axis=1)
        got = _unit_columns(matrix)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    # the premise: a float32 sum of squares is not the exact one for some
    # Gaussian or counts row (the scaled rows would overflow float32 squares)
    rows = [row for matrix in (cases[0], *cases[-2:]) for row in matrix]
    assert any(float(row @ row) != sum(x * x for x in row.tolist()) for row in rows)
    # a query is scaled as a chunk is
    for dim in (7, 256):
        embed = HashingEmbedder(dim)
        for text in (LONG_TEXTS + embedder_cases()[0])[:n]:
            got = embed_query(embed, text)
            assert np.array_equal(got.view(np.uint32),
                                  unit_rule(embed([text])[0]).view(np.uint32))


def test_a_query_row_follows_the_rule_bit_for_bit(unit_rule):
    # embed_query scales its one row without _unit_columns' block loop:
    # tiny, huge, mixed, midpoint and zero rows keep the rule's bits, and
    # the embedder's own array is left as it was
    for matrix in rule_cases(3):
        for row in matrix:
            given = row.copy()
            got = embed_query(lambda texts: given[None, :], "a query")
            assert got.dtype == np.float32 and got.shape == row.shape
            assert np.array_equal(got.view(np.uint32), unit_rule(row).view(np.uint32))
            assert np.array_equal(given.view(np.uint32), row.view(np.uint32))


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
    reply = make_model(session).chat(chat_request("q"))
    assert reply.text == "answer"
    assert reply.prompt_tokens == 3 and reply.completion_tokens == 5
    session = FakeSession([FakeResponse(200, ok_body("answer"))])
    assert ports.reply(make_model(session), "q") == "answer"
    # the exact body, keys in this order
    assert json.dumps(session.posts[0]["json"]) == json.dumps(
        {"model": "m", "messages": [{"role": "user", "content": "q"}],
         "temperature": 0.0, "max_tokens": 1024})
    assert session.posts[0]["url"] == "http://unit.test/v1/chat/completions"
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


def test_http_needs_base_url():
    for base_url in ("", "/"):
        with pytest.raises(TransportError, match="base URL is empty"):
            HttpChatModel(base_url, session=FakeSession([]))


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


_TRACKS = "SELECT name FROM chinook_track ORDER BY track_id"


def _names(directory: Path) -> list[str]:
    return sorted(entry.name for entry in directory.iterdir())


@pytest.mark.parametrize("where", ["a#b", "p?q", "r%41", "s p", "ü", "//"])
def test_any_file_path_opens_read_only(music_db, tmp_path, where):
    # a URI would read "#" as a fragment, "?" as a query, "%41" as "A" and
    # "//x" as host x; each path must open the named file and only that
    directory = tmp_path / ("slashes" if where == "//" else where)
    directory.mkdir()
    copy = directory / "music.db"
    copy.write_bytes(Path(music_db).read_bytes())
    path = "//" + str(copy).lstrip("/") if where == "//" else str(copy)
    before = (_names(tmp_path), _names(directory))
    executor = SqliteExecutor(path)
    assert executor.execute(_TRACKS) == SqliteExecutor(music_db).execute(_TRACKS)
    with pytest.raises(NonSelectRejected):
        executor.execute("DELETE FROM chinook_track")
    assert introspect_schema(path) == introspect_schema(music_db)
    assert (_names(tmp_path), _names(directory)) == before


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


def test_table_names_are_quoted_by_sql_rules(tmp_path):
    import sqlite3
    path = tmp_path / "names.db"
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute('CREATE TABLE "we""ird" (a INTEGER PRIMARY KEY)')
        conn.execute('CREATE TABLE "two words" (b TEXT, a INTEGER REFERENCES "we""ird"(a))')
        conn.execute('INSERT INTO "we""ird" VALUES (7)')
    assert serialize_schema(introspect_schema(str(path))).splitlines() == [
        "two words(b:TEXT, a:INTEGER)",
        'we"ird(a:INTEGER)',
        'two words.a -> we"ird.a',
    ]
    assert SqliteExecutor(str(path)).execute('SELECT a FROM "we""ird"').rows == ((7,),)
