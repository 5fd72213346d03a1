from __future__ import annotations

import pytest

from esap.errors import ModelRefusal, ThorFailed
from esap.fixtures import seed_music_db
from esap.ports import ScriptedModel, SqliteExecutor, SqlResult, chat_request
from esap.thor import (
    ThorPipeline,
    interpret,
    route,
    strip_code_fences,
)


@pytest.fixture()
def executor(tmp_path):
    path = tmp_path / "music.db"
    seed_music_db(path)
    return SqliteExecutor(str(path))


GOOD_SQL = ("SELECT name, unit_price FROM chinook_track "
            "ORDER BY unit_price DESC LIMIT 1")
BAD_SQL = "SELECT FROM nothing WHERE"
MISSING_TABLE_SQL = "SELECT * FROM ghosts"


def table(columns, rows) -> SqlResult:
    return SqlResult(columns=tuple(columns),
                     rows=tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def test_route_keyword_fallback_without_chat():
    assert route("what is the average order value by month?") == "structured"
    assert route("describe the refund policy wording") == "document"


def test_route_chat_decision_wins():
    chat = ScriptedModel(["structured"])
    assert route("tell me about the harbor", chat) == "structured"


def test_route_unparseable_reply_falls_back_to_keywords():
    chat = ScriptedModel(["beep boop"])
    assert route("total revenue please", chat) == "structured"


def test_route_port_failure_falls_back():
    class Refuser:
        def chat(self, request):
            raise ModelRefusal("no")
    assert route("how many orders came in?", Refuser()) == "structured"
    assert route("explain the shipping policy", Refuser()) == "document"


def test_route_rejects_blank():
    with pytest.raises(ValueError):
        route("   ")


# ---------------------------------------------------------------------------
# fence stripping
# ---------------------------------------------------------------------------

def test_strip_code_fences_variants():
    assert strip_code_fences("```sql\nSELECT 1\n```") == "SELECT 1"
    assert strip_code_fences("```\nSELECT 1\n```") == "SELECT 1"
    assert strip_code_fences("  SELECT 1  ") == "SELECT 1"
    assert strip_code_fences("sql\nSELECT 1") == "SELECT 1"
    assert strip_code_fences("```sql\nSELECT 1;\n-- note\n```") == \
        "SELECT 1;\n-- note"


# ---------------------------------------------------------------------------
# rating
# ---------------------------------------------------------------------------

def test_rate_execution_error_is_zero(executor):
    pipe = ThorPipeline(executor, chat=ScriptedModel([]))
    rating, reasons = pipe.rate("q", "bad sql", None, "SqlSyntaxError: x")
    assert (rating, reasons) == (0.0, ["execution-error"])


def test_rate_empty_table_is_zero_by_default(executor):
    pipe = ThorPipeline(executor, chat=ScriptedModel([]))
    rating, reasons = pipe.rate("q", "sql", table(["a"], []), None)
    assert (rating, reasons) == (0.0, ["empty-result"])


def test_rate_empty_table_allowed_when_opted_in(executor):
    pipe = ThorPipeline(executor, chat=None, allow_empty=True)
    rating, reasons = pipe.rate("q", "sql", table(["a"], []), None)
    assert (rating, reasons) == (1.0, ["heuristic-empty"])


def test_rate_model_rubric_parsed_and_clamped(executor):
    rows = table(["a"], [(1,)])
    for reply, expected in (("0.85", 0.85), ("score: 1.7", 1.0), ("0", 0.0)):
        pipe = ThorPipeline(executor, chat=ScriptedModel([reply]))
        rating, reasons = pipe.rate("q", "sql", rows, None)
        assert rating == pytest.approx(expected)
        assert reasons == ["model-rubric"]


def test_rate_unscoreable_reply_uses_nonempty_heuristic(executor):
    pipe = ThorPipeline(executor, chat=ScriptedModel(["no idea, sorry"]))
    rating, reasons = pipe.rate("q", "sql", table(["a"], [(1,)]), None)
    assert (rating, reasons) == (1.0, ["heuristic-nonempty"])


def test_rate_without_chat_uses_nonempty_heuristic(executor):
    pipe = ThorPipeline(executor, chat=None)
    rating, reasons = pipe.rate("q", "sql", table(["a"], [(1,)]), None)
    assert (rating, reasons) == (1.0, ["heuristic-nonempty"])


# ---------------------------------------------------------------------------
# sql generation
# ---------------------------------------------------------------------------

def test_generate_sql_requires_chat(executor):
    with pytest.raises(ModelRefusal):
        ThorPipeline(executor, chat=None).generate_sql("q")


def test_generate_sql_prompt_carries_schema(executor):
    chat = ScriptedModel(["SELECT 1"])
    ThorPipeline(executor, chat=chat).generate_sql("how many tracks?")
    prompt = chat.requests[0].last_user
    assert "chinook_track(track_id:INTEGER" in prompt
    assert "QUESTION: how many tracks?" in prompt


def test_generate_sql_feedback_includes_prior_attempts(executor):
    chat = ScriptedModel([
        (lambda req: "PRIOR ATTEMPTS" in req.last_user
         and "SQL: SELECT broken" in req.last_user
         and "ERROR: SqlSyntaxError" in req.last_user
         and "RATING: 0.20 (model-rubric)" in req.last_user,
         "SELECT 2"),
    ])
    pipe = ThorPipeline(executor, chat=chat)
    from esap.thor import SqlAttempt
    prior = [
        SqlAttempt(number=1, sql="SELECT broken", outcome="error",
                   error="SqlSyntaxError: near FROM"),
        SqlAttempt(number=2, sql="SELECT 1", outcome="table", rating=0.2,
                   reasons=["model-rubric"]),
    ]
    assert pipe.generate_sql("q", prior=prior) == "SELECT 2"


def test_generate_sql_strips_fences_and_rejects_empty(executor):
    pipe = ThorPipeline(executor, chat=ScriptedModel(["```sql\nSELECT 5\n```"]))
    assert pipe.generate_sql("q") == "SELECT 5"
    pipe = ThorPipeline(executor, chat=ScriptedModel(["``` ```"]))
    with pytest.raises(ModelRefusal):
        pipe.generate_sql("q")


# ---------------------------------------------------------------------------
# self-correcting loop
# ---------------------------------------------------------------------------

def test_loop_recovers_after_two_failures(executor):
    chat = ScriptedModel([BAD_SQL, MISSING_TABLE_SQL, GOOD_SQL, "0.9"])
    pipe = ThorPipeline(executor, chat=chat, max_retries=3)
    log, result = pipe.self_correct_loop("most expensive track?")
    assert log.status == "answered"
    assert [a.number for a in log.attempts] == [1, 2, 3]
    assert [a.outcome for a in log.attempts] == ["error", "error", "table"]
    assert log.attempts[0].error.startswith("SqlSyntaxError")
    assert log.attempts[1].error.startswith("SqlRuntimeError")
    assert log.attempts[2].rating == 0.9
    assert result.rows == (("Quiet Harbor", 1.99),)


def test_loop_low_rating_retries_with_feedback(executor):
    chat = ScriptedModel([
        "SELECT genre FROM chinook_track",
        "0.2",
        (lambda req: "RATING: 0.20" in req.last_user, GOOD_SQL),
        "0.95",
    ])
    pipe = ThorPipeline(executor, chat=chat, max_retries=2)
    log, result = pipe.self_correct_loop("most expensive track?")
    assert log.status == "answered"
    assert len(log.attempts) == 2
    assert log.attempts[0].rating == 0.2
    assert result.row_count == 1


def test_loop_exhausts_after_one_plus_max_retries(executor):
    chat = ScriptedModel([BAD_SQL] * 4)
    pipe = ThorPipeline(executor, chat=chat, max_retries=3)
    log, result = pipe.self_correct_loop("most expensive track?")
    assert log.status == "failed"
    assert result is None
    assert len(log.attempts) == 4
    assert all(a.rating == 0.0 for a in log.attempts)


def test_loop_logs_generation_refusals_as_attempts(executor):
    pipe = ThorPipeline(executor, chat=None, max_retries=1)
    log, result = pipe.self_correct_loop("q")
    assert log.status == "failed"
    assert result is None
    assert [a.sql for a in log.attempts] == ["", ""]
    assert all(a.error.startswith("model refusal") for a in log.attempts)


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------

def test_interpret_describes_an_empty_table():
    insight = interpret("q", table(["a"], []))
    assert insight.narrative == "The query returned 0 rows."
    assert (insight.key_values, insight.key_labels, insight.trends) == ({}, {}, [])


def test_interpret_single_row_narrative():
    insight = interpret("q", table(["name", "unit_price"],
                                   [("Quiet Harbor", 1.99)]))
    assert insight.narrative == \
        "The query returned one row: name=Quiet Harbor, unit_price=1.99."
    assert insight.key_values == {"unit_price.max": 1.99,
                                  "unit_price.min": 1.99,
                                  "unit_price.total": 1.99}
    assert insight.key_labels == {"unit_price.max": "Quiet Harbor"}


def test_interpret_key_values_and_labels():
    rows = [("alpha", 10), ("bravo", 30), ("charlie", 20)]
    insight = interpret("q", table(["city", "orders"], rows))
    assert insight.key_values == {"orders.max": 30, "orders.min": 10,
                                  "orders.total": 60}
    assert insight.key_labels == {"orders.max": "bravo"}
    assert "orders ranges from 10 to 30 (top: bravo) and totals 60" \
        in insight.narrative


def test_interpret_flags_strictly_monotone_trends():
    rows = [("2024-01", 5, 9), ("2024-02", 7, 9), ("2024-03", 11, 2)]
    insight = interpret("q", table(["month", "revenue", "returns"], rows))
    assert insight.trends == ["revenue increasing"]


def test_interpret_trend_needs_three_rows():
    rows = [("2024-01", 5), ("2024-02", 7)]
    insight = interpret("q", table(["month", "revenue"], rows))
    assert insight.trends == []


def test_interpret_trend_orders_by_date_not_input():
    rows = [("2024-03", 11), ("2024-01", 5), ("2024-02", 7)]
    insight = interpret("q", table(["month", "revenue"], rows))
    assert insight.trends == ["revenue increasing"]


def test_interpret_first_date_column_orders_later_ones_label():
    # ordered by "shipped" instead, revenue would be decreasing
    rows = [("2024-01", "2024-09-30", 5), ("2024-02", "2024-08-31", 7),
            ("2024-03", "2024-07-31", 11)]
    insight = interpret("q", table(["month", "shipped", "revenue"], rows))
    assert insight.trends == ["revenue increasing"]
    assert insight.key_labels == {"revenue.max": "2024-07-31"}


def test_interpret_chat_prompt_echoes_null_cells():
    chat = ScriptedModel(["Two rows."])
    insight = interpret("q", table(["name", "p"], [("a", None), (None, 2.5)]),
                        chat=chat)
    assert insight.narrative == "Two rows."
    assert "ROWS: name=a, p=None; name=None, p=2.5\n" in chat.requests[0].last_user


def test_interpret_chat_overrides_template():
    chat = ScriptedModel(["Harbor tops the chart."])
    insight = interpret("q", table(["name", "p"], [("Quiet Harbor", 1.99)]),
                        chat=chat)
    assert insight.narrative == "Harbor tops the chart."


def test_interpret_falls_back_when_narrative_chat_fails():
    class Refuser:
        def chat(self, request):
            raise ModelRefusal("no")
    insight = interpret("q", table(["name", "p"], [("Quiet Harbor", 1.99)]),
                        chat=Refuser())
    assert insight.narrative.startswith("The query returned one row")


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def test_run_answers_structured_question(executor):
    chat = ScriptedModel(["structured", GOOD_SQL, "0.9"])
    pipe = ThorPipeline(executor, chat=chat)
    result = pipe.run("which track has the highest price?")
    assert result.log.status == "answered"
    assert result.insight.key_labels["unit_price.max"] == "Quiet Harbor"
    assert result.table.rows == (("Quiet Harbor", 1.99),)
    payload = result.to_json(verbose=True)
    assert payload["table"]["rows"] == [["Quiet Harbor", 1.99]]
    assert payload["log"]["attempts"][0]["rating"] == 0.9
    assert result.log.narrative == result.insight.narrative


def test_run_rejects_non_structured_questions(executor):
    chat = ScriptedModel(["document"])
    with pytest.raises(ThorFailed) as exc_info:
        ThorPipeline(executor, chat=chat).run("what does the policy say?")
    assert exc_info.value.log.task_type == "document"
    assert exc_info.value.log.attempts == []


def test_run_raises_with_full_log_on_exhaustion(executor):
    chat = ScriptedModel(["structured"] + [BAD_SQL] * 3)
    pipe = ThorPipeline(executor, chat=chat, max_retries=2)
    with pytest.raises(ThorFailed) as exc_info:
        pipe.run("count the tracks")
    assert len(exc_info.value.log.attempts) == 3


@pytest.mark.parametrize("first", ["SELECT broken FROM",
                                   "SELECT name FROM chinook_track WHERE 0"],
                         ids=["failed", "empty"])
def test_zero_threshold_never_accepts_a_failed_or_empty_attempt(executor, first):
    chat = ScriptedModel(["structured", first, "SELECT count(*) FROM chinook_track", "0.9"])
    result = ThorPipeline(executor, chat=chat, threshold=0.0).run("count the tracks")
    assert result.log.status == "answered"
    assert [a.rating for a in result.log.attempts] == [0.0, 0.9]
    assert result.table.row_count == 1


def test_run_narrative_chat_is_separate_port(executor):
    chat = ScriptedModel(["structured", GOOD_SQL, "0.9"])
    narrative = ScriptedModel(["One standout: Quiet Harbor at 1.99."])
    pipe = ThorPipeline(executor, chat=chat, narrative_chat=narrative)
    result = pipe.run("which track has the highest price?")
    assert result.insight.narrative == "One standout: Quiet Harbor at 1.99."
    assert narrative.calls == 1
