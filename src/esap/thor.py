"""Structured-data agent: route, generate SQL, execute, rate, retry, explain.

The loop is bounded: one initial attempt plus max_retries corrections.
Every attempt is logged with its SQL, outcome, and rating; an attempt is
accepted once it returned a table (non-empty unless empty results are
allowed) and its rating clears the threshold. Result interpretation
(key values, trends, narrative) is deterministic unless a chat port is
supplied for the narrative sentence.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import (
    ModelRefusal,
    NonSelectRejected,
    ScriptExhausted,
    SqlRuntimeError,
    SqlSyntaxError,
    SqlTimeout,
    ThorFailed,
    TransportError,
)
from .ports import (
    ChatPort,
    SqliteExecutor,
    SqlResult,
    chat_request,
    introspect_schema,
    serialize_schema,
)

DEFAULT_MAX_RETRIES = 3
DEFAULT_THRESHOLD = 0.6

ROUTE_INSTRUCTION = (
    "Classify the user question into exactly one category.\n"
    "structured: needs database tables, metrics, aggregation, or time windows.\n"
    "document: answered from document or policy text.\n"
    "other: anything else.\n"
    "Reply with one word: structured, document, or other."
)

# signals that a question is about metrics, tables, or time windows
_STRUCTURED_KEYWORDS = (
    "average", "avg", "sum", "count", "total", "rate", "ratio", "percent",
    "revenue", "sales", "price", "units", "orders", "deliveries", "invoice",
    "highest", "lowest", "top ", "most", "least", "how many", "how much",
    "per ", " by ", "monthly", "month", "quarter", "weekly", "week", "year",
    "trend", "metric", "table", "group",
)

_ROUTE_RE = re.compile(r"\b(structured|document|other)\b")
_FENCE_RE = re.compile(r"^```[A-Za-z0-9]*\s*\n?(.*?)\n?```\s*$", re.DOTALL)
_NUMBER_RE = re.compile(r"-?\d*\.?\d+")
_DATE_RE = re.compile(r"^\d{4}-\d{2}(-\d{2})?([ T].*)?$")


def route(question: str, chat: ChatPort | None = None) -> str:
    """Classify a question as structured / document / other.

    The chat port decides when available; otherwise (or on port failure
    or an unparseable reply) a keyword scan for metric/table/time-window
    language routes to structured, defaulting to document.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    if chat is not None:
        prompt = f"{ROUTE_INSTRUCTION}\nQUESTION: {question}"
        try:
            response = chat.chat(chat_request(prompt))
        except (ModelRefusal, TransportError):
            response = None
        if response is not None:
            match = _ROUTE_RE.search(response.text.strip().lower())
            if match:
                return match.group(1)
    lowered = f" {question.lower()} "
    if any(keyword in lowered for keyword in _STRUCTURED_KEYWORDS):
        return "structured"
    return "document"


def strip_code_fences(text: str) -> str:
    text = text.strip()
    match = _FENCE_RE.match(text)
    if match:
        text = match.group(1).strip()
    if text.lower().startswith("sql\n"):
        text = text[4:]
    return text.strip()


@dataclass
class SqlAttempt:
    number: int                       # 1-based, contiguous
    sql: str
    outcome: str                      # table | error
    error: str | None = None
    row_count: int = 0
    rating: float = 0.0
    reasons: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "attempt": self.number,
            "sql": self.sql,
            "outcome": self.outcome,
            "error": self.error,
            "row_count": self.row_count,
            "rating": self.rating,
            "reasons": self.reasons,
        }


@dataclass
class ThorAttemptLog:
    question: str
    task_type: str
    attempts: list[SqlAttempt] = field(default_factory=list)
    status: str = "failed"            # answered | failed
    narrative: str = ""

    def to_json(self) -> dict:
        return {
            "question": self.question,
            "task_type": self.task_type,
            "attempts": [a.to_json() for a in self.attempts],
            "status": self.status,
            "narrative": self.narrative,
        }


@dataclass
class Insight:
    narrative: str
    key_values: dict[str, float]
    key_labels: dict[str, str]
    trends: list[str]

    def to_json(self) -> dict:
        return {
            "narrative": self.narrative,
            "key_values": {name: _json_value(value)
                           for name, value in self.key_values.items()},
            "key_labels": self.key_labels,
            "trends": self.trends,
        }


@dataclass
class ThorResult:
    log: ThorAttemptLog
    insight: Insight
    table: SqlResult

    def to_json(self, verbose: bool = False) -> dict:
        out = {
            "narrative": self.insight.narrative,
            "insight": self.insight.to_json(),
            "log": self.log.to_json(),
        }
        if verbose:
            out["table"] = {
                "columns": list(self.table.columns),
                "rows": [[_json_value(v) for v in r] for r in self.table.rows],
                "truncated": self.table.truncated,
            }
        return out


def _fmt(value) -> str:
    """A cell or key value as narratives show it; floats in ``%g`` form."""
    return f"{value:g}" if isinstance(value, float) else str(value)


def _json_value(value):
    """A cell or key value as strict JSON holds it. JSON has no bytes and no
    non-finite numbers: a BLOB is its SQLite literal (``X'41'``) and an
    inf or nan float is its ``_fmt`` string (``"inf"``, ``"-inf"``,
    ``"nan"``); any other value is kept as it is."""
    if isinstance(value, bytes):
        return f"X'{value.hex().upper()}'"
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _classify_columns(result: SqlResult) -> tuple[list[int], int | None,
                                                  int | None]:
    """(numeric columns, date column, label column) of a result table.

    A column is numeric or text when all its non-null cells are (booleans
    are neither). The first text column whose cells all look like dates is
    the date column; the first other text column is the label column.
    """
    numeric: list[int] = []
    date_col = label_col = None
    for i in range(len(result.columns)):
        values = [row[i] for row in result.rows if row[i] is not None]
        if not values:
            continue
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
            numeric.append(i)
        elif all(isinstance(v, str) for v in values):
            if date_col is None and all(_DATE_RE.match(v) for v in values):
                date_col = i
            elif label_col is None:
                label_col = i
    return numeric, date_col, label_col


def interpret(question: str, result: SqlResult,
              chat: ChatPort | None = None) -> Insight:
    """Extract key values and trends from any result table, then narrate.

    Key values are max/min/total per numeric column, with the max row
    labeled by the first text column that is not the date column. A trend is flagged when a numeric
    column is strictly monotone over at least 3 rows ordered by the first
    date-like column. The narrative comes from the chat port when one is
    supplied and answers usably; otherwise a deterministic template, which
    for an empty table is its row count.
    """
    numeric, date_col, label_col = _classify_columns(result)

    key_values: dict[str, float] = {}
    key_labels: dict[str, str] = {}
    for ci in numeric:
        name = result.columns[ci]
        values = [(row[ci], ri) for ri, row in enumerate(result.rows)
                  if row[ci] is not None]
        max_value, max_row = max(values, key=lambda p: (p[0], -p[1]))
        min_value, _ = min(values, key=lambda p: (p[0], p[1]))
        key_values[f"{name}.max"] = max_value
        key_values[f"{name}.min"] = min_value
        key_values[f"{name}.total"] = sum(v for v, _ in values)
        if label_col is not None and result.rows[max_row][label_col] is not None:
            key_labels[f"{name}.max"] = str(result.rows[max_row][label_col])

    trends: list[str] = []
    if date_col is not None and len(result.rows) >= 3:
        ordered = sorted(result.rows, key=lambda row: (row[date_col] is None,
                                                       row[date_col]))
        for ci in numeric:
            series = [row[ci] for row in ordered if row[ci] is not None]
            if len(series) >= 3:
                if all(a < b for a, b in zip(series, series[1:])):
                    trends.append(f"{result.columns[ci]} increasing")
                elif all(a > b for a, b in zip(series, series[1:])):
                    trends.append(f"{result.columns[ci]} decreasing")

    narrative = _template_narrative(result, numeric, key_values, key_labels,
                                    trends)
    if chat is not None:
        table_echo = "; ".join(
            ", ".join(f"{c}={_fmt(v)}" for c, v in zip(result.columns, row))
            for row in result.rows[:20])
        prompt = (f"Summarize the query result in one short paragraph.\n"
                  f"QUESTION: {question}\nROWS: {table_echo}\n"
                  f"KEY VALUES: {key_values}\nTRENDS: {trends or 'none'}")
        try:
            response = chat.chat(chat_request(prompt))
            if response.text.strip():
                narrative = response.text.strip()
        except (ModelRefusal, TransportError, ScriptExhausted):
            pass
    return Insight(narrative=narrative, key_values=key_values,
                   key_labels=key_labels, trends=trends)


def _template_narrative(result: SqlResult, numeric: list[int],
                        key_values: dict[str, float],
                        key_labels: dict[str, str],
                        trends: list[str]) -> str:
    n = len(result.rows)
    if n == 1:
        cells = ", ".join(f"{c}={_fmt(v)}" for c, v
                          in zip(result.columns, result.rows[0]) if v is not None)
        return f"The query returned one row: {cells}."
    parts = []
    for ci in numeric:
        name = result.columns[ci]
        fragment = (f"{name} ranges from {_fmt(key_values[f'{name}.min'])} "
                    f"to {_fmt(key_values[f'{name}.max'])}")
        label = key_labels.get(f"{name}.max")
        if label is not None:
            fragment += f" (top: {label})"
        fragment += f" and totals {_fmt(key_values[f'{name}.total'])}"
        parts.append(fragment)
    sentence = f"The query returned {n} rows."
    if parts:
        sentence += " " + "; ".join(parts) + "."
    if trends:
        sentence += " Trend: " + ", ".join(trends) + "."
    return sentence


class ThorPipeline:
    """Bounded generate -> execute -> rate loop over a read-only database."""

    def __init__(self, executor: SqliteExecutor, chat: ChatPort | None = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 threshold: float = DEFAULT_THRESHOLD,
                 allow_empty: bool = False,
                 narrative_chat: ChatPort | None = None):
        self.executor = executor
        self.chat = chat
        self.max_retries = max_retries
        self.threshold = threshold
        self.allow_empty = allow_empty
        self.narrative_chat = narrative_chat
        self._schema_text: str | None = None

    def _acceptable(self, result: SqlResult | None) -> bool:
        """Whether a table may answer: non-empty unless empty answers are
        allowed. The one acceptance rule; ``rate`` and the loop both ask it."""
        return result is not None and (result.row_count > 0 or self.allow_empty)

    @property
    def schema_text(self) -> str:
        if self._schema_text is None:
            tables = introspect_schema(self.executor.db_path)
            if not tables:
                raise SqlRuntimeError("database has no tables")
            self._schema_text = serialize_schema(tables)
        return self._schema_text

    def generate_sql(self, question: str,
                     prior: list[SqlAttempt] | None = None) -> str:
        """Ask the chat port for one SELECT; retries see every prior attempt's
        SQL together with its error text or rating."""
        if self.chat is None:
            raise ModelRefusal("no chat port configured for SQL generation")
        feedback = ""
        if prior:
            lines = ["PRIOR ATTEMPTS (all rejected):"]
            for attempt in prior:
                lines.append(f"SQL: {attempt.sql}")
                if attempt.error is not None:
                    lines.append(f"ERROR: {attempt.error}")
                else:
                    lines.append(f"RATING: {attempt.rating:.2f} "
                                 f"({', '.join(attempt.reasons)})")
            feedback = "\n".join(lines) + "\n"
        prompt = (f"Write one SQLite SELECT statement answering the question.\n"
                  f"SCHEMA:\n{self.schema_text}\n"
                  f"QUESTION: {question}\n"
                  f"{feedback}"
                  f"Output only the SQL.")
        response = self.chat.chat(chat_request(prompt))
        sql = strip_code_fences(response.text)
        if not sql:
            raise ModelRefusal("model returned no SQL")
        return sql

    def rate(self, question: str, sql: str,
             result: SqlResult | None, error: str | None) -> tuple[float, list[str]]:
        """Execution errors and tables that are not ``_acceptable`` are hard
        zeros; everything else is model-scored on a 0..1 rubric, falling back
        to a non-empty-table heuristic when no usable score comes back."""
        if error is not None:
            return 0.0, ["execution-error"]
        if not self._acceptable(result):
            return 0.0, ["empty-result"]
        if self.chat is not None:
            preview = "; ".join(str(row) for row in result.rows[:5])
            prompt = (f"Rate how well this SQL result answers the question, "
                      f"from 0 to 1.\nQUESTION: {question}\nSQL: {sql}\n"
                      f"COLUMNS: {', '.join(result.columns)}\n"
                      f"FIRST ROWS: {preview}\n"
                      f"Respond with a single number between 0 and 1.")
            try:
                response = self.chat.chat(chat_request(prompt))
                match = _NUMBER_RE.search(response.text)
                if match:
                    value = max(0.0, min(1.0, float(match.group(0))))
                    return value, ["model-rubric"]
            except (ModelRefusal, TransportError):
                pass
        return 1.0, ["heuristic-nonempty" if result.row_count else "heuristic-empty"]

    def self_correct_loop(self, question: str,
                          task_type: str = "structured") -> tuple[ThorAttemptLog,
                                                                  SqlResult | None]:
        log = ThorAttemptLog(question=question, task_type=task_type)
        for number in range(1, self.max_retries + 2):
            sql = ""
            result: SqlResult | None = None
            error: str | None = None
            try:
                sql = self.generate_sql(question, prior=log.attempts)
            except ModelRefusal as exc:
                error = f"model refusal: {exc}"
            else:
                try:
                    result = self.executor.execute(sql)
                except (SqlSyntaxError, SqlRuntimeError, SqlTimeout,
                        NonSelectRejected) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            rating, reasons = self.rate(question, sql, result, error)
            attempt = SqlAttempt(
                number=number, sql=sql,
                outcome="table" if error is None else "error",
                error=error,
                row_count=result.row_count if result is not None else 0,
                rating=rating, reasons=reasons)
            log.attempts.append(attempt)
            # rate() scores a failed or empty attempt 0.0, which a threshold
            # of 0.0 would clear
            if self._acceptable(result) and rating >= self.threshold:
                log.status = "answered"
                return log, result
        return log, None

    def run(self, question: str) -> ThorResult:
        """Route, then loop to an accepted result and interpret it."""
        task_type = route(question, self.chat)
        if task_type != "structured":
            log = ThorAttemptLog(question=question, task_type=task_type)
            raise ThorFailed(
                f"question routed as {task_type!r}, not structured", log=log)
        log, result = self.self_correct_loop(question, task_type)
        if result is None:
            raise ThorFailed(
                f"no attempt reached rating {self.threshold} within "
                f"{self.max_retries + 1} attempts", log=log)
        insight = interpret(question, result, chat=self.narrative_chat)
        log.narrative = insight.narrative
        return ThorResult(log=log, insight=insight, table=result)
