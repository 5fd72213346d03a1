"""
Self-correcting SQL agent over a read-only database
===================================================

The agent routes the question, asks its chat port for a SELECT, executes
it behind a read-only gate, rates the result, and retries with the error
text fed back until an attempt clears the acceptance threshold. Here a
scripted port replays a failure followed by a fix, which is exactly how
the retry path is exercised in tests.
"""

import tempfile
from pathlib import Path

from esap import ScriptedModel, SqliteExecutor, ThorPipeline
from esap.fixtures import seed_music_db

db_path = seed_music_db(Path(tempfile.mkdtemp(prefix="esap-demo-")) / "music.db")
executor = SqliteExecutor(str(db_path))

# scripted replies: route, a broken SELECT, the corrected SELECT, a rating
chat = ScriptedModel([
    "structured",
    "SELECT name, unit_price FROM track ORDER BY unit_price DESC LIMIT 1",
    "SELECT name, unit_price FROM chinook_track ORDER BY unit_price DESC LIMIT 1",
    "0.9",
])

pipeline = ThorPipeline(executor, chat, max_retries=3)
result = pipeline.run("Which track has the highest unit price?")

print("attempt log:")
for attempt in result.log.attempts:
    status = attempt.error or f"{attempt.row_count} rows, rating {attempt.rating}"
    print(f"  #{attempt.number} {attempt.outcome:5s}  {status}")
    print(f"      {attempt.sql}")

print(f"\nnarrative: {result.insight.narrative}")
print(f"key values: {result.insight.key_values}")

# the gate rejects anything that is not a single read
from esap.errors import NonSelectRejected

try:
    executor.execute("DELETE FROM chinook_track")
except NonSelectRejected as exc:
    print(f"\nwrite attempt rejected: {exc}")
