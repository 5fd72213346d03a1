"""The benchmark's tracer wraps only names the program still has."""

from __future__ import annotations

import importlib
from pathlib import Path


def test_every_name_the_tracer_wraps_is_a_callable_of_its_owner(monkeypatch):
    # the benchmark runs untraced, so a renamed function would otherwise fail
    # only a traced run; the repository root holds the perfbench package
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    tracer = importlib.import_module("perfbench.tracer")
    missing = [(getattr(owner, "__name__", owner), name) for owner, name, _ in tracer.TARGETS
               if not callable(getattr(owner, name, None))]
    assert tracer.TARGETS and missing == []
