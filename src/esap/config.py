"""Application configuration: one JSON file, strict keys, one schema.

``_SCHEMA`` is the one place that knows a setting: each key is one row
holding the JSON types it accepts (the first is the type stored), the rule
its value must meet and its default, in echo order. Every section but
``ann`` is a ``SimpleNamespace`` built from its rows, and key checks, type,
range and enum checks and ``AppConfig.to_json`` (the CLI's ``config_echo``)
read the same rows. Only ``kb``, ``guards`` and ``ann`` have code of their
own: ``ann`` is an ``AnnParams``, which keeps its defaults and key renames
(``to_json`` and ``from_json``).

Unknown keys are rejected with their full path (e.g. "retrieval.rrf_k")
so typos fail loudly instead of silently using defaults. CLI flags take
no other path: ``esap.cli`` writes each one into the JSON form of the
config, so ``config_from_dict`` checks flags and file keys alike.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE
from .dense import AnnParams
from .errors import ConfigError
from .evaluation import DEFAULT_KS, DEFAULT_NGRAM
from .hybrid import DEFAULT_GUARDS, DEFAULT_K, DEFAULT_RRF_C, GuardRule
from .jsonio import read_json
from .thor import DEFAULT_MAX_RETRIES, DEFAULT_THRESHOLD


def _is(value, kinds: tuple) -> bool:
    # JSON true/false parse to bool, which Python also counts as an int
    return isinstance(value, kinds) and (bool in kinds
                                         or not isinstance(value, bool))


def _at_least(low: int):
    return (lambda value: value >= low), f"must be >= {low}"


def _one_of(*names: str):
    return (lambda value: value in names), "must be " + "|".join(names)


_UNIT = (lambda value: 0.0 <= value <= 1.0), "must be in [0, 1]"
_CUTOFFS = (lambda values: bool(values) and all(_is(v, (int,)) and v >= 1
                                                for v in values),
            "must be a non-empty list of positive integers")

# section -> key -> (accepted JSON types, the first one stored; rule or None;
# default), in config_echo order. The ann rows hold no default: ``AnnParams``
# keeps its own, as code outside the config builds one.
_SCHEMA = {
    "chunk": {"size": (int, _at_least(1), DEFAULT_CHUNK_SIZE),
              "overlap": (int, _at_least(0), DEFAULT_CHUNK_OVERLAP)},
    "retrieval": {"k": (int, _at_least(1), DEFAULT_K),
                  "rrf_c": (int, _at_least(0), DEFAULT_RRF_C)},
    "ann": {"m": (int, _at_least(1)), "ef_c": (int, _at_least(1)),
            "ef_s": (int, _at_least(1)), "exact_threshold": (int, None),
            "mode": (str, _one_of("auto", "exact", "ann")), "seed": (int, None)},
    "ports": {"mode": (str, _one_of("stub", "scripted", "http"), "stub"),
              "script": ((str, type(None)), None, None),
              "api_key_env": (str, None, "ESAP_API_KEY"),
              "base_url_env": (str, None, "ESAP_BASE_URL"),
              "model_env": (str, None, "ESAP_MODEL")},
    "thor": {"max_retries": (int, _at_least(0), DEFAULT_MAX_RETRIES),
             "threshold": ((float, int), _UNIT, DEFAULT_THRESHOLD),
             "allow_empty": (bool, None, False)},
    "eval": {"ks": (list, _CUTOFFS, list(DEFAULT_KS)),
             "ngram_n": (int, _at_least(1), DEFAULT_NGRAM)},
}


def _defaults(section: str) -> SimpleNamespace:
    """A section of defaults, one attribute per row, each value its own copy."""
    return SimpleNamespace(**{key: copy.copy(row[2])
                              for key, row in _SCHEMA[section].items()})


@dataclass
class AppConfig:
    kb: str = "./kb"
    chunk: SimpleNamespace = field(default_factory=partial(_defaults, "chunk"))
    retrieval: SimpleNamespace = field(default_factory=partial(_defaults, "retrieval"))
    ann: AnnParams = field(default_factory=AnnParams)
    ports: SimpleNamespace = field(default_factory=partial(_defaults, "ports"))
    thor: SimpleNamespace = field(default_factory=partial(_defaults, "thor"))
    eval: SimpleNamespace = field(default_factory=partial(_defaults, "eval"))
    guards: list[GuardRule] = field(default_factory=lambda: list(DEFAULT_GUARDS))

    def to_json(self) -> dict:
        out = {"kb": self.kb}
        for section, keys in _SCHEMA.items():
            values = getattr(self, section)
            out[section] = (values.to_json() if section == "ann" else
                            {key: copy.copy(getattr(values, key)) for key in keys})
        out["guards"] = [{"kind": g.kind, "pattern": g.pattern}
                         for g in self.guards]
        return out


def _check_keys(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {where}")


def config_from_dict(data: dict) -> AppConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, {"kb", *_SCHEMA, "guards"}, "")
    merged = AppConfig().to_json()
    if "kb" in data:
        if not isinstance(data["kb"], str):
            raise ConfigError("config key kb must be a string")
        merged["kb"] = data["kb"]

    for section, keys in _SCHEMA.items():
        given = data.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config key {section} must be an object")
        _check_keys(given, keys, section)
        for key, value in given.items():
            kinds, rule = keys[key][:2]
            kinds = kinds if isinstance(kinds, tuple) else (kinds,)
            if not _is(value, kinds):
                raise ConfigError(f"config key {section}.{key} has wrong type: "
                                  f"{type(value).__name__}")
            if rule is not None and not rule[0](value):
                raise ConfigError(f"config key {section}.{key} {rule[1]}, "
                                  f"got {value!r}")
            merged[section][key] = value if value is None else kinds[0](value)
    size, overlap = merged["chunk"]["size"], merged["chunk"]["overlap"]
    if overlap >= size:
        raise ConfigError(f"config key chunk.overlap must be < chunk.size ({size}), "
                          f"got {overlap}")

    cfg = AppConfig(kb=merged["kb"], ann=AnnParams.from_json(merged["ann"]),
                    **{section: SimpleNamespace(**merged[section])
                       for section in _SCHEMA.keys() - {"ann"}})

    if "guards" in data:
        rules = data["guards"]
        if not isinstance(rules, list):
            raise ConfigError("config key guards must be a list")
        parsed = []
        for i, rule in enumerate(rules):
            if not isinstance(rule, dict):
                raise ConfigError(f"config key guards[{i}] must be an object")
            _check_keys(rule, {"kind", "pattern"}, f"guards[{i}]")
            if not all(isinstance(rule.get(key), str) for key in ("kind", "pattern")):
                raise ConfigError(f"config key guards[{i}] needs kind and "
                                  f"pattern strings")
            try:
                re.compile(rule["pattern"])
            except re.error as exc:
                raise ConfigError(
                    f"config key guards[{i}].pattern is not a valid "
                    f"regex: {exc}") from exc
            parsed.append(GuardRule(kind=rule["kind"], pattern=rule["pattern"]))
        cfg.guards = parsed
    return cfg


def load_config(path: str | Path) -> AppConfig:
    return config_from_dict(read_json(path, ConfigError, f"config file {path}", "object"))
