"""Application configuration: one JSON file, strict keys, one schema.

``_SCHEMA`` is the one place that knows a setting. For each section it
lists the keys in echo order, the JSON types each key accepts (the first
is the type stored) and the rule its value must meet. Key checks, type
checks, range and enum checks, parsing into the dataclasses below and
``AppConfig.to_json`` (the CLI's ``config_echo``) all read it. Only
``kb``, ``guards`` and the ``ann`` key renames (``AnnParams.to_json`` and
``from_json``) have code of their own.

Unknown keys are rejected with their full path (e.g. "retrieval.rrf_k")
so typos fail loudly instead of silently using defaults. CLI flags take
no other path: ``esap.cli`` writes each one into the JSON form of the
config, so ``config_from_dict`` checks flags and file keys alike.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import DEFAULT_CHUNK_OVERLAP, DEFAULT_CHUNK_SIZE
from .dense import AnnParams
from .errors import ConfigError
from .evaluation import DEFAULT_KS, DEFAULT_NGRAM
from .hybrid import DEFAULT_GUARDS, DEFAULT_K, DEFAULT_RRF_C, GuardRule
from .jsonio import read_json
from .ports import ENV_API_KEY, ENV_BASE_URL, ENV_MODEL
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

# section -> key -> (accepted JSON types, the first one stored; rule or None),
# in config_echo order
_SCHEMA = {
    "chunk": {"size": (int, _at_least(1)), "overlap": (int, _at_least(0))},
    "retrieval": {"k": (int, _at_least(1)), "rrf_c": (int, _at_least(0))},
    "ann": {"m": (int, _at_least(1)), "ef_c": (int, _at_least(1)),
            "ef_s": (int, _at_least(1)), "exact_threshold": (int, None),
            "mode": (str, _one_of("auto", "exact", "ann")), "seed": (int, None)},
    "ports": {"mode": (str, _one_of("stub", "scripted", "http")),
              "script": ((str, type(None)), None), "api_key_env": (str, None),
              "base_url_env": (str, None), "model_env": (str, None)},
    "thor": {"max_retries": (int, _at_least(0)),
             "threshold": ((float, int), _UNIT), "allow_empty": (bool, None)},
    "eval": {"ks": (list, _CUTOFFS), "ngram_n": (int, _at_least(1))},
}


@dataclass
class ChunkConfig:
    size: int = DEFAULT_CHUNK_SIZE
    overlap: int = DEFAULT_CHUNK_OVERLAP


@dataclass
class RetrievalConfig:
    k: int = DEFAULT_K
    rrf_c: int = DEFAULT_RRF_C


@dataclass
class PortsConfig:
    mode: str = "stub"            # stub | scripted | http
    script: str | None = None
    api_key_env: str = ENV_API_KEY
    base_url_env: str = ENV_BASE_URL
    model_env: str = ENV_MODEL


@dataclass
class ThorConfig:
    max_retries: int = DEFAULT_MAX_RETRIES
    threshold: float = DEFAULT_THRESHOLD
    allow_empty: bool = False


@dataclass
class EvalConfig:
    ks: list[int] = field(default_factory=lambda: list(DEFAULT_KS))
    ngram_n: int = DEFAULT_NGRAM


@dataclass
class AppConfig:
    kb: str = "./kb"
    chunk: ChunkConfig = field(default_factory=ChunkConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    ann: AnnParams = field(default_factory=AnnParams)
    ports: PortsConfig = field(default_factory=PortsConfig)
    thor: ThorConfig = field(default_factory=ThorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
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
            kinds, rule = keys[key]
            kinds = kinds if isinstance(kinds, tuple) else (kinds,)
            if not _is(value, kinds):
                raise ConfigError(f"config key {section}.{key} has wrong type: "
                                  f"{type(value).__name__}")
            if rule is not None and not rule[0](value):
                raise ConfigError(f"config key {section}.{key} {rule[1]}, "
                                  f"got {value!r}")
            merged[section][key] = value if value is None else kinds[0](value)

    cfg = AppConfig(kb=merged["kb"], ann=AnnParams.from_json(merged["ann"]))
    for section in _SCHEMA.keys() - {"ann"}:
        for key, value in merged[section].items():
            setattr(getattr(cfg, section), key, value)

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
