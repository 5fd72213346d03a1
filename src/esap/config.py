"""Application configuration: one JSON file, strict keys, CLI overrides.

Unknown keys are rejected with their full path (e.g. "retrieval.rrf_k")
so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .dense import AnnParams
from .errors import ConfigError
from .hybrid import DEFAULT_GUARDS, DEFAULT_RRF_C, GuardRule
from .ports import ENV_API_KEY, ENV_BASE_URL, ENV_MODEL


@dataclass
class ChunkConfig:
    size: int = 1000
    overlap: int = 150


@dataclass
class RetrievalConfig:
    k: int = 50
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
    max_retries: int = 3
    threshold: float = 0.6
    allow_empty: bool = False


@dataclass
class EvalConfig:
    ks: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 50])
    ngram_n: int = 3


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
        return {
            "kb": self.kb,
            "chunk": {"size": self.chunk.size, "overlap": self.chunk.overlap},
            "retrieval": {"k": self.retrieval.k, "rrf_c": self.retrieval.rrf_c},
            "ann": self.ann.to_json(),
            "ports": {"mode": self.ports.mode, "script": self.ports.script,
                      "api_key_env": self.ports.api_key_env,
                      "base_url_env": self.ports.base_url_env,
                      "model_env": self.ports.model_env},
            "thor": {"max_retries": self.thor.max_retries,
                     "threshold": self.thor.threshold,
                     "allow_empty": self.thor.allow_empty},
            "eval": {"ks": list(self.eval.ks), "ngram_n": self.eval.ngram_n},
            "guards": [{"kind": g.kind, "pattern": g.pattern}
                       for g in self.guards],
        }


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {where}")


def _typed(section: dict, key: str, kinds, path: str, default):
    if key not in section:
        return default
    value = section[key]
    allowed = kinds if isinstance(kinds, tuple) else (kinds,)
    if (isinstance(value, bool) and bool not in allowed) \
            or not isinstance(value, kinds):
        raise ConfigError(f"config key {path}.{key} has wrong type: "
                          f"{type(value).__name__}")
    return value


def config_from_dict(data: dict) -> AppConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, {"kb", "chunk", "retrieval", "ann", "ports", "thor",
                       "eval", "guards"}, "")
    cfg = AppConfig()
    if "kb" in data:
        if not isinstance(data["kb"], str):
            raise ConfigError("config key kb must be a string")
        cfg.kb = data["kb"]

    if "chunk" in data:
        sec = data["chunk"]
        _check_keys(sec, {"size", "overlap"}, "chunk")
        cfg.chunk.size = int(_typed(sec, "size", int, "chunk", cfg.chunk.size))
        cfg.chunk.overlap = int(_typed(sec, "overlap", int, "chunk",
                                       cfg.chunk.overlap))

    if "retrieval" in data:
        sec = data["retrieval"]
        _check_keys(sec, {"k", "rrf_c"}, "retrieval")
        cfg.retrieval.k = int(_typed(sec, "k", int, "retrieval", cfg.retrieval.k))
        cfg.retrieval.rrf_c = int(_typed(sec, "rrf_c", int, "retrieval",
                                         cfg.retrieval.rrf_c))

    if "ann" in data:
        sec = data["ann"]
        ann = cfg.ann.to_json()
        _check_keys(sec, set(ann), "ann")
        for key in ("m", "ef_c", "ef_s", "exact_threshold", "seed"):
            ann[key] = int(_typed(sec, key, int, "ann", ann[key]))
        for key in ("m", "ef_c", "ef_s"):
            if ann[key] < 1:
                raise ConfigError(f"config key ann.{key} must be >= 1")
        mode = _typed(sec, "mode", str, "ann", ann["mode"])
        if mode not in ("auto", "exact", "ann"):
            raise ConfigError(f"config key ann.mode must be auto|exact|ann, "
                              f"got {mode!r}")
        ann["mode"] = mode
        cfg.ann = AnnParams.from_json(ann)

    if "ports" in data:
        sec = data["ports"]
        _check_keys(sec, {"mode", "script", "api_key_env", "base_url_env",
                          "model_env"}, "ports")
        mode = _typed(sec, "mode", str, "ports", cfg.ports.mode)
        if mode not in ("stub", "scripted", "http"):
            raise ConfigError(f"config key ports.mode must be "
                              f"stub|scripted|http, got {mode!r}")
        cfg.ports.mode = mode
        script = sec.get("script", cfg.ports.script)
        if script is not None and not isinstance(script, str):
            raise ConfigError("config key ports.script must be a string or null")
        cfg.ports.script = script
        cfg.ports.api_key_env = _typed(sec, "api_key_env", str, "ports",
                                       cfg.ports.api_key_env)
        cfg.ports.base_url_env = _typed(sec, "base_url_env", str, "ports",
                                        cfg.ports.base_url_env)
        cfg.ports.model_env = _typed(sec, "model_env", str, "ports",
                                     cfg.ports.model_env)

    if "thor" in data:
        sec = data["thor"]
        _check_keys(sec, {"max_retries", "threshold", "allow_empty"}, "thor")
        cfg.thor.max_retries = int(_typed(sec, "max_retries", int, "thor",
                                          cfg.thor.max_retries))
        cfg.thor.threshold = float(_typed(sec, "threshold", (int, float),
                                          "thor", cfg.thor.threshold))
        allow = sec.get("allow_empty", cfg.thor.allow_empty)
        if not isinstance(allow, bool):
            raise ConfigError("config key thor.allow_empty must be a boolean")
        cfg.thor.allow_empty = allow

    if "eval" in data:
        sec = data["eval"]
        _check_keys(sec, {"ks", "ngram_n"}, "eval")
        if "ks" in sec:
            ks = sec["ks"]
            if not isinstance(ks, list) or not ks or not all(
                    isinstance(k, int) and not isinstance(k, bool) and k >= 1
                    for k in ks):
                raise ConfigError("config key eval.ks must be a non-empty "
                                  "list of positive integers")
            cfg.eval.ks = list(ks)
        cfg.eval.ngram_n = int(_typed(sec, "ngram_n", int, "eval",
                                      cfg.eval.ngram_n))
        if cfg.eval.ngram_n < 1:
            raise ConfigError("config key eval.ngram_n must be >= 1")

    if "guards" in data:
        rules = data["guards"]
        if not isinstance(rules, list):
            raise ConfigError("config key guards must be a list")
        parsed = []
        for i, rule in enumerate(rules):
            if not isinstance(rule, dict):
                raise ConfigError(f"config key guards[{i}] must be an object")
            _check_keys(rule, {"kind", "pattern"}, f"guards[{i}]")
            if "kind" not in rule or "pattern" not in rule:
                raise ConfigError(f"config key guards[{i}] needs kind and pattern")
            try:
                re.compile(rule["pattern"])
            except re.error as exc:
                raise ConfigError(
                    f"config key guards[{i}].pattern is not a valid "
                    f"regex: {exc}") from exc
            parsed.append(GuardRule(kind=rule["kind"], pattern=rule["pattern"]))
        cfg.guards = parsed

    if cfg.chunk.size < 1:
        raise ConfigError("config key chunk.size must be >= 1")
    if cfg.chunk.overlap < 0:
        raise ConfigError("config key chunk.overlap must be >= 0")
    if cfg.retrieval.k < 1:
        raise ConfigError("config key retrieval.k must be >= 1")
    if not 0.0 <= cfg.thor.threshold <= 1.0:
        raise ConfigError("config key thor.threshold must be in [0, 1]")
    return cfg


def load_config(path: str | Path) -> AppConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
