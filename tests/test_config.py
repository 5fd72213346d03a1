from __future__ import annotations

import json

import pytest

from esap.config import AppConfig, config_from_dict, load_config
from esap.errors import ConfigError


def test_defaults():
    cfg = AppConfig()
    assert cfg.kb == "./kb"
    assert (cfg.chunk.size, cfg.chunk.overlap) == (1000, 150)
    assert (cfg.retrieval.k, cfg.retrieval.rrf_c) == (50, 60)
    assert cfg.ann.mode == "auto"
    assert cfg.ann.seed == 42
    assert cfg.ports.mode == "stub"
    assert (cfg.thor.max_retries, cfg.thor.threshold) == (3, 0.6)
    assert cfg.eval.ks == [1, 2, 4, 8, 16, 50]
    assert cfg.eval.ngram_n == 3
    assert [g.kind for g in cfg.guards] == ["email", "ssn", "phone"]


def test_partial_file_keeps_other_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kb": "/data/kb", "chunk": {"size": 400}}),
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.kb == "/data/kb"
    assert cfg.chunk.size == 400
    assert cfg.chunk.overlap == 150
    assert cfg.retrieval.k == 50


def test_to_json_round_trips():
    cfg = AppConfig()
    cfg.chunk.size = 321
    cfg.thor.allow_empty = True
    cfg.ports.mode = "scripted"
    cfg.ports.script = "replies.json"
    again = config_from_dict(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_unknown_keys_fail_with_path():
    with pytest.raises(ConfigError, match="retrieval.overfech"):
        config_from_dict({"retrieval": {"overfech": 4}})
    # the fetch depth is fixed (4 * k within the principal's view)
    with pytest.raises(ConfigError, match="retrieval.overfetch"):
        config_from_dict({"retrieval": {"overfetch": 4}})
    with pytest.raises(ConfigError, match="unknown config key: topk"):
        config_from_dict({"topk": 10})
    with pytest.raises(ConfigError, match=r"guards\[0\].regex"):
        config_from_dict({"guards": [{"kind": "x", "regex": "a"}]})


def test_type_errors_are_loud():
    with pytest.raises(ConfigError, match="chunk.size"):
        config_from_dict({"chunk": {"size": "big"}})
    with pytest.raises(ConfigError, match="thor.allow_empty"):
        config_from_dict({"thor": {"allow_empty": "yes"}})
    with pytest.raises(ConfigError, match="eval.ks"):
        config_from_dict({"eval": {"ks": [1, 0]}})
    with pytest.raises(ConfigError, match="eval.ks"):
        config_from_dict({"eval": {"ks": []}})
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2])


def test_enum_fields_validated():
    with pytest.raises(ConfigError, match="ann.mode"):
        config_from_dict({"ann": {"mode": "fast"}})
    with pytest.raises(ConfigError, match="ports.mode"):
        config_from_dict({"ports": {"mode": "telnet"}})


def test_range_checks():
    with pytest.raises(ConfigError, match="chunk.size"):
        config_from_dict({"chunk": {"size": 0}})
    with pytest.raises(ConfigError, match="chunk.overlap"):
        config_from_dict({"chunk": {"overlap": -1}})
    with pytest.raises(ConfigError, match="threshold"):
        config_from_dict({"thor": {"threshold": 1.5}})
    with pytest.raises(ConfigError, match="ngram_n"):
        config_from_dict({"eval": {"ngram_n": 0}})


def test_guard_rules_parsed_and_validated():
    cfg = config_from_dict({"guards": [{"kind": "badge",
                                        "pattern": r"B-\d{4}"}]})
    assert [g.kind for g in cfg.guards] == ["badge"]
    with pytest.raises(ConfigError, match="valid regex"):
        config_from_dict({"guards": [{"kind": "x", "pattern": "("}]})
    assert config_from_dict({"guards": []}).guards == []


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_ann_config_to_params():
    cfg = config_from_dict({"ann": {"m": 8, "ef_c": 100, "ef_s": 64,
                                    "exact_threshold": 99, "mode": "exact",
                                    "seed": 7}})
    assert (cfg.ann.m, cfg.ann.ef_construction, cfg.ann.ef_search) == (8, 100, 64)
    assert (cfg.ann.exact_threshold, cfg.ann.mode, cfg.ann.seed) == (99, "exact", 7)


def test_ann_sizes_must_be_positive():
    for key in ("m", "ef_c", "ef_s"):
        with pytest.raises(ConfigError, match=f"ann.{key} must be >= 1"):
            config_from_dict({"ann": {key: 0, "mode": "ann"}})
    cfg = config_from_dict({"ann": {"m": 1, "ef_c": 1, "ef_s": 1}})
    assert (cfg.ann.m, cfg.ann.ef_construction, cfg.ann.ef_search) == (1, 1, 1)
