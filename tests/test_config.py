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


# config_echo bytes as earlier releases print them: scripts read the echo,
# so the key order and the value types may not drift
DEFAULT_ECHO = (
    '{"kb": "./kb", "chunk": {"size": 1000, "overlap": 150}, '
    '"retrieval": {"k": 50, "rrf_c": 60}, '
    '"ann": {"m": 16, "ef_c": 200, "ef_s": 128, "exact_threshold": 5000, '
    '"mode": "auto", "seed": 42}, '
    '"ports": {"mode": "stub", "script": null, "api_key_env": "ESAP_API_KEY", '
    '"base_url_env": "ESAP_BASE_URL", "model_env": "ESAP_MODEL"}, '
    '"thor": {"max_retries": 3, "threshold": 0.6, "allow_empty": false}, '
    '"eval": {"ks": [1, 2, 4, 8, 16, 50], "ngram_n": 3}, '
    '"guards": [{"kind": "email", '
    '"pattern": "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\\\.[A-Za-z]{2,}"}, '
    '{"kind": "ssn", "pattern": "\\\\d{3}-\\\\d{2}-\\\\d{4}"}, '
    '{"kind": "phone", '
    '"pattern": "\\\\(?\\\\d{3}\\\\)?[-. ]?\\\\d{3}[-. ]?\\\\d{4}"}]}'
)
FULL_ECHO = (
    '{"kb": "/srv/kb", "chunk": {"size": 1, "overlap": 0}, '
    '"retrieval": {"k": 7, "rrf_c": 30}, '
    '"ann": {"m": 8, "ef_c": 100, "ef_s": 64, "exact_threshold": 99, '
    '"mode": "exact", "seed": 7}, '
    '"ports": {"mode": "scripted", "script": "replies.json", '
    '"api_key_env": "K", "base_url_env": "U", "model_env": "M"}, '
    '"thor": {"max_retries": 0, "threshold": 1.0, "allow_empty": true}, '
    '"eval": {"ks": [3, 1], "ngram_n": 2}, '
    '"guards": [{"kind": "badge", "pattern": "B-\\\\d{4}"}]}'
)


def test_default_echo_is_pinned():
    assert json.dumps(AppConfig().to_json()) == DEFAULT_ECHO


def test_full_echo_is_pinned():
    # every section and key set, each given in reverse order; an int
    # threshold is stored and echoed as a float
    full = {"guards": [{"pattern": r"B-\d{4}", "kind": "badge"}],
            "eval": {"ngram_n": 2, "ks": [3, 1]},
            "thor": {"allow_empty": True, "threshold": 1, "max_retries": 0},
            "ports": {"model_env": "M", "base_url_env": "U",
                      "api_key_env": "K", "script": "replies.json",
                      "mode": "scripted"},
            "ann": {"seed": 7, "mode": "exact", "exact_threshold": 99,
                    "ef_s": 64, "ef_c": 100, "m": 8},
            "retrieval": {"rrf_c": 30, "k": 7},
            "chunk": {"overlap": 0, "size": 1},
            "kb": "/srv/kb"}
    cfg = config_from_dict(full)
    assert json.dumps(cfg.to_json()) == FULL_ECHO
    assert json.dumps(config_from_dict(cfg.to_json()).to_json()) == FULL_ECHO


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
    # a section of the wrong JSON type names the section
    for data, section in (({"chunk": 5}, "chunk"), ({"ann": []}, "ann"),
                          ({"ports": "x"}, "ports"), ({"thor": None}, "thor")):
        with pytest.raises(ConfigError, match=f"config key {section} "):
            config_from_dict(data)
    with pytest.raises(ConfigError, match=r"guards\[0\] needs kind and pattern"):
        config_from_dict({"guards": [{"kind": "badge", "pattern": 5}]})


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
    with pytest.raises(ConfigError, match="thor.max_retries"):
        config_from_dict({"thor": {"max_retries": -1}})
    # a negative RRF constant divides by zero at rank -rrf_c
    with pytest.raises(ConfigError, match="retrieval.rrf_c"):
        config_from_dict({"retrieval": {"rrf_c": -1}})


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
    for content in (b"\xff{}", b"[" * 100_000):
        bad.write_bytes(content)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(bad)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_in_config_file_is_refused(tmp_path, constant):
    path = tmp_path / "config.json"
    path.write_text(f'{{"thor": {{"threshold": {constant}}}}}', encoding="utf-8")
    with pytest.raises(ConfigError, match=f"not valid JSON: {constant}"):
        load_config(path)


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
