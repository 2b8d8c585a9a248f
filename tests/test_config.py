import json

import pytest

from homefetch.agent import NoiseConfig
from homefetch.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_echo,
    config_from_dict,
    config_from_echo,
    load_config,
)


class TestRunConfigDefaults:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 1
        assert cfg.sessions == 1
        assert cfg.grounder == "relational"
        assert cfg.time_budget_s == 300.0
        assert cfg.workers == 1
        assert cfg.out is None
        assert cfg.paper_compat_counts is False
        assert cfg.noise == NoiseConfig()

    def test_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=2 ** 64)
        with pytest.raises(ConfigError, match="sessions"):
            RunConfig(sessions=0)
        with pytest.raises(ConfigError, match="grounder"):
            RunConfig(grounder="psychic")
        with pytest.raises(ConfigError, match="time_budget_s"):
            RunConfig(time_budget_s=-1.0)
        with pytest.raises(ConfigError, match="workers"):
            RunConfig(workers=0)


class TestConfigFromDict:
    def test_empty_object_is_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_full_document(self):
        cfg = config_from_dict({
            "seed": 9,
            "sessions": 12,
            "grounder": "oracle",
            "time_budget_s": 120,
            "workers": 2,
            "out": "runs/x",
            "paper_compat_counts": True,
            "noise": {"p_miss": 0.25, "p_attr": 0.1},
            "gen": {
                "objects_per_room": 3.0,
                "max_objects": 6,
                "distractor_guarantee": False,
                "weights": {"attribute": 2, "relation": 3},
                "thresholds": {"near_m": 1.5},
            },
        })
        assert cfg.seed == 9 and cfg.sessions == 12
        assert cfg.grounder == "oracle"
        assert cfg.time_budget_s == 120.0
        assert cfg.noise.p_miss == 0.25
        assert cfg.gen.objects_per_room == 3.0
        assert cfg.gen.max_objects == 6
        assert cfg.gen.distractor_guarantee is False
        assert cfg.gen.weights.attribute == 2
        assert cfg.gen.thresholds.near_m == 1.5

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="unknown config key: seeed"):
            config_from_dict({"seeed": 1})
        with pytest.raises(ConfigError, match=r"unknown config key: noise\.p_mis"):
            config_from_dict({"noise": {"p_mis": 0.1}})
        with pytest.raises(ConfigError, match=r"unknown config key: gen\.layout"):
            config_from_dict({"gen": {"layout": "default"}})

    def test_strict_types(self):
        with pytest.raises(ConfigError, match="seed: must be an integer"):
            config_from_dict({"seed": 1.5})
        with pytest.raises(ConfigError, match="seed: must be an integer"):
            config_from_dict({"seed": True})  # bool is not an int here
        with pytest.raises(ConfigError, match="grounder: must be a string"):
            config_from_dict({"grounder": 3})
        with pytest.raises(ConfigError, match=r"noise\.p_miss: must be a number"):
            config_from_dict({"noise": {"p_miss": "0.5"}})
        with pytest.raises(ConfigError, match="must be a boolean"):
            config_from_dict({"paper_compat_counts": 1})
        # ints quietly widen to float where a float is expected
        assert config_from_dict({"time_budget_s": 60}).time_budget_s == 60.0

    def test_domain_errors_reported_with_section(self):
        with pytest.raises(ConfigError, match="noise"):
            config_from_dict({"noise": {"p_miss": 1.5}})
        with pytest.raises(ConfigError, match="gen"):
            config_from_dict({"gen": {"min_objects": 4, "max_objects": 2}})


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5, "grounder": "keyword-baseline"}))
        cfg = load_config(path)
        assert cfg.seed == 5
        assert cfg.grounder == "keyword-baseline"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestApplyOverrides:
    def test_flags_win(self):
        base = config_from_dict({"seed": 1, "noise": {"p_miss": 0.1}})
        cfg = apply_overrides(base, {
            "seed": 9, "sessions": 40, "grounder": "oracle",
            "noise.p_miss": 0.5, "time_budget_s": 60, "workers": 4,
            "out": "runs/o", "paper_compat_counts": True})
        assert cfg.seed == 9 and cfg.sessions == 40
        assert cfg.grounder == "oracle"
        assert cfg.noise.p_miss == 0.5
        assert cfg.time_budget_s == 60.0
        assert cfg.workers == 4 and cfg.out == "runs/o"
        assert cfg.paper_compat_counts is True

    def test_none_means_keep(self):
        base = config_from_dict({"seed": 3, "noise": {"p_miss": 0.2}})
        cfg = apply_overrides(base, {"seed": None, "noise.p_miss": None})
        assert cfg == base

    def test_invalid_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"noise.p_miss": 1.5})


class TestConfigEcho:
    def test_roundtrip_preserves_session_relevant_slice(self):
        cfg = config_from_dict({
            "seed": 4, "sessions": 7, "workers": 3, "out": "x",
            "grounder": "oracle", "time_budget_s": 42.0,
            "noise": {"p_miss": 0.3, "p_hallucinate": 0.05},
            "gen": {"objects_per_room": 2.5,
                    "thresholds": {"band_m": 0.75}},
        })
        back = config_from_echo(config_echo(cfg))
        assert back.grounder == cfg.grounder
        assert back.time_budget_s == cfg.time_budget_s
        assert back.noise == cfg.noise
        assert back.gen == cfg.gen
        # presentation settings are deliberately absent from the echo
        echo = config_echo(cfg)
        assert "sessions" not in echo and "workers" not in echo
        assert "out" not in echo and "seed" not in echo

    def test_echo_is_json_stable(self):
        echo = config_echo(RunConfig())
        assert json.loads(json.dumps(echo)) == echo
