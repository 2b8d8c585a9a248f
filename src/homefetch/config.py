"""Run configuration: typed defaults, JSON file loading, CLI overrides.

The config file is a single JSON object.  Unknown keys are hard errors that
name the offending key, because a silently ignored typo ("p_mis") would
change results without any visible signal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .agent import GROUNDERS, NoiseConfig, RELATIONAL, ScoreWeights
from .relations import RelationThresholds
from .taskgen import GenConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    sessions: int = 1
    grounder: str = RELATIONAL
    time_budget_s: float = 300.0
    workers: int = 1
    out: str | None = None
    paper_compat_counts: bool = False
    noise: NoiseConfig = NoiseConfig()
    gen: GenConfig = GenConfig(seed=0)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        if self.sessions < 1:
            raise ConfigError("sessions: must be >= 1")
        if self.grounder not in GROUNDERS:
            raise ConfigError(
                f"grounder: must be one of {', '.join(GROUNDERS)}")
        if self.time_budget_s < 0.0:
            raise ConfigError("time_budget_s: must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")


def _check(key: str, value, want: type):
    # bool is an int subclass; keep the two strictly apart.
    if want is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        return float(value) if ok else _bad(key, "a number")
    if want is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        return value if ok else _bad(key, "an integer")
    if want is bool:
        return value if isinstance(value, bool) else _bad(key, "a boolean")
    if want is str:
        return value if isinstance(value, str) else _bad(key, "a string")
    if want is dict:
        return value if isinstance(value, dict) else _bad(key, "an object")
    raise AssertionError(want)


def _bad(key: str, expected: str):
    raise ConfigError(f"{key}: must be {expected}")


_NOISE_KEYS = {"p_miss": float, "p_attr": float, "p_hallucinate": float}
_WEIGHT_KEYS = {"attribute": int, "relation": int}
_THRESHOLD_KEYS = {"near_m": float, "band_m": float, "min_bearing_rad": float}
_GEN_KEYS = {
    "layout_id": str, "objects_per_room": float, "min_objects": int,
    "max_objects": int, "distractor_guarantee": bool, "color_presence": float,
    "material_presence": float, "source_phrase_prob": float,
    "weights": dict, "thresholds": dict,
}
_TOP_KEYS = {
    "seed": int, "sessions": int, "grounder": str, "time_budget_s": float,
    "workers": int, "out": str, "paper_compat_counts": bool,
    "noise": dict, "gen": dict,
}


def _parse_section(data: dict, allowed: dict, prefix: str) -> dict:
    out = {}
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in allowed:
            raise ConfigError(f"unknown config key: {path}")
        out[key] = _check(path, value, allowed[key])
    return out


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: must be a JSON object")
    top = _parse_section(data, _TOP_KEYS, "")
    try:
        noise = NoiseConfig(**_parse_section(top.pop("noise", {}), _NOISE_KEYS,
                                             "noise"))
    except ValueError as e:
        raise ConfigError(f"noise: {e}") from e
    gen_data = _parse_section(top.pop("gen", {}), _GEN_KEYS, "gen")
    try:
        if "weights" in gen_data:
            gen_data["weights"] = ScoreWeights(
                **_parse_section(gen_data["weights"], _WEIGHT_KEYS,
                                 "gen.weights"))
        if "thresholds" in gen_data:
            gen_data["thresholds"] = RelationThresholds(
                **_parse_section(gen_data["thresholds"], _THRESHOLD_KEYS,
                                 "gen.thresholds"))
        gen = GenConfig(seed=0, **gen_data)
    except ValueError as e:
        raise ConfigError(f"gen: {e}") from e
    return RunConfig(noise=noise, gen=gen, **top)


def load_config(path) -> RunConfig:
    try:
        text = open(path, "r", encoding="utf-8").read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    return config_from_dict(data)


def apply_overrides(cfg: RunConfig, *, seed=None, sessions=None, grounder=None,
                    p_miss=None, p_attr=None, time_budget=None, workers=None,
                    out=None, paper_compat_counts=None) -> RunConfig:
    """Fold CLI flags over a loaded config; every flag wins over its key."""
    noise = cfg.noise
    if p_miss is not None or p_attr is not None:
        try:
            noise = NoiseConfig(
                p_miss=noise.p_miss if p_miss is None else p_miss,
                p_attr=noise.p_attr if p_attr is None else p_attr,
                p_hallucinate=noise.p_hallucinate)
        except ValueError as e:
            raise ConfigError(f"noise: {e}") from e
    return RunConfig(
        seed=cfg.seed if seed is None else seed,
        sessions=cfg.sessions if sessions is None else sessions,
        grounder=cfg.grounder if grounder is None else grounder,
        time_budget_s=(cfg.time_budget_s if time_budget is None
                       else float(time_budget)),
        workers=cfg.workers if workers is None else workers,
        out=cfg.out if out is None else out,
        paper_compat_counts=(cfg.paper_compat_counts
                             if paper_compat_counts is None
                             else paper_compat_counts),
        noise=noise, gen=cfg.gen)


def config_echo(cfg: RunConfig) -> dict:
    """The session-relevant slice of the config, as logged and replayed.

    Presentation settings (sessions, workers, out, compat formatting) do not
    influence a session's events and are deliberately absent.
    """
    return {
        "grounder": cfg.grounder,
        "time_budget_s": cfg.time_budget_s,
        "noise": {"p_miss": cfg.noise.p_miss, "p_attr": cfg.noise.p_attr,
                  "p_hallucinate": cfg.noise.p_hallucinate},
        "gen": {
            "layout_id": cfg.gen.layout_id,
            "objects_per_room": cfg.gen.objects_per_room,
            "min_objects": cfg.gen.min_objects,
            "max_objects": cfg.gen.max_objects,
            "distractor_guarantee": cfg.gen.distractor_guarantee,
            "color_presence": cfg.gen.color_presence,
            "material_presence": cfg.gen.material_presence,
            "source_phrase_prob": cfg.gen.source_phrase_prob,
            "weights": {"attribute": cfg.gen.weights.attribute,
                        "relation": cfg.gen.weights.relation},
            "thresholds": {"near_m": cfg.gen.thresholds.near_m,
                           "band_m": cfg.gen.thresholds.band_m,
                           "min_bearing_rad": cfg.gen.thresholds.min_bearing_rad},
        },
    }


def config_from_echo(echo: dict) -> RunConfig:
    """Rebuild a runnable config from a logged echo (replay path)."""
    if not isinstance(echo, dict):
        raise ConfigError("config echo: must be an object")
    data = dict(echo)
    gen = dict(data.get("gen", {}))
    data["gen"] = gen
    return config_from_dict(data)
