"""Run configuration: typed defaults, JSON file loading, CLI overrides.

The config file is a single JSON object.  Unknown keys are hard errors that
name the offending key, because a silently ignored typo ("p_mis") would
change results without any visible signal.  The dataclasses are the schema:
a key is a field name, its type is the field's annotation, and a field
holding a dataclass is a nested object.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import get_args, get_type_hints

from .agent import GROUNDERS, NoiseConfig, RELATIONAL
from .eventlog import BOOL, INT, NUMBER, STR
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
    gen: GenConfig = GenConfig()

    def __post_init__(self) -> None:
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
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


def _schema(cls) -> dict:
    """Field name -> type, or -> nested schema where the field is a dataclass."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        # `str | None` reads as str: a file gives a string or omits the key.
        want = next((a for a in get_args(hints[f.name]) if a is not type(None)),
                    hints[f.name])
        out[f.name] = _schema(want) if is_dataclass(want) else want
    return out


# Resolved once: evaluating type hints costs more than reading a whole echo,
# and replay reads one echo per session.
_SCHEMA = _schema(RunConfig)
# The master seed is logged on its own; batching and formatting settings
# never reach a session's events.
_NOT_ECHOED = ("seed", "sessions", "workers", "out", "paper_compat_counts")


# Each annotation's leaf types, under the rule of the record tables, and
# what a value of the wrong type is told it must be.
_LEAVES = {float: (NUMBER, "a number"), int: (INT, "an integer"),
           bool: (BOOL, "a boolean"), str: (STR, "a string")}


def _check(key: str, value, want: type):
    types, expected = _LEAVES[want]
    if type(value) not in types:
        return _bad(key, expected)
    # NaN fails every comparison; an int past the float range has no float.
    if want is float and not abs(value) <= sys.float_info.max:
        return _bad(key, "a finite number")
    return float(value) if want is float else value


def _bad(key: str, expected: str):
    raise ConfigError(f"{key}: must be {expected}")


def _merge(base, data, schema: dict, path: str):
    """`base` with each key of the object `data` type-checked and set."""
    if not isinstance(data, dict):
        return _bad(path, "an object")
    changes = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        want = schema[key]
        if isinstance(want, dict):
            changes[key] = _merge(getattr(base, key), value, want, where)
        else:
            changes[key] = _check(where, value, want)
    try:
        return replace(base, **changes)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: must be a JSON object")
    return _merge(RunConfig(), data, _SCHEMA, "")


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8: {e}") from e
    try:
        data = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to read
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    return config_from_dict(data)


def apply_overrides(cfg: RunConfig, flags: dict) -> RunConfig:
    """Fold CLI flags over a loaded config; every flag wins over its key.

    Each flag is named by its config key, dotted below the top level
    (`noise.p_miss`).  None keeps the config's value.
    """
    data: dict = {}
    # Top-level keys first: of two bad flags, the top-level one is reported.
    for key in sorted(flags, key=lambda k: "." in k):
        if flags[key] is not None:
            head, _, rest = key.rpartition(".")
            (data.setdefault(head, {}) if head else data)[rest] = flags[key]
    return _merge(cfg, data, _SCHEMA, "")


def config_echo(cfg: RunConfig) -> dict:
    """The session-relevant slice of the config, as logged and replayed.

    Presentation settings (seed, sessions, workers, out, compat formatting)
    do not influence a session's events and are deliberately absent.
    """
    echo = asdict(cfg)
    for key in _NOT_ECHOED:
        del echo[key]
    return echo


# What `config_echo` writes: every key at every level, bar `_NOT_ECHOED`.
_ECHO_SCHEMA = {k: v for k, v in _SCHEMA.items() if k not in _NOT_ECHOED}


def _missing(data: dict, schema: dict, path: str) -> str | None:
    """The first key of `schema`, depth first, that `data` leaves out."""
    for key, want in schema.items():
        where = f"{path}.{key}" if path else key
        if key not in data:
            return where
        if isinstance(want, dict) and isinstance(data[key], dict):
            missing = _missing(data[key], want, where)
            if missing:
                return missing
    return None


def config_from_echo(echo: dict) -> RunConfig:
    """Rebuild a runnable config from a logged echo (replay path).

    The echo must hold every key `config_echo` writes: a key left out would
    take its default, which need not be what the session ran with.
    """
    if not isinstance(echo, dict):
        raise ConfigError("config echo: must be an object")
    cfg = config_from_dict(echo)
    missing = _missing(echo, _ECHO_SCHEMA, "")
    if missing:
        raise ConfigError(f"{missing}: missing from the echo")
    return cfg
