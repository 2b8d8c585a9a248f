"""The config dataclasses are the schema: docs and the reader follow them."""
import json
import math
from dataclasses import asdict
from pathlib import Path

from hypothesis import given, settings, strategies as st

from homefetch.cli import build_parser
from homefetch.config import (
    _SCHEMA, ConfigError, RunConfig, config_echo, config_from_dict,
    config_from_echo,
)
from homefetch.eventlog import canonical_json

DOC = Path(__file__).resolve().parent.parent / "docs" / "config.md"


def _file_defaults() -> dict:
    """Every file key with its default, nested like the file."""
    return asdict(RunConfig())


def _doc_tables() -> dict[str, dict[str, str]]:
    """Heading (up to its colon) -> {key: default cell} of its key table."""
    tables = {}
    for section in DOC.read_text(encoding="utf-8").split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        rows = [line.split("|")[1:-1] for line in body.splitlines()
                if line.startswith("| `")]
        if rows:
            tables[heading.split(":")[0]] = {
                cells[0].strip().strip("`"): cells[2].strip().strip("`")
                for cells in rows}
    return tables


def test_doc_tables_list_exactly_the_fields_and_defaults():
    defaults = _file_defaults()
    tables = _doc_tables()
    sections = {"Top level": defaults, "`noise`": defaults["noise"],
                "`gen`": defaults["gen"]}
    assert set(tables) == set(sections)
    for heading, want in sections.items():
        assert set(tables[heading]) == set(want), heading
        for key, cell in tables[heading].items():
            if cell == "see below":
                assert f"`{key}`" in tables, key
            else:
                assert json.loads(cell) == want[key], f"{heading} {key}"


def _field_names(section: dict) -> set[str]:
    names = set(section)
    for value in section.values():
        if isinstance(value, dict):
            names |= _field_names(value)
    return names


def _shaped(default):
    """Objects shaped like the schema, each value in range or, for a
    number, not finite; `_json` below supplies the wrong types."""
    if isinstance(default, dict):
        return st.fixed_dictionaries(
            {}, optional={k: _shaped(v) for k, v in default.items()})
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(1, 8)
    if isinstance(default, float):
        return st.floats(0.0, 1.0) | st.sampled_from([math.nan, math.inf, -math.inf])
    return st.text(max_size=8) if default is None else st.just(default)


# Any JSON value, with keys mostly real field names so that objects get
# past the unknown-key check and reach the type checks.
_keys = st.sampled_from(sorted(_field_names(_file_defaults()))) | st.text(max_size=4)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_keys, inner, max_size=5),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_shaped(_file_defaults()) | _json)
def test_reader_accepts_or_raises_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    logged = canonical_json(config_echo(cfg))
    back = config_from_echo(json.loads(logged))
    assert canonical_json(config_echo(back)) == logged


def test_every_flag_is_named_by_its_config_key():
    for command in ("run", "generate"):
        dests = set(vars(build_parser().parse_args([command])))
        for key in dests - {"command", "fn", "config"}:
            node = _SCHEMA
            for part in key.split("."):
                assert isinstance(node, dict) and part in node, (command, key)
                node = node[part]
            assert not isinstance(node, dict), (command, key)
