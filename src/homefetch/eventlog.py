"""Canonical JSON-lines event logs: writing, strict reading, framing.

Every record serializes through `canonical_json`, so two runs that produce
equal Python values produce byte-equal log lines.  That is the contract the
replay checker and the determinism tests lean on.  `read_events` loads a
log as strictly as it is written, and `split_sessions` frames it into
sessions; both `report` and `replay` read every log through the two.  The
table form below states the shape of every record that is read back (a log
event, an episode), and `problems` checks a record against its table.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable


class SchemaError(ValueError):
    """A log or record that does not have the expected shape."""


# --- record tables -----------------------------------------------------------
# A table maps each field of a JSON object to its spec: a tuple of exact leaf
# types, checked with `type(v) in spec` so that a bool is never a number; a
# nested table; `[spec]`, a list of any length of it; or a longer list, one
# spec per place.  A tuple may also hold one table or list, as in
# `(NULL, table)`, and `Missing` among its types makes a field optional.

class Missing:
    """The type of an absent field."""


NULL = type(None)
STR, INT, BOOL, NUMBER = (str,), (int,), (bool,), (int, float)
_NAMES = {NULL: "null", bool: "boolean", int: "integer", float: "number",
          str: "string", dict: "object", list: "list", Missing: "absent"}
_MISSING = Missing()


def problems(value, spec, where: str) -> list[str]:
    """The problems of `value` against `spec`, each naming its path from
    `where`; empty when it conforms.  A message is built only on failure."""
    out: list[str] = []
    _walk(value, spec, (where,), out)
    return out


def _walk(value, spec, path: tuple, out: list) -> None:
    # `path` is a (parent path, key) chain, spelled out only for a problem.
    if type(spec) is tuple:
        if type(value) in spec:
            return
        spec = next((s for s in spec if type(s) is type(value)), spec)
    if type(spec) is tuple or type(value) is not type(spec):
        out.append(_at(path, "missing" if value is _MISSING
                       else "not " + _kinds(spec)))
    elif type(spec) is list and len(spec) > 1 and len(value) != len(spec):
        out.append(_at(path, f"not of length {len(spec)}"))
    elif type(spec) is list:
        for i, v in enumerate(value):
            sub = spec[i if len(spec) > 1 else 0]
            if type(sub) is not tuple or type(v) not in sub:
                _walk(v, sub, (path, i), out)
    else:
        for key, sub in spec.items():
            v = value.get(key, _MISSING)
            if type(sub) is not tuple or type(v) not in sub:
                _walk(v, sub, (path, key), out)
        if not value.keys() <= spec.keys():
            out += [_at((path, k), "unknown field") for k in value
                    if k not in spec]


def _kinds(spec) -> str:
    """The kinds of value `spec` admits; "number" covers the integers."""
    kinds = spec if type(spec) is tuple else (spec,)
    return " or ".join(_NAMES[k if type(k) is type else type(k)]
                       for k in kinds if k is not int or float not in kinds)


def _at(path: tuple, problem: str) -> str:
    keys = []
    while len(path) == 2:
        path, key = path
        keys.append(f"[{key}]" if type(key) is int else f".{key}")
    return f"{path[0]}{''.join(reversed(keys))}: {problem}"


def canonical_json(obj) -> str:
    """Canonical one-line encoding: sorted keys, tight separators, ASCII.

    NaN/Infinity are rejected rather than silently emitted, since they
    would not round-trip through strict JSON readers.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def canonical_join(fields: dict[str, str]) -> str:
    """`canonical_json` of an object whose fields are given already
    encoded: `canonical_join({k: canonical_json(v)})` equals
    `canonical_json({k: v})`, since the encoding of an object is its
    fields' encodings joined in sorted key order."""
    return "{" + ",".join(f"{canonical_json(k)}:{fields[k]}"
                          for k in sorted(fields)) + "}"


def digest16(obj) -> str:
    """Short stable digest of a record, for summarizing bulky payloads."""
    return text_digest16(canonical_json(obj))


def text_digest16(text: str) -> str:
    """`digest16` of the record whose canonical encoding is `text`."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def write_events(path, events: Iterable[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for e in events:
            fh.write(canonical_json(e))
            fh.write("\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


# NaN, Infinity and overflowing literals such as 1e999 all land in _finite.
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def read_events(path) -> list[dict]:
    """Load a log as strictly as `canonical_json` writes one.

    Every non-blank line must be ASCII and hold one JSON object without
    NaN, Infinity or a number that overflows a float; anything else raises
    SchemaError naming the line.
    """
    out: list[dict] = []
    # surrogateescape keeps a stray byte readable, so the line can be named.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            if not line.isascii():
                raise SchemaError(f"{where}: non-ASCII byte")
            try:
                rec = _DECODER.decode(line)
            except ValueError as e:  # JSONDecodeError, or a non-finite number
                raise SchemaError(f"{where}: invalid JSON: {e}") from e
            if not isinstance(rec, dict):
                raise SchemaError(f"{where}: not a JSON object")
            out.append(rec)
    return out


def split_sessions(events: list) -> list[list[dict]]:
    """Frame a loaded log into its sessions, in log order.

    Every record must be an object with a non-empty string `event` and an
    integer `session`, and must lie inside one session: the records from a
    `session_start` up to and including the next `session_end`.  The first
    record that breaks either rule raises SchemaError naming its number.
    """
    sessions: list[list[dict]] = []
    for i, e in enumerate(events, 1):
        name = e.get("event") if isinstance(e, dict) else None
        if not (isinstance(name, str) and name and type(e.get("session")) is int):
            raise SchemaError(f"record {i}: not an object with a non-empty "
                              f"string 'event' and an integer 'session'")
        closed = not sessions or sessions[-1][-1]["event"] == "session_end"
        if name == "session_start" and not closed:
            raise SchemaError(f"record {i}: session_start inside an open session")
        if name != "session_start" and closed:
            gap = "after session_end" if sessions else "before any session_start"
            raise SchemaError(f"record {i}: {name} {gap}")
        if closed:
            sessions.append([])
        sessions[-1].append(e)
    if sessions and sessions[-1][-1]["event"] != "session_end":
        raise SchemaError("log truncated: the last session has no session_end")
    return sessions
