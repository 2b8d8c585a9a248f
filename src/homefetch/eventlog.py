"""Canonical JSON-lines event logs: writing, strict reading, framing.

Every record serializes through `canonical_json`, so two runs that produce
equal Python values produce byte-equal log lines.  That is the contract the
replay checker and the determinism tests lean on.  `read_events` loads a
log as strictly as it is written, and `split_sessions` frames it into
sessions; both `report` and `replay` read every log through the two.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable


class SchemaError(ValueError):
    """A log or record that does not have the expected shape."""


def canonical_json(obj) -> str:
    """Canonical one-line encoding: sorted keys, tight separators, ASCII.

    NaN/Infinity are rejected rather than silently emitted, since they
    would not round-trip through strict JSON readers.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def digest16(obj) -> str:
    """Short stable digest of a record, for summarizing bulky payloads."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()[:16]


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
