"""Canonical JSON-lines event logs.

Every record serializes through `canonical_json`, so two runs that produce
equal Python values produce byte-equal log lines.  That is the contract the
replay checker and the determinism tests lean on.
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


def validate_events(events: list) -> list[str]:
    """Structural check of a loaded log; returns violations (empty == ok)."""
    issues: list[str] = []
    for i, e in enumerate(events, 1):
        if not isinstance(e, dict):
            issues.append(f"record {i}: not a JSON object")
            continue
        name = e.get("event")
        if not isinstance(name, str) or not name:
            issues.append(f"record {i}: missing or empty 'event'")
        if not isinstance(e.get("session"), int):
            issues.append(f"record {i}: missing integer 'session'")
    return issues
