import hashlib
import math

import pytest

from homefetch.eventlog import (
    SchemaError,
    canonical_json,
    digest16,
    read_events,
    split_sessions,
    write_events,
)


class TestCanonicalJson:
    def test_frozen_bytes(self):
        assert canonical_json({"b": 1, "a": [1.5, "ü"]}) == \
            '{"a":[1.5,"\\u00fc"],"b":1}'
        assert canonical_json({"x": True, "y": None}) == '{"x":true,"y":null}'

    def test_key_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            canonical_json({"v": math.nan})
        with pytest.raises(ValueError):
            canonical_json({"v": math.inf})

    def test_ascii_only(self):
        canonical_json({"s": "naïve ☂"}).encode("ascii")


class TestDigest16:
    def test_frozen_value(self):
        assert digest16({"n": 1}) == "2bfd14f43d17fc7c"

    def test_matches_sha256_of_canonical(self):
        obj = {"k": [1, 2, 3]}
        want = hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
        assert digest16(obj) == want

    def test_sensitive_to_values(self):
        assert digest16({"n": 1}) != digest16({"n": 2})


class TestWriteRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            {"event": "session_start", "session": 0, "seed": 7},
            {"event": "session_end", "session": 0, "duration_s": 1.5},
        ]
        write_events(path, events)
        assert read_events(path) == events

    def test_byte_layout(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, [{"event": "x", "session": 0}])
        assert path.read_bytes() == b'{"event":"x","session":0}\n'

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event":"x","session":0}\n\n{"event":"y","session":0}\n')
        assert len(read_events(path)) == 2

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event":"x","session":0}\n{oops\n')
        with pytest.raises(SchemaError, match=r"bad\.jsonl:2: invalid JSON"):
            read_events(path)


def _ev(name, session=0):
    return {"event": name, "session": session}


class TestSplitSessions:
    def test_clean(self):
        log = [_ev("session_start"), _ev("task"), _ev("session_end"),
               _ev("session_start", 1), _ev("session_end", 1)]
        assert split_sessions(log) == [log[:3], log[3:]]
        assert split_sessions([]) == []

    def test_flags_shape_violations(self):
        for record in ["not a dict", {"session": 0}, {"event": "", "session": 0},
                       {"event": 3, "session": 0}, {"event": "x"},
                       {"event": "x", "session": "0"},
                       {"event": "x", "session": True},
                       {"event": "x", "session": 0.0}]:
            log = [_ev("session_start"), record, _ev("session_end")]
            with pytest.raises(SchemaError, match=r"^record 2: .*'session'"):
                split_sessions(log)

    def test_orphan_record(self):
        with pytest.raises(SchemaError,
                           match="record 1: task before any session_start"):
            split_sessions([_ev("task"), _ev("session_start"),
                            _ev("session_end")])
        with pytest.raises(SchemaError,
                           match="record 3: scene after session_end"):
            split_sessions([_ev("session_start"), _ev("session_end"),
                            _ev("scene")])

    def test_session_start_inside_an_open_session(self):
        with pytest.raises(SchemaError,
                           match="record 3: session_start inside an open"):
            split_sessions([_ev("session_start"), _ev("task"),
                            _ev("session_start", 1), _ev("session_end", 1)])

    def test_truncated_log(self):
        with pytest.raises(SchemaError, match="truncated"):
            split_sessions([_ev("session_start"), _ev("session_end"),
                            _ev("session_start", 1), _ev("task", 1)])
