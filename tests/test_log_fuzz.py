"""`report` and `replay` on malformed logs: a contract exit code, never a crash.

Logs are short lists of JSON objects.  Most are events of one real session
with some values, at any depth, swapped for arbitrary ones, so the readers
get past the JSON layer into the checks behind it; the rest are objects
built from the real event names and keys.  A second family is sessions
in the shape `run` writes, near the gated order, so that `report` accepts
some of those logs and each accepted one can be checked for gated counts.
"""
import contextlib
import io
import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import session_events
from homefetch.agent import GROUNDERS
from homefetch.cli import main
from homefetch.config import RunConfig
from homefetch.session import SUBTASKS, run_session

EXIT_CODES = {0, 2, 3, 4, 5, 6}


def _keys(tree) -> set[str]:
    """Every object key in a JSON tree."""
    if isinstance(tree, dict):
        return set(tree).union(*map(_keys, tree.values()))
    if isinstance(tree, list):
        return set().union(*map(_keys, tree))
    return set()


_EVENTS = run_session(7, RunConfig(seed=7), 0).events
EVENT_NAMES = sorted({e["event"] for e in _EVENTS})
KEYS = sorted(_keys(_EVENTS))
WORDS = EVENT_NAMES + list(SUBTASKS) + list(GROUNDERS) + ["default"]

leaves = (st.none() | st.booleans() | st.integers(-2, 10) | st.floats()
          | st.sampled_from(WORDS) | st.text(max_size=4))
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=8)


def _mutated(tree, required=()):
    """`tree` with some subtrees replaced by arbitrary values or dropped
    from their object, unless their key is `required`."""
    if isinstance(tree, dict):
        kept = st.fixed_dictionaries(
            {k: _mutated(v) for k, v in tree.items() if k in required},
            optional={k: _mutated(v) for k, v in tree.items()
                      if k not in required})
    else:
        kept = st.just(tree)
    # One node in eight is replaced, so whole configs sometimes survive.
    return st.integers(0, 7).flatmap(lambda i: values if i == 0 else kept)


# Keys a replay needs, kept so that it sometimes gets as far as a session.
REQUIRED = ("event", "session", "seed", "config")
real_events = {e["event"]: _mutated(e, REQUIRED) for e in _EVENTS}
built_events = st.builds(
    lambda name, session, rest: {"event": name, "session": session, **rest},
    st.sampled_from(EVENT_NAMES) | values,
    st.integers(0, 2) | values,
    st.dictionaries(st.sampled_from(KEYS), values, max_size=4))
# A log opens with a session and most close one; a replay gets no further
# without both.
logs = st.builds(
    lambda head, body, tail: [head, *body, *tail],
    real_events["session_start"],
    st.lists(st.one_of(*real_events.values()) | built_events, max_size=3),
    st.lists(real_events["session_end"], max_size=1))


def _write(tmp_path, log):
    path = tmp_path / "fuzz.jsonl"
    # json.dumps writes NaN and Infinity, which the reader must refuse.
    path.write_text("".join(json.dumps(e) + "\n" for e in log),
                    encoding="ascii")
    return path


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=logs)
def test_malformed_logs_exit_by_contract(tmp_path, log):
    path = _write(tmp_path, log)
    for command in ("report", "replay"):
        rc, _, err = _main([command, str(path)])
        assert rc in EXIT_CODES, (command, rc)
        if rc != 0:
            assert err.count("\n") == 1, (command, err)


def _session(index, label, abstained, verdicts, extra):
    """One session in the shape `run` writes: the gated stage ends of
    `verdicts`, up to the first failure, then the `extra` ends, which may
    break the gating."""
    ends = []
    for sub, ok in zip(SUBTASKS, verdicts):
        ends.append((sub, True, ok))
        if not ok:
            break
    return session_events(index, label, ends + extra, abstained)


stage_ends = st.lists(st.tuples(st.sampled_from(SUBTASKS), st.booleans(),
                                st.booleans() | st.just("no")), max_size=1)
tally_logs = st.lists(
    st.tuples(st.sampled_from(GROUNDERS), st.booleans(),
              st.lists(st.booleans(), max_size=4), stage_ends),
    max_size=4).map(lambda sessions: [e for i, s in enumerate(sessions)
                                      for e in _session(i, *s)])
_CELL = re.compile(r"\((\d+)/(\d+)\)")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=tally_logs | logs)
def test_accepted_logs_have_gated_counts(tmp_path, log):
    """Per label, no stage after Navigation has more attempts than the
    stage before it has successes, with or without the compat count; the
    compat count changes the counts, never which logs are accepted."""
    path = _write(tmp_path, log)
    codes = set()
    for compat in ([], ["--paper-compat-counts"]):
        rc, out, err = _main(["report", str(path), *compat])
        codes.add(rc)
        if rc != 0:
            assert rc == 5 and err.count("\n") == 1, (rc, err)
            continue
        for row in out.splitlines():
            cells = [tuple(map(int, m)) for m in _CELL.findall(row)]
            for (succeeded, _), (_, attempts) in zip(cells, cells[1:]):
                assert attempts <= succeeded, (compat, row)
    assert len(codes) == 1, codes
