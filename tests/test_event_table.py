"""Every event the program emits has a row in `session.EVENTS`, and every
row is emitted.

The emitters are `emit("name", ...)` in `session.py` (a partial of
`emit_event`) and `emit_event(events, env, "name", ...)` in `agent.py`,
`_emit_path` included.  A call's keyword fields must be fields of its row.
The sources are read, not imported, so a new emitter cannot hide behind a
code path no test runs.
"""
import ast
from pathlib import Path

from homefetch.session import EVENTS

SRC = Path(__file__).resolve().parent.parent / "src" / "homefetch"
# Callee -> the position of the event name among its arguments.
EMITTERS = {"emit": 0, "emit_event": 2}


def _emit_calls() -> list[tuple[str, ast.Call]]:
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in EMITTERS]
    return calls


CALLS = _emit_calls()


def test_every_call_names_its_event():
    assert {name for name, _ in CALLS} == {"agent.py", "session.py"}
    for name, call in CALLS:
        arg = call.args[EMITTERS[call.func.id]]
        assert isinstance(arg, ast.Constant) and isinstance(arg.value, str), \
            (name, call.lineno)


def test_every_emitted_event_has_a_row_and_every_row_is_emitted():
    emitted = {call.args[EMITTERS[call.func.id]].value for _, call in CALLS}
    assert emitted == set(EVENTS)


def test_every_emitted_field_is_in_its_row():
    for name, call in CALLS:
        event = call.args[EMITTERS[call.func.id]].value
        for kw in call.keywords:
            assert kw.arg in EVENTS[event], (name, call.lineno, event, kw.arg)
