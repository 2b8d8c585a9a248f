"""Session orchestration: the gated pipeline, termination, tallies, replay.

One session = generate, then Navigation -> OLR -> Fetching -> Carrying with
strict gating (each stage runs only after the previous one succeeded and
while budget is left), then a single termination verdict.  Everything
observable is appended to a structured event list whose canonical JSON
serialization is the unit of determinism: replay re-runs the session from
the logged seed and compares line by line.

Both readers take a log's sessions from `eventlog.split_sessions` and each
session's config from `logged_config`.  The report also checks every record
against its row of `EVENTS` and counts each session with `session_tally`;
replay leaves every other value to the event-by-event comparison.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from operator import add

from .agent import (
    ORACLE, carry, crawl, detect, emit_event, fetch, ground,
    navigate_to_room,
)
from .config import RunConfig, config_echo, config_from_echo, ConfigError
from .eventlog import (
    BOOL, INT, NULL, NUMBER, STR, Missing, SchemaError, canonical_json,
    digest16, problems, read_events, split_sessions,
)
from .language import parse
from .seeds import KeyedStream, h64
from .taskgen import capture_record, generate_task
from .world import env_record, snapshot_record

NAVIGATION = "Navigation"
OLR = "OLR"
FETCHING = "Fetching"
CARRYING = "Carrying"
SUBTASKS = (NAVIGATION, OLR, FETCHING, CARRYING)

TIME_ELAPSED = "TimeElapsed"
TASK_COMPLETED = "TaskCompleted"
SUBTASK_FAILED = "SubtaskFailed"

# One row per event kind (docs/episode-log.md), the common fields included;
# `report` checks every record it reads against its row.
_XY = [NUMBER, NUMBER]
EVENTS = {name: {"event": STR, "session": INT, "clock_s": NUMBER, **row}
          for name, row in {
    "session_start": {"seed": INT, "session_seed": INT, "config": (dict,)},
    "scene": {"layout": STR, "objects": INT, "digest": STR},
    "task": dict.fromkeys(("target", "destination", "room", "text"), STR),
    "subtask_start": {"subtask": STR},
    "path": {"purpose": STR, "waypoints": [_XY], "length_m": NUMBER},
    "dock": {"frm": _XY, "to": _XY},
    "olr": {"captures": INT, "digest": STR, "target": (str, NULL),
            "destination": (str, NULL), "target_capture": (int, NULL),
            "destination_capture": (int, NULL),
            "abstained": BOOL, "correct": BOOL},
    "grasp": {"object": STR, "ok": BOOL, "reason": (str, Missing)},
    "place": {"surface": STR, "ok": BOOL, "xy": (Missing, _XY),
              "reason": (str, Missing)},
    "subtask_end": {"subtask": STR, "attempted": BOOL, "succeeded": BOOL,
                    "sim_time_s": NUMBER},
    "termination": {"kind": STR, "subtask": (str, NULL)},
    "session_end": {"duration_s": NUMBER, "collisions": INT},
}.items()}


class MismatchDetected(Exception):
    """Replay diverged from the log; carries the first differing event."""

    def __init__(self, index: int, expected, actual):
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(f"event {index} diverged: logged {expected}; "
                         f"replayed {actual}")


@dataclass
class SessionRecord:
    """A session is its event log; `trace` is the pose after every tick."""
    events: list[dict]
    trace: list | None = None


def run_session(seed: int, cfg: RunConfig, session_index: int = 0) -> SessionRecord:
    """One full generate-execute-evaluate cycle on a fresh environment."""
    session_seed = h64("session", seed, session_index)
    env, task = generate_task(cfg.gen, session_seed)
    env.trace = []
    # The agent appends its own events here; every event gets its session
    # index once the session is over.
    events: list[dict] = []
    emit = partial(emit_event, events, env)

    emit("session_start", seed=seed, session_seed=session_seed,
         config=config_echo(cfg))
    emit("scene", layout=env.layout.id, objects=len(env.objects),
         digest=digest16(env_record(env)))
    emit("task", target=task.target, destination=task.destination,
         room=task.room, text=task.text)

    budget = cfg.time_budget_s
    grounding = None

    def olr() -> bool:
        nonlocal grounding
        captures = crawl(env, task.lattice, budget, events)
        stream = KeyedStream("noise", session_seed)
        detections = [detect(c, i, cfg.noise, stream)
                      for i, c in enumerate(captures)]
        ast = parse(task.text)
        truth = (task.target, task.destination) if cfg.grounder == ORACLE else None
        grounding = ground(ast, captures, detections, cfg.grounder,
                           cfg.gen.weights, cfg.gen.thresholds, truth)
        tgt, dst = grounding.target, grounding.destination
        correct = (grounding.resolved and tgt.id == task.target
                   and dst.id == task.destination)
        emit("olr", captures=len(captures),
             digest=digest16({
                 "captures": [capture_record(c) for c in captures],
                 "detections": [[{**snapshot_record(d), "capture": ci}
                                 for d in ds]
                                for ci, ds in enumerate(detections)]}),
             target=tgt.id if tgt else None,
             destination=dst.id if dst else None,
             target_capture=tgt.capture if tgt else None,
             destination_capture=dst.capture if dst else None,
             abstained=not grounding.resolved, correct=correct)
        return correct

    stages = (
        (NAVIGATION, lambda: navigate_to_room(env, task.room, budget, events)),
        (OLR, olr),
        (FETCHING, lambda: fetch(env, grounding.target, task, budget, events)),
        (CARRYING, lambda: carry(env, grounding.destination, task, budget,
                                 events)),
    )
    # The loop is the verdict.  A stage starts only while budget is left, a
    # failed stage ends the session, and a session whose every stage
    # succeeded is complete, even when Carrying overran the budget.
    kind, failed = TIME_ELAPSED, None
    for name, stage in stages:
        if env.clock >= budget:
            break
        emit("subtask_start", subtask=name)
        t0 = env.clock
        ok = stage()
        emit("subtask_end", subtask=name, attempted=True, succeeded=ok,
             sim_time_s=round(env.clock - t0, 6))
        if not ok:
            kind, failed = SUBTASK_FAILED, name
            break
    else:
        kind = TASK_COMPLETED
    emit("termination", kind=kind, subtask=failed)
    emit("session_end", duration_s=round(env.clock, 6),
         collisions=env.collisions)
    for e in events:
        e["session"] = session_index

    return SessionRecord(events, env.trace)


def run_batch(cfg: RunConfig) -> list[SessionRecord]:
    """All sessions of a config, merged back into seed order.

    With `workers > 1` the pool never exceeds the session count or the CPU
    count, and is used even when that leaves one worker.
    """
    if cfg.workers <= 1:
        return [run_session(cfg.seed, cfg, i) for i in range(cfg.sessions)]
    size = min(cfg.workers, cfg.sessions, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(partial(run_session, cfg.seed, cfg),
                             range(cfg.sessions)))


# --- aggregation and reporting ------------------------------------------------

@dataclass(frozen=True)
class Tally:
    """Attempt/success counts per subtask; the default is the zero tally."""
    attempts: tuple[int, int, int, int] = (0, 0, 0, 0)  # order: SUBTASKS
    successes: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(tuple(map(add, self.attempts, other.attempts)),
                     tuple(map(add, self.successes, other.successes)))


def aggregate(records: list[SessionRecord],
              abstain_as_unattempted: bool = False) -> Tally:
    """Attempt/success counts per subtask, summed over the records' sessions.

    With `abstain_as_unattempted`, an OLR round that abstained is dropped
    from the attempt count, so a grounder that always abstains reports
    0 attempts instead of 0% of the batch.
    """
    return sum((session_tally(r.events, abstain_as_unattempted)
                for r in records), Tally())


def _cell(successes: int, attempts: int) -> str:
    if attempts == 0:
        return "0 (0/0)"
    text = f"{100.0 * successes / attempts:.1f}".removesuffix(".0")
    return f"{text} ({successes}/{attempts})"


def format_cells(tally: Tally) -> tuple[str, str, str, str]:
    return tuple(_cell(s, a) for s, a in zip(tally.successes, tally.attempts))


def format_report(label: str, tally: Tally) -> str:
    """One table row; with an empty label, exactly the four joined cells."""
    row = " | ".join(format_cells(tally))
    return f"{label} | {row}" if label else row


def session_tally(events: list[dict], abstain_as_unattempted: bool = False,
                  ) -> Tally:
    """The tally of one framed session whose records fit `EVENTS`.

    The session must be in the order `run` writes: `scene` and `task`
    right after `session_start`, and one `termination` right before
    `session_end`.  Every record must carry the `session` index of the
    `session_start`.  The attempted stages must end in `SUBTASKS` order,
    each at most once and none after a failed one; an OLR whose `olr`
    event abstained must not succeed; and the termination must agree with
    the stage ends.  A session that breaks a rule raises SchemaError.  A
    `subtask_end` whose `attempted` is false is skipped.
    """
    index, term = events[0]["session"], events[-2]
    where = f"session {index}"
    if [e["event"] for e in events[1:3]] != ["scene", "task"]:
        raise SchemaError(f"{where}: scene and task do not follow session_start")
    if (term["event"] != "termination"
            or sum(e["event"] == "termination" for e in events) != 1):
        raise SchemaError(f"{where}: not one termination, right before "
                          f"session_end")
    attempts, successes = [0, 0, 0, 0], [0, 0, 0, 0]
    ended, failed, abstained = 0, False, False  # ended: stages ended so far
    for k, e in enumerate(events, 1):
        if e["session"] != index:
            raise SchemaError(f"{where}: its record {k} ({e['event']}) "
                              f"carries session index {e['session']}")
        if e["event"] == "olr":
            abstained = e["abstained"]
        if e["event"] != "subtask_end" or not e["attempted"]:
            continue
        sub, ok = e["subtask"], e["succeeded"]
        if sub not in SUBTASKS:
            raise SchemaError(f"{where}: unknown subtask {sub!r}")
        i = SUBTASKS.index(sub)
        if i != ended or failed:
            rule = ("ends twice" if i < ended else
                    f"ends before {SUBTASKS[ended]} ends" if i > ended else
                    f"ends after {SUBTASKS[i - 1]} failed")
            raise SchemaError(f"{where}: {sub} {rule}")
        if sub == OLR and abstained and ok:
            raise SchemaError(f"{where}: OLR succeeds though its olr event abstained")
        ended, failed = i + 1, not ok
        if not (abstain_as_unattempted and sub == OLR and abstained):
            attempts[i] += 1
            successes[i] += ok
    want = ((SUBTASK_FAILED, SUBTASKS[ended - 1]) if failed else
            (TASK_COMPLETED, None) if ended == len(SUBTASKS) else
            (TIME_ELAPSED, None))
    if (term["kind"], term["subtask"]) != want:
        raise SchemaError(f"{where}: termination {term['kind']} "
                          f"{term['subtask']} disagrees with the stage ends, "
                          f"which give {want[0]} {want[1]}")
    return Tally(tuple(attempts), tuple(successes))


def logged_config(head: dict) -> RunConfig:
    """The config of a `session_start` record, checked as `run` checks its
    own: the config echo, and the master seed (64-bit unsigned)."""
    try:
        return replace(config_from_echo(head.get("config")),
                       seed=head.get("seed"))
    except ConfigError as e:
        raise SchemaError(f"session_start config: {e}") from e


def tallies_from_events(events: list[dict],
                        abstain_as_unattempted: bool = False,
                        ) -> dict[str, Tally]:
    """Frame a loaded event log, check each record against its row of
    `EVENTS` and each session's config, and sum the session tallies per
    grounder label."""
    out: dict[str, Tally] = {}
    for session in split_sessions(events):
        where = f"session {session[0]['session']}"
        for k, e in enumerate(session, 1):
            row = EVENTS.get(e["event"])
            bad = (problems(e, row, e["event"]) if row
                   else [f"unknown event {e['event']!r}"])
            if bad:
                raise SchemaError(f"{where}: record {k}: {bad[0]}")
        try:
            label = logged_config(session[0]).grounder
        except SchemaError as e:
            raise SchemaError(f"{where}: {e}") from e
        out[label] = (out.get(label, Tally())
                      + session_tally(session, abstain_as_unattempted))
    return out


# --- replay -------------------------------------------------------------------

def replay(events: list[dict]) -> SessionRecord:
    """Re-run one session from its logged head and demand identical events."""
    if len(split_sessions(events)) != 1:
        raise SchemaError("replay takes exactly one session")
    cfg = logged_config(events[0])
    fresh = run_session(cfg.seed, cfg, events[0]["session"])
    for i, (a, b) in enumerate(zip_longest(events, fresh.events)):
        if a is None or b is None or canonical_json(a) != canonical_json(b):
            raise MismatchDetected(i, a, b)
    return fresh


def replay_log(path) -> int:
    """Replay every session in a log file; returns how many were verified."""
    sessions = split_sessions(read_events(path))
    if not sessions:
        raise SchemaError("empty log")
    for events in sessions:
        replay(events)
    return len(sessions)
