"""Session orchestration: the gated pipeline, termination, tallies, replay.

One session = generate, then Navigation -> OLR -> Fetching -> Carrying with
strict gating (each stage runs only after the previous one succeeded and
while budget is left), then a single termination verdict.  Everything
observable is appended to a structured event list whose canonical JSON
serialization is the unit of determinism: replay re-runs the session from
the logged seed and compares line by line.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from operator import add

from .agent import (
    ORACLE, carry, crawl, detect, emit_event, fetch, ground,
    navigate_to_room,
)
from .config import RunConfig, config_echo, config_from_echo, ConfigError
from .eventlog import SchemaError, canonical_json, digest16, read_events, validate_events
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
    emit("scene", layout=env.layout_id, objects=len(env.objects),
         digest=digest16(env_record(env)))
    emit("task", target=task.target, destination=task.destination,
         room=task.room, text=task.text)

    budget = cfg.time_budget_s
    grounding = None

    def olr() -> bool:
        nonlocal grounding
        captures = crawl(env, task.room, budget, events)
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
    """Attempt/success counts per subtask, summed over the records' events.

    With `abstain_as_unattempted`, an OLR round that abstained is dropped
    from the attempt count, so a grounder that always abstains reports
    0 attempts instead of 0% of the batch.
    """
    per_label = tallies_from_events([e for r in records for e in r.events],
                                    abstain_as_unattempted)
    return sum(per_label.values(), Tally())


def _cell(successes: int, attempts: int) -> str:
    if attempts == 0:
        return "0 (0/0)"
    rate = 100.0 * successes / attempts
    text = f"{rate:.1f}"
    if text.endswith(".0"):
        text = text[:-2]
    return f"{text} ({successes}/{attempts})"


def format_cells(tally: Tally) -> tuple[str, str, str, str]:
    return tuple(_cell(s, a) for s, a in zip(tally.successes, tally.attempts))


def format_report(label: str, tally: Tally) -> str:
    """One table row; with an empty label, exactly the four joined cells."""
    row = " | ".join(format_cells(tally))
    return f"{label} | {row}" if label else row


def tallies_from_events(events: list[dict],
                        abstain_as_unattempted: bool = False,
                        ) -> dict[str, Tally]:
    """Aggregate a loaded event log into one Tally per method label."""
    raw: dict[str, tuple[list[int], list[int]]] = {}
    label = None
    abstained = False
    for e in events:
        name = e.get("event")
        if name == "session_start":
            cfg = e.get("config")
            label = cfg.get("grounder") if isinstance(cfg, dict) else None
            if not isinstance(label, str):
                raise SchemaError("session_start without a string config.grounder")
            abstained = False
            raw.setdefault(label, ([0, 0, 0, 0], [0, 0, 0, 0]))
        elif name == "olr":
            abstained = bool(e.get("abstained"))
        elif name == "subtask_end":
            if label is None:
                raise SchemaError("subtask_end before session_start")
            sub = e.get("subtask")
            if sub not in SUBTASKS:
                raise SchemaError(f"unknown subtask {sub!r}")
            if not e.get("attempted"):
                continue
            if abstain_as_unattempted and sub == OLR and abstained:
                continue
            i = SUBTASKS.index(sub)
            attempts, successes = raw[label]
            attempts[i] += 1
            if e.get("succeeded"):
                successes[i] += 1
    return {lab: Tally(tuple(a), tuple(s)) for lab, (a, s) in raw.items()}


# --- replay -------------------------------------------------------------------

def replay(events: list[dict]) -> SessionRecord:
    """Re-run one session from its logged head and demand identical events."""
    issues = validate_events(events)
    if issues:
        raise SchemaError("; ".join(issues[:5]))
    if not events or events[0].get("event") != "session_start":
        raise SchemaError("log must begin with session_start")
    if events[-1].get("event") != "session_end":
        raise SchemaError("log truncated: no session_end")
    head = events[0]
    seed = head.get("seed")
    if not isinstance(seed, int):
        raise SchemaError("session_start.seed missing")
    try:
        cfg = config_from_echo(head.get("config"))
    except ConfigError as e:
        raise SchemaError(f"bad config echo: {e}") from e
    fresh = run_session(seed, cfg, head.get("session", 0))
    n = max(len(events), len(fresh.events))
    for i in range(n):
        a = events[i] if i < len(events) else None
        b = fresh.events[i] if i < len(fresh.events) else None
        if a is None or b is None or canonical_json(a) != canonical_json(b):
            raise MismatchDetected(i, a, b)
    return fresh


def replay_log(path) -> int:
    """Replay every session in a log file; returns how many were verified."""
    events = read_events(path)
    if not events:
        raise SchemaError(f"{path}: empty log")
    groups: list[list[dict]] = []
    current: list[dict] | None = None
    for e in events:
        if isinstance(e, dict) and e.get("event") == "session_start":
            current = [e]
            groups.append(current)
        elif current is None:
            raise SchemaError(f"{path}: event before any session_start")
        else:
            current.append(e)
    for group in groups:
        replay(group)
    return len(groups)
