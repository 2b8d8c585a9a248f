from concurrent.futures import Future
from dataclasses import replace

import pytest

from helpers import only_event, verdicts
from homefetch import session
from homefetch.agent import NoiseConfig, navigate_to_room
from homefetch.config import RunConfig, config_echo
from homefetch.eventlog import SchemaError, canonical_json, write_events
from homefetch.seeds import h64
from homefetch.session import (
    CARRYING,
    FETCHING,
    NAVIGATION,
    OLR,
    SUBTASK_FAILED,
    SUBTASKS,
    TASK_COMPLETED,
    TIME_ELAPSED,
    MismatchDetected,
    Tally,
    TerminationReason,
    aggregate,
    check_termination,
    format_cells,
    format_report,
    replay,
    replay_log,
    run_batch,
    run_session,
    tallies_from_events,
)
from homefetch.taskgen import generate_task


def _outcomes(**kw):
    base = {s: None for s in SUBTASKS}
    base.update(kw)
    return base


class TestCheckTermination:
    def test_completion_beats_budget(self):
        out = _outcomes(Navigation=True, OLR=True, Fetching=True,
                        Carrying=True)
        got = check_termination(500.0, 300.0, out)
        assert got == TerminationReason(TASK_COMPLETED)

    def test_failure_beats_budget(self):
        out = _outcomes(Navigation=True, OLR=False)
        got = check_termination(500.0, 300.0, out)
        assert got == TerminationReason(SUBTASK_FAILED, OLR)

    def test_earliest_failed_subtask_named(self):
        out = _outcomes(Navigation=False, Carrying=False)
        got = check_termination(0.0, 300.0, out)
        assert got == TerminationReason(SUBTASK_FAILED, NAVIGATION)

    def test_budget_boundary_is_inclusive(self):
        out = _outcomes(Navigation=True)
        assert check_termination(300.0, 300.0, out) == \
            TerminationReason(TIME_ELAPSED)
        assert check_termination(299.999, 300.0, out) is None

    def test_mid_pipeline_continues(self):
        out = _outcomes(Navigation=True, OLR=True)
        assert check_termination(10.0, 300.0, out) is None

    def test_unattempted_outcome_not_a_failure(self):
        assert check_termination(0.0, 300.0, _outcomes()) is None
        assert check_termination(0.0, 300.0, {}) is None


class TestFormatting:
    def test_reference_cells(self):
        t = Tally(attempts=(40, 40, 8, 8), successes=(40, 8, 8, 1))
        assert format_cells(t) == \
            ("100 (40/40)", "20 (8/40)", "100 (8/8)", "12.5 (1/8)")

    def test_rounding_one_decimal(self):
        t = Tally(attempts=(3, 3, 3, 3), successes=(1, 2, 3, 0))
        assert format_cells(t) == \
            ("33.3 (1/3)", "66.7 (2/3)", "100 (3/3)", "0 (0/3)")

    def test_zero_attempts_cell(self):
        t = Tally(attempts=(0, 0, 0, 0), successes=(0, 0, 0, 0))
        assert format_cells(t) == ("0 (0/0)",) * 4

    def test_report_rows(self):
        t = Tally(attempts=(40, 40, 0, 0), successes=(40, 0, 0, 0))
        row = "100 (40/40) | 0 (0/40) | 0 (0/0) | 0 (0/0)"
        assert format_report("", t) == row
        assert format_report("relational", t) == f"relational | {row}"


def _session_events(label, ends, abstained=False):
    """Synthetic minimal event stream for one session."""
    ev = [{"event": "session_start", "session": 0, "seed": 1,
           "config": {"grounder": label}}]
    for sub, attempted, succeeded in ends:
        if sub == OLR:
            ev.append({"event": "olr", "session": 0, "abstained": abstained})
        ev.append({"event": "subtask_end", "session": 0, "subtask": sub,
                   "attempted": attempted, "succeeded": succeeded})
    ev.append({"event": "session_end", "session": 0})
    return ev


class TestTalliesFromEvents:
    def test_two_sessions(self):
        ev = _session_events("relational", [
            (NAVIGATION, True, True), (OLR, True, True),
            (FETCHING, True, True), (CARRYING, True, True)])
        ev += _session_events("relational", [
            (NAVIGATION, True, True), (OLR, True, False)])
        got = tallies_from_events(ev)
        assert got == {"relational": Tally((2, 2, 1, 1), (2, 1, 1, 1))}

    def test_labels_partition(self):
        ev = _session_events("relational", [(NAVIGATION, True, True)])
        ev += _session_events("keyword-baseline", [(NAVIGATION, True, False)])
        got = tallies_from_events(ev)
        assert set(got) == {"relational", "keyword-baseline"}
        assert got["relational"].attempts == (1, 0, 0, 0)
        assert got["keyword-baseline"].successes == (0, 0, 0, 0)

    def test_abstain_convention(self):
        ev = _session_events("keyword-baseline",
                             [(NAVIGATION, True, True), (OLR, True, False)],
                             abstained=True)
        plain = tallies_from_events(ev)["keyword-baseline"]
        assert plain.attempts == (1, 1, 0, 0)
        compat = tallies_from_events(ev, abstain_as_unattempted=True)
        assert compat["keyword-baseline"].attempts == (1, 0, 0, 0)

    def test_wrong_guess_still_counts_under_compat(self):
        ev = _session_events("keyword-baseline",
                             [(NAVIGATION, True, True), (OLR, True, False)],
                             abstained=False)
        compat = tallies_from_events(ev, abstain_as_unattempted=True)
        assert compat["keyword-baseline"].attempts == (1, 1, 0, 0)

    def test_schema_errors(self):
        with pytest.raises(SchemaError, match="config.grounder"):
            tallies_from_events([{"event": "session_start", "session": 0}])
        with pytest.raises(SchemaError, match="before session_start"):
            tallies_from_events([{"event": "subtask_end", "session": 0,
                                  "subtask": NAVIGATION, "attempted": True}])
        bad = _session_events("relational", [("Daydreaming", True, True)])
        with pytest.raises(SchemaError, match="unknown subtask"):
            tallies_from_events(bad)


def _cfg(**kw):
    return replace(RunConfig(), **kw)


def _termination(rec) -> TerminationReason:
    e = only_event(rec.events, "termination")
    return TerminationReason(e["kind"], e["subtask"])


class TestRunSession:
    def test_event_skeleton_and_gating(self):
        rec = run_session(7, _cfg(seed=7), 0)
        names = [e["event"] for e in rec.events]
        assert names[0:3] == ["session_start", "scene", "task"]
        assert names[-2:] == ["termination", "session_end"]
        head = rec.events[0]
        assert head["seed"] == 7
        assert head["session_seed"] == h64("session", 7, 0)
        assert head["config"] == config_echo(_cfg(seed=7))
        # every event is stamped with the session index
        assert all(e["session"] == 0 for e in rec.events)
        # starts/ends pair up in pipeline order
        started = [e["subtask"] for e in rec.events
                   if e["event"] == "subtask_start"]
        ended = [e["subtask"] for e in rec.events
                 if e["event"] == "subtask_end"]
        assert started == ended == list(SUBTASKS)[:len(started)]

    def test_full_success_session(self):
        rec = run_session(7, _cfg(seed=7), 0)
        assert _termination(rec) == TerminationReason(TASK_COMPLETED)
        assert verdicts(rec.events) == {name: True for name in SUBTASKS}
        assert all(e["attempted"] for e in rec.events
                   if e["event"] == "subtask_end")
        assert only_event(rec.events, "session_end")["duration_s"] > 0.0
        assert rec.trace
        assert only_event(rec.events, "task")["text"].endswith(".")

    def test_baseline_abstains_and_gates_fetch(self):
        rec = run_session(1, _cfg(seed=1, grounder="keyword-baseline"), 0)
        assert verdicts(rec.events) == {NAVIGATION: True, OLR: False}
        assert _termination(rec) == TerminationReason(SUBTASK_FAILED, OLR)
        names = [e["event"] for e in rec.events]
        assert names.count("subtask_start") == 2
        olr = only_event(rec.events, "olr")
        assert olr["abstained"] is True
        assert olr["target"] is None

    def test_partial_grounding_is_logged(self):
        """A round that resolves one role logs it, capture 0 included."""
        rec = run_session(11, RunConfig(seed=11, noise=NoiseConfig(p_miss=0.8)), 0)
        olr = only_event(rec.events, "olr")
        assert {k: olr[k] for k in ("target", "target_capture", "destination",
                                    "destination_capture", "abstained",
                                    "correct")} == {
            "target": "obj_008", "target_capture": 0,
            "destination": None, "destination_capture": None,
            "abstained": True, "correct": False}

    def test_detour_away_from_the_goal_completes(self):
        """Session 44 of seed 7 follows a path that heads away from its goal
        for longer than the stall limit; that is progress, not a stall."""
        rec = run_session(7, RunConfig(seed=7), 44)
        assert _termination(rec) == TerminationReason(TASK_COMPLETED)

    def test_oracle_grounder_completes(self):
        rec = run_session(7, _cfg(seed=7, grounder="oracle"), 0)
        assert _termination(rec) == TerminationReason(TASK_COMPLETED)

    def test_tiny_budget_fails_navigation(self):
        rec = run_session(7, _cfg(seed=7, time_budget_s=0.5), 0)
        assert _termination(rec) == \
            TerminationReason(SUBTASK_FAILED, NAVIGATION)
        assert verdicts(rec.events) == {NAVIGATION: False}

    def test_exact_budget_elapses_after_navigation(self):
        # The budget is the unrounded clock after navigation; the log's
        # rounded sim_time_s may fall short of it.
        cfg = _cfg(seed=7)
        env, task = generate_task(replace(cfg.gen, seed=h64("session", 7, 0)))
        assert navigate_to_room(env, task.room, cfg.time_budget_s)
        nav_time = env.clock
        assert nav_time > 0.0
        rec = run_session(7, _cfg(seed=7, time_budget_s=nav_time), 0)
        assert verdicts(rec.events) == {NAVIGATION: True}
        assert _termination(rec) == TerminationReason(TIME_ELAPSED)

    def test_deterministic_events(self):
        a = run_session(3, _cfg(seed=3), 2)
        b = run_session(3, _cfg(seed=3), 2)
        assert [canonical_json(e) for e in a.events] == \
            [canonical_json(e) for e in b.events]

    def test_session_index_changes_world(self):
        a = run_session(3, _cfg(seed=3), 0)
        b = run_session(3, _cfg(seed=3), 1)
        assert only_event(a.events, "session_start")["session_seed"] != \
            only_event(b.events, "session_start")["session_seed"]
        scene_a = next(e for e in a.events if e["event"] == "scene")
        scene_b = next(e for e in b.events if e["event"] == "scene")
        assert scene_a["digest"] != scene_b["digest"]

    def test_noise_flows_into_detection(self):
        clean = run_session(11, _cfg(seed=11), 4)
        noisy = run_session(
            11, _cfg(seed=11, noise=NoiseConfig(p_miss=0.8)), 4)
        a = next(e for e in clean.events if e["event"] == "olr")
        b = next(e for e in noisy.events if e["event"] == "olr")
        assert a["digest"] != b["digest"]


class TestAggregate:
    def test_matches_event_tallies(self):
        cfg = _cfg(seed=7, sessions=5)
        records = run_batch(cfg)
        tally = aggregate(records)
        events = [e for r in records for e in r.events]
        assert tallies_from_events(events) == {"relational": tally}

    def test_abstain_flag(self):
        cfg = _cfg(seed=1, sessions=3, grounder="keyword-baseline")
        records = run_batch(cfg)
        assert all(only_event(r.events, "olr")["abstained"] for r in records)
        plain = aggregate(records)
        assert plain.attempts[1] == 3
        compat = aggregate(records, abstain_as_unattempted=True)
        assert compat.attempts[1] == 0
        assert compat.attempts[0] == 3


class TestRunBatch:
    def test_workers_do_not_change_events(self):
        serial = run_batch(_cfg(seed=5, sessions=4))
        parallel = run_batch(_cfg(seed=5, sessions=4, workers=2))
        assert len(serial) == len(parallel) == 4
        for i, (a, b) in enumerate(zip(serial, parallel)):
            assert a.events[0]["session"] == b.events[0]["session"] == i
            assert [canonical_json(e) for e in a.events] == \
                [canonical_json(e) for e in b.events]

    def test_pool_capped_at_sessions_and_cpus(self, monkeypatch):
        """The pool is sized min(workers, sessions, CPUs) and still used at
        one worker; the inline fake starts no process and runs no session."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, seed, cfg, index):
                fut = Future()
                fut.set_result(index)
                return fut

        monkeypatch.setattr(session, "ProcessPoolExecutor", InlinePool)
        for cpus, sessions, workers in ((64, 2, 5000), (3, 4, 8), (None, 2, 2)):
            monkeypatch.setattr(session.os, "cpu_count", lambda c=cpus: c)
            got = run_batch(_cfg(seed=5, sessions=sessions, workers=workers))
            assert got == list(range(sessions))
        assert sizes == [2, 3, 1]


class TestReplay:
    def test_replay_matches(self):
        rec = run_session(7, _cfg(seed=7), 0)
        fresh = replay(rec.events)
        assert [canonical_json(e) for e in fresh.events] == \
            [canonical_json(e) for e in rec.events]

    def test_tamper_detected_with_index(self):
        rec = run_session(7, _cfg(seed=7), 0)
        events = [dict(e) for e in rec.events]
        events[5]["clock_s"] = events[5].get("clock_s", 0) + 1.0
        with pytest.raises(MismatchDetected) as exc:
            replay(events)
        assert exc.value.index == 5

    def test_truncated_log_rejected(self):
        rec = run_session(7, _cfg(seed=7), 0)
        with pytest.raises(SchemaError, match="truncated"):
            replay(rec.events[:-1])

    def test_must_start_with_session_start(self):
        rec = run_session(7, _cfg(seed=7), 0)
        with pytest.raises(SchemaError):
            replay(rec.events[1:])

    def test_replay_log_counts_sessions(self, tmp_path):
        records = run_batch(_cfg(seed=7, sessions=2))
        log = tmp_path / "episodes.jsonl"
        write_events(log, [e for r in records for e in r.events])
        assert replay_log(log) == 2

    def test_replay_log_rejects_orphan_events(self, tmp_path):
        log = tmp_path / "orphan.jsonl"
        write_events(log, [{"event": "task", "session": 0}])
        with pytest.raises(SchemaError, match="before any session_start"):
            replay_log(log)

    def test_replay_log_rejects_empty(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            replay_log(log)
