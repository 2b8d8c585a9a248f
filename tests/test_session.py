from dataclasses import replace

import pytest

from helpers import only_event, session_events, trace_bits, verdicts
from homefetch import agent, session, taskgen
from homefetch.agent import STALL_LIMIT_S, NoiseConfig, navigate_to_room
from homefetch.geometry import dist
from homefetch.config import RunConfig, config_echo
from homefetch.eventlog import SchemaError, canonical_json, write_events
from homefetch.layouts import forget_memos
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
    aggregate,
    format_cells,
    format_report,
    replay,
    replay_log,
    run_batch,
    run_session,
    tallies_from_events,
)
from homefetch.taskgen import generate_task


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
    return session_events(0, label, ends, abstained)


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
        bad = _session_events("bogus", [])
        with pytest.raises(SchemaError, match="^session 0: session_start "
                           "config: grounder: must be one of"):
            tallies_from_events(bad)
        with pytest.raises(SchemaError, match="before any session_start"):
            tallies_from_events([{"event": "subtask_end", "session": 0,
                                  "subtask": NAVIGATION, "attempted": True}])
        bad = _session_events("relational", [("Daydreaming", True, True)])
        with pytest.raises(SchemaError, match="unknown subtask"):
            tallies_from_events(bad)

    @pytest.mark.parametrize("ends,abstained,rule", [
        ([(NAVIGATION, True, True), (NAVIGATION, True, True)], False,
         "Navigation ends twice"),
        ([(OLR, True, True)], False, "OLR ends before Navigation ends"),
        ([(NAVIGATION, True, True), (OLR, True, False),
          (FETCHING, True, True)], False, "Fetching ends after OLR failed"),
        ([(NAVIGATION, True, "no")], False, "not boolean"),
        ([(NAVIGATION, 1, True)], False, "not boolean"),
        ([(NAVIGATION, True, True), (OLR, True, True)], True,
         "OLR succeeds though its olr event abstained"),
        ([(NAVIGATION, True, True), (OLR, True, False), (OLR, True, False)],
         True, "OLR ends twice"),
    ])
    def test_gating_errors(self, ends, abstained, rule):
        """Each rule holds with and without the compat count."""
        bad = _session_events("relational", ends, abstained)
        for compat in (False, True):
            with pytest.raises(SchemaError, match=f"^session 0: .*{rule}"):
                tallies_from_events(bad, abstain_as_unattempted=compat)

    def test_one_session_index_per_session(self):
        ev = _session_events("relational", [(NAVIGATION, True, True)])
        ev[3]["session"] = 1
        with pytest.raises(SchemaError, match=r"^session 0: its record 4 "
                           r"\(subtask_end\) carries session index 1$"):
            tallies_from_events(ev)

    def test_unattempted_end_is_skipped(self):
        ev = _session_events("relational", [
            (NAVIGATION, True, True), (FETCHING, False, False),
            (OLR, True, True), (OLR, False, True)])
        assert tallies_from_events(ev) == {
            "relational": Tally((1, 1, 0, 0), (1, 1, 0, 0))}


def _cfg(**kw):
    return replace(RunConfig(), **kw)


def _termination(rec) -> tuple[str, str | None]:
    e = only_event(rec.events, "termination")
    return e["kind"], e["subtask"]


def _stage_starts(rec) -> list[str]:
    return [e["subtask"] for e in rec.events if e["event"] == "subtask_start"]


class TestCheckTermination:
    """The termination rules, checked on real sessions whose clock is set
    by a wrapped stage."""

    def test_failure_beats_budget(self, monkeypatch):
        """A failed OLR that also overran the budget is a failure, not a
        time-out."""
        cfg = _cfg(seed=1, grounder="keyword-baseline")
        real_crawl = session.crawl

        def overrunning_crawl(env, lattice, budget, events):
            captures = real_crawl(env, lattice, budget, events)
            env.clock = budget + 200.0
            return captures

        monkeypatch.setattr(session, "crawl", overrunning_crawl)
        rec = run_session(1, cfg, 0)
        assert verdicts(rec.events) == {NAVIGATION: True, OLR: False}
        assert _termination(rec) == (SUBTASK_FAILED, OLR)

    def test_budget_boundary_is_inclusive(self, monkeypatch):
        """A clock equal to the budget starts no further stage; a clock
        just under it does."""
        cfg = _cfg(seed=7)

        def navigate_until(clock):
            def nav(env, room, budget, events):
                env.clock = clock
                return True
            return nav

        monkeypatch.setattr(session, "navigate_to_room",
                            navigate_until(cfg.time_budget_s))
        rec = run_session(7, cfg, 0)
        assert _stage_starts(rec) == [NAVIGATION]
        assert verdicts(rec.events) == {NAVIGATION: True}
        assert _termination(rec) == (TIME_ELAPSED, None)

        monkeypatch.setattr(session, "navigate_to_room",
                            navigate_until(cfg.time_budget_s - 0.001))
        rec = run_session(7, cfg, 0)
        assert _stage_starts(rec)[:2] == [NAVIGATION, OLR]

    def test_mid_pipeline_continues(self, monkeypatch):
        """Succeeded stages with budget left lead on to the next stage."""
        cfg = _cfg(seed=7)
        clocks = []

        def failing_fetch(env, target, task, deadline, events):
            clocks.append(env.clock)
            return False

        monkeypatch.setattr(session, "fetch", failing_fetch)
        rec = run_session(7, cfg, 0)
        assert _stage_starts(rec) == [NAVIGATION, OLR, FETCHING]
        assert verdicts(rec.events) == \
            {NAVIGATION: True, OLR: True, FETCHING: False}
        assert len(clocks) == 1 and 0.0 < clocks[0] < cfg.time_budget_s
        assert _termination(rec) == (SUBTASK_FAILED, FETCHING)


def _longest_time_away(ticks: list[tuple[float, float]]) -> float:
    """The longest stretch of (clock, distance to the goal) ticks over which
    the distance never falls below its value at the stretch's start."""
    best = 0.0
    for i, (t0, d0) in enumerate(ticks):
        end = t0
        for t, d in ticks[i + 1:]:
            if d < d0:
                break
            end = t
        best = max(best, end - t0)
    return best


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
        assert _termination(rec) == (TASK_COMPLETED, None)
        assert verdicts(rec.events) == {name: True for name in SUBTASKS}
        assert all(e["attempted"] for e in rec.events
                   if e["event"] == "subtask_end")
        assert only_event(rec.events, "session_end")["duration_s"] > 0.0
        assert rec.trace
        assert only_event(rec.events, "task")["text"].endswith(".")

    def test_the_crawl_reads_the_tasks_lattice(self, monkeypatch):
        """Once generation has returned, no stage computes a lattice: the
        crawl reads the one the task carries, and the session logs what an
        unpatched run logs."""
        cfg = _cfg(seed=7)
        want = [canonical_json(e) for e in run_session(7, cfg, 0).events]
        generate = session.generate_task

        def refused(env, room):
            raise AssertionError(f"lattice of {room} computed after generation")

        def generate_then_refuse(*args):
            out = generate(*args)
            for module in (agent, taskgen):
                monkeypatch.setattr(module, "lattice_captures", refused)
            return out

        monkeypatch.setattr(session, "generate_task", generate_then_refuse)
        rec = run_session(7, cfg, 0)
        assert _termination(rec) == (TASK_COMPLETED, None)
        assert [canonical_json(e) for e in rec.events] == want

    def test_baseline_abstains_and_gates_fetch(self):
        rec = run_session(1, _cfg(seed=1, grounder="keyword-baseline"), 0)
        assert verdicts(rec.events) == {NAVIGATION: True, OLR: False}
        assert _termination(rec) == (SUBTASK_FAILED, OLR)
        names = [e["event"] for e in rec.events]
        assert names.count("subtask_start") == 2
        olr = only_event(rec.events, "olr")
        assert olr["abstained"] is True
        assert olr["target"] is None

    def test_partial_grounding_is_logged(self):
        """A round that resolves one role logs it, capture 0 included."""
        rec = run_session(11, RunConfig(seed=11, noise=NoiseConfig(p_miss=0.8)), 41)
        olr = only_event(rec.events, "olr")
        assert {k: olr[k] for k in ("target", "target_capture", "destination",
                                    "destination_capture", "abstained",
                                    "correct")} == {
            "target": "obj_015", "target_capture": 0,
            "destination": None, "destination_capture": None,
            "abstained": True, "correct": False}

    def test_detour_away_from_the_goal_completes(self, monkeypatch):
        """Session 76 of seed 7 follows a path that heads away from its goal
        for longer than the stall limit; that is progress, not a stall."""
        legs = []  # per followed path: (clock, distance to its goal) per tick
        follow, step = agent._follow_path, agent.world_step

        def traced_follow(env, path, deadline):
            goal, ticks = path.waypoints[-1], []
            legs.append(ticks)

            def traced_step(env, *args):
                step(env, *args)
                ticks.append((env.clock, dist(env.robot.pose.xy, goal)))
            monkeypatch.setattr(agent, "world_step", traced_step)
            try:
                return follow(env, path, deadline)
            finally:
                monkeypatch.setattr(agent, "world_step", step)

        monkeypatch.setattr(agent, "_follow_path", traced_follow)
        forget_memos()  # so that every leg runs, not a memoized replay
        rec = run_session(7, RunConfig(seed=7), 76)
        assert _termination(rec) == (TASK_COMPLETED, None)
        assert max(map(_longest_time_away, legs)) > STALL_LIMIT_S

    def test_oracle_grounder_completes(self):
        rec = run_session(7, _cfg(seed=7, grounder="oracle"), 0)
        assert _termination(rec) == (TASK_COMPLETED, None)

    def test_tiny_budget_fails_navigation(self):
        rec = run_session(7, _cfg(seed=7, time_budget_s=0.5), 0)
        assert _termination(rec) == (SUBTASK_FAILED, NAVIGATION)
        assert verdicts(rec.events) == {NAVIGATION: False}

    def test_exact_budget_elapses_after_navigation(self):
        # The budget is the unrounded clock after navigation; the log's
        # rounded sim_time_s may fall short of it.
        cfg = _cfg(seed=7)
        env, task = generate_task(cfg.gen, h64("session", 7, 0))
        assert navigate_to_room(env, task.room, cfg.time_budget_s, events=[])
        nav_time = env.clock
        assert nav_time > 0.0
        rec = run_session(7, _cfg(seed=7, time_budget_s=nav_time), 0)
        assert verdicts(rec.events) == {NAVIGATION: True}
        assert _termination(rec) == (TIME_ELAPSED, None)

    def test_completion_beats_budget(self, monkeypatch):
        """A Carrying that succeeds past the budget still completes the task."""
        cfg = _cfg(seed=7)
        real_carry = session.carry

        def overrunning_carry(env, destination, task, deadline, events):
            ok = real_carry(env, destination, task, deadline, events)
            env.clock = cfg.time_budget_s + 1.0
            return ok

        monkeypatch.setattr(session, "carry", overrunning_carry)
        rec = run_session(7, cfg, 0)
        assert verdicts(rec.events) == {name: True for name in SUBTASKS}
        assert _termination(rec) == (TASK_COMPLETED, None)
        assert only_event(rec.events, "session_end")["duration_s"] > \
            cfg.time_budget_s

    def test_zero_budget_runs_no_stage(self):
        rec = run_session(7, _cfg(seed=7, time_budget_s=0.0), 0)
        assert [e["event"] for e in rec.events] == [
            "session_start", "scene", "task", "termination", "session_end"]
        assert _termination(rec) == (TIME_ELAPSED, None)
        assert format_report("", aggregate([rec])) == " | ".join(["0 (0/0)"] * 4)

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

    def test_sessions_do_not_leak_through_the_leg_memo(self):
        """Each session of a batch equals that session run alone from cold
        grid memos (plans, legs and crawl lattices): the same events and
        the same pose after every tick."""
        cfg = _cfg(seed=7, sessions=12)
        batch = run_batch(cfg)
        for i, rec in enumerate(batch):
            forget_memos()
            alone = run_session(7, cfg, i)
            assert [canonical_json(e) for e in alone.events] == \
                [canonical_json(e) for e in rec.events]
            assert trace_bits(alone.trace) == trace_bits(rec.trace)

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

            def map(self, fn, indices):
                return iter(indices)

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
