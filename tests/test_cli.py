import copy
import json

import pytest

from homefetch import agent
from homefetch.agent import rotate_exact
from homefetch.cli import (
    EXIT_CONFIG,
    EXIT_GENERATION,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)
from homefetch.config import RunConfig, config_echo
from homefetch.eventlog import read_events, write_events
from homefetch.layouts import make_environment
from homefetch.planner import plan_path
from homefetch.session import SUBTASKS
from homefetch.taskgen import validate_episode
from homefetch.world import grid_for


def _run(tmp_path, *extra):
    out = tmp_path / "out"
    rc = main(["run", "--seed", "3", "--sessions", "2",
               "--out", str(out), *extra])
    return rc, out


class TestRun:
    def test_writes_artifacts_and_prints_row(self, tmp_path, capsys):
        rc, out = _run(tmp_path)
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        row = (out / "report.txt").read_text(encoding="ascii")
        assert printed == row
        assert row.endswith("\n") and " | " in row
        events = read_events(out / "episodes.jsonl")
        assert events[0]["event"] == "session_start"
        assert events[-1]["event"] == "session_end"
        assert {e["session"] for e in events} == {0, 1}
        summary = json.loads((out / "report.json").read_text())
        assert summary["label"] == "relational"
        assert summary["seed"] == 3
        assert summary["sessions"] == 2
        assert summary["row"] == row.strip()
        assert set(summary["tally"]) == set(SUBTASKS)
        assert summary["config"]["grounder"] == "relational"

    def test_session_that_once_failed_generation_runs(self, tmp_path, capsys):
        """Session 46 of seed 3 failed generation while destinations were
        drawn over every surface, and the run wrote nothing."""
        out = tmp_path / "out"
        assert main(["run", "--seed", "3", "--sessions", "47",
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        events = read_events(out / "episodes.jsonl")
        assert {e["session"] for e in events} == set(range(47))
        assert (out / "report.json").exists()

    def test_default_out_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--seed", "3", "--sessions", "1"]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "runs" / "seed3-relational" /
                "episodes.jsonl").exists()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "grounder": "oracle"}))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--seed", "3",
                   "--sessions", "1", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        summary = json.loads((out / "report.json").read_text())
        assert summary["seed"] == 3
        assert summary["label"] == "oracle"

    def test_compat_counts_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--seed", "1", "--sessions", "2",
                   "--grounder", "keyword-baseline",
                   "--paper-compat-counts", "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == \
            "100 (2/2) | 0 (0/0) | 0 (0/0) | 0 (0/0)"
        summary = json.loads((out / "report.json").read_text())
        assert summary["paper_compat_counts"] is True

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeed": 1}))
        rc = main(["run", "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_layout_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"layout_id": "nope"}}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "layout_id" in err

    @pytest.mark.parametrize("text,flags", [
        ('{"gen": {"objects_per_room": NaN}}', []),
        ('{"time_budget_s": 1e999}', []),
        ('{"time_budget_s": NaN}', []),
        (None, ["--time-budget", "inf"]),
    ])
    def test_non_finite_number_exits_2_at_load(self, tmp_path, capsys,
                                               monkeypatch, text, flags):
        def no_sessions(cfg):
            raise AssertionError("a session ran")
        monkeypatch.setattr("homefetch.cli.run_batch", no_sessions)
        args = ["run", "--out", str(tmp_path / "out"), *flags]
        if text is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "finite number" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overlong_integer_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gen": {"min_objects": ' + "1" * 5000 + "}}")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 1, "out": "\xff"}')
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not UTF-8" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_generation_failure_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"gen": {"objects_per_room": 0.0, "min_objects": 0,
                     "max_objects": 0}}))
        rc = main(["run", "--config", str(cfg), "--sessions", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_GENERATION
        assert "generation failed" in capsys.readouterr().err

    def test_bad_flag_value_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--grounder", "psychic"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_workers_flag_preserves_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--seed", "5", "--sessions", "3",
                     "--out", str(a)]) == EXIT_OK
        assert main(["run", "--seed", "5", "--sessions", "3",
                     "--workers", "2", "--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert (a / "episodes.jsonl").read_bytes() == \
            (b / "episodes.jsonl").read_bytes()
        assert (a / "report.txt").read_bytes() == \
            (b / "report.txt").read_bytes()


class TestGenerate:
    def test_exports_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = main(["generate", "--seed", "4", "--sessions", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == str(out / "manifest.json")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "homefetch-manifest/1"
        assert manifest["count"] == 2
        for name in manifest["episodes"]:
            rec = json.loads((out / name).read_text())
            assert validate_episode(rec) == []

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--seed", "4", "--sessions", "2",
                         "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        for name in ("manifest.json", "episode_0000.json",
                     "episode_0001.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_generation_failure_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"gen": {"objects_per_room": 0.0, "min_objects": 0,
                     "max_objects": 0}}))
        rc = main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "ds")])
        assert rc == EXIT_GENERATION
        capsys.readouterr()


class TestReport:
    def test_merges_and_sorts_labels(self, tmp_path, capsys):
        _, rel = _run(tmp_path)
        base = tmp_path / "base"
        assert main(["run", "--seed", "1", "--sessions", "2",
                     "--grounder", "keyword-baseline",
                     "--out", str(base)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["report", str(rel / "episodes.jsonl"),
                   str(base / "episodes.jsonl")])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("keyword-baseline | ")
        assert lines[1].startswith("relational | ")

    def test_self_merge_doubles_counts(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        log = str(out / "episodes.jsonl")
        assert main(["report", log]) == EXIT_OK
        single = capsys.readouterr().out
        assert main(["report", log, log]) == EXIT_OK
        doubled = capsys.readouterr().out
        assert single != doubled
        assert "(4/4)" in doubled or "(0/4)" in doubled

    def test_empty_log_prints_zero_row(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == \
            "0 (0/0) | 0 (0/0) | 0 (0/0) | 0 (0/0)"

    def test_each_command_forgets_every_grid_memo(self, tmp_path, capsys):
        """Plans, legs and crawl lattices are forgotten before each command;
        the raster stays cached."""
        grid = grid_for(make_environment("default"))
        free = grid.free
        grid.memo[("sentinel",)] = "stale"
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == EXIT_OK
        capsys.readouterr()
        assert grid.memo == {}
        assert grid_for(make_environment("default")) is grid
        assert grid.free is free

    def test_each_command_starts_with_an_empty_plan_memo(self, tmp_path,
                                                         capsys):
        env = make_environment("default")
        rb = env.robot.pose
        plan_path(env, (rb.x, rb.y), (rb.x, rb.y))
        memo = grid_for(env).memo
        assert any(k[0] == "plan" for k in memo)
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == EXIT_OK
        capsys.readouterr()
        assert not any(k[0] == "plan" for k in memo)

    def test_each_command_starts_with_an_empty_leg_memo(self, tmp_path,
                                                        capsys):
        env = make_environment("default")
        env.trace = []
        assert rotate_exact(env, 1.0, 60.0)
        memo = grid_for(env).memo
        assert any(k[0] is agent._rotate_exact for k in memo)
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == EXIT_OK
        capsys.readouterr()
        assert not any(k[0] is agent._rotate_exact for k in memo)

    def test_missing_file_exits_4(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.jsonl")])
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_malformed_log_exits_5(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"event": "session_start"}\nnot json\n')
        rc = main(["report", str(log)])
        assert rc == EXIT_SCHEMA
        capsys.readouterr()


# Lines the writer never emits; each must be a schema error, not a crash.
_MALFORMED = {
    "list": b'[1,2]\n',
    "non_ascii": b'{"event":"session_start","session":0}\xff\n',
    "nan": (b'{"event":"session_start","session":0,"clock_s":0.0}\n'
            b'{"event":"scene","session":0,"clock_s":NaN}\n'),
    "overflow": b'{"event":"scene","session":0,"clock_s":1e999}\n',
    "grounder_list": (
        b'{"event":"session_start","session":0,"clock_s":0.0,"seed":1,'
        b'"config":{"grounder":[1]}}\n'
        b'{"event":"session_end","session":0,"clock_s":0.0}\n'),
    "grounder_mixed": (
        b'{"event":"session_start","session":0,"clock_s":0.0,"seed":1,'
        b'"config":{"grounder":1}}\n'
        b'{"event":"session_end","session":0,"clock_s":0.0}\n'
        b'{"event":"session_start","session":1,"clock_s":0.0,"seed":1,'
        b'"config":{"grounder":"relational"}}\n'
        b'{"event":"session_end","session":1,"clock_s":0.0}\n'),
}


@pytest.mark.parametrize("command", ["report", "replay"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_line_exits_5(tmp_path, capsys, command, case):
    log = tmp_path / "bad.jsonl"
    log.write_bytes(_MALFORMED[case])
    assert main([command, str(log)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.err.startswith("schema error") and captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def seed7_events(tmp_path_factory):
    """The events of `run --seed 7 --sessions 10`: every stage of every
    session succeeds, so the report is 100 (10/10) in each cell."""
    out = tmp_path_factory.mktemp("seed7")
    assert main(["run", "--seed", "7", "--sessions", "10",
                 "--out", str(out)]) == EXIT_OK
    return read_events(out / "episodes.jsonl")


def _first_end(events, subtask):
    return next(i for i, e in enumerate(events) if e["event"] == "subtask_end"
                and e["subtask"] == subtask)


def _duplicated_end(events):
    """Navigation would read 100 (11/11)."""
    i = _first_end(events, "Navigation")
    events.insert(i, dict(events[i]))


def _ungated_end(events):
    """Fetching would read (10/10) under OLR 90 (9/10)."""
    events[_first_end(events, "OLR")]["succeeded"] = False


def _string_verdict(events):
    """A string would count as a success."""
    events[_first_end(events, "Carrying")]["succeeded"] = "no"


def _relabelled_record(events):
    """A record of session 0 would count under session 1's index."""
    next(e for e in events if e["event"] == "path")["session"] = 1


@pytest.mark.parametrize("breaks", [_duplicated_end, _ungated_end,
                                    _string_verdict, _relabelled_record])
def test_broken_session_shape(tmp_path, capsys, seed7_events, breaks):
    """`report` refuses a log whose first session breaks the gating; `replay`
    finds the changed event."""
    events = [dict(e) for e in seed7_events]
    breaks(events)
    log = tmp_path / "broken.jsonl"
    write_events(log, events)
    assert main(["report", str(log)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error in {log}: session 0: ")
    assert err.count("\n") == 1
    assert main(["replay", str(log)]) == EXIT_MISMATCH
    assert capsys.readouterr().err.startswith(f"replay mismatch in {log}")


def _first(events, name):
    return next(e for e in events if e["event"] == name)


def _set(name, key, value):
    """An edit that sets `key` of the first `name` event to `value`."""
    def edit(events):
        _first(events, name)[key] = value
    return edit


def _drop(name):
    def edit(events):
        events.remove(_first(events, name))
    return edit


def _rename_path(events):
    _first(events, "path")["event"] = "bogus"


def _string_clock(events):
    events[3]["clock_s"] = "x"


def _bogus_grounder(events):
    _first(events, "session_start")["config"]["grounder"] = "bogus"


def _grounder_left_out(events):
    for e in events:
        if e["event"] == "session_start":
            del e["config"]["grounder"]


@pytest.fixture(scope="module")
def baseline_events(tmp_path_factory):
    """The events of `run --seed 1 --sessions 2 --grounder keyword-baseline`,
    whose grounder is not the default."""
    out = tmp_path_factory.mktemp("baseline")
    assert main(["run", "--seed", "1", "--sessions", "2", "--grounder",
                 "keyword-baseline", "--out", str(out)]) == EXIT_OK
    return read_events(out / "episodes.jsonl")


# One edit each, and the rule or field the report names.  Every edit but
# `abstained_string` once gave a full 100 (10/10) row and exit 0; that one
# exited 5 but blamed the gating rule, not the field.
_REPORT_EDITS = {
    "termination_deleted": (_drop("termination"),
                            "not one termination, right before session_end"),
    "termination_kind": (_set("termination", "kind", "Bogus"),
                         "termination Bogus None disagrees with the stage "
                         "ends, which give TaskCompleted None"),
    "task_deleted": (_drop("task"),
                     "scene and task do not follow session_start"),
    "event_renamed": (_rename_path, "record 5: unknown event 'bogus'"),
    "clock_string": (_string_clock,
                     "record 4: subtask_start.clock_s: not number"),
    "sim_time_null": (_set("subtask_end", "sim_time_s", None),
                      "record 6: subtask_end.sim_time_s: not number"),
    "grounder": (_bogus_grounder,
                 "session_start config: grounder: must be one of"),
    # Once counted under a `relational` row (exit 0), and replayed under the
    # default grounder into a mismatch (exit 6).
    "grounder_left_out": (_grounder_left_out,
                          "session_start config: grounder: missing from the "
                          "echo"),
    "abstained_string": (_set("olr", "abstained", "no"),
                         "olr.abstained: not boolean"),
    "extra_field": (_set("task", "color", "red"),
                    "record 3: task.color: unknown field"),
}


# The edited log, where it is not `seed7_events`.
_REPORT_LOGS = {"grounder_left_out": "baseline_events"}


@pytest.mark.parametrize("case", sorted(_REPORT_EDITS))
def test_report_names_the_broken_rule(tmp_path, capsys, request, case):
    """`report` checks every record against its row of the event table and
    each session against the order `run` writes, naming what broke."""
    edit, names = _REPORT_EDITS[case]
    events = copy.deepcopy(request.getfixturevalue(
        _REPORT_LOGS.get(case, "seed7_events")))
    edit(events)
    log = tmp_path / "edited.jsonl"
    write_events(log, events)
    assert main(["report", str(log)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error in {log}: session 0: ")
    assert names in err and err.count("\n") == 1
    if case.startswith("grounder"):
        assert main(["replay", str(log)]) == EXIT_SCHEMA
        capsys.readouterr()


@pytest.mark.parametrize("seed", [True, -5, 2 ** 70])
def test_replay_refuses_a_seed_run_refuses(tmp_path, capsys, seed):
    """A logged master seed that `run --seed` would refuse is a schema
    error, as a missing one is, not a re-run that mismatches."""
    out = tmp_path / "out"
    assert main(["run", "--seed", "1", "--sessions", "1",
                 "--out", str(out)]) == EXIT_OK
    events = read_events(out / "episodes.jsonl")
    events[0]["seed"] = seed
    log = tmp_path / "seed.jsonl"
    write_events(log, events)
    capsys.readouterr()
    assert main(["replay", str(log)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == (f"schema error in {log}: session_start config: seed: "
                   f"must be a 64-bit unsigned integer\n")


class TestReplay:
    def test_verifies_run_log(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        capsys.readouterr()
        rc = main(["replay", str(out / "episodes.jsonl")])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "replayed 2 session(s): match"

    def test_tampered_log_exits_6(self, tmp_path, capsys):
        _, out = _run(tmp_path)
        log = out / "episodes.jsonl"
        events = read_events(log)
        events[4]["clock_s"] = 123.456
        write_events(log, events)
        rc = main(["replay", str(log)])
        assert rc == EXIT_MISMATCH
        assert "replay mismatch" in capsys.readouterr().err

    def test_ungeneratable_session_exits_3(self, tmp_path, capsys):
        """An echo whose generator places no objects yields no task."""
        echo = config_echo(RunConfig())
        echo["gen"].update(objects_per_room=0.0, min_objects=0, max_objects=0)
        log = tmp_path / "empty-scenes.jsonl"
        write_events(log, [
            {"event": "session_start", "session": 0, "clock_s": 0.0,
             "seed": 3, "config": echo},
            {"event": "session_end", "session": 0, "clock_s": 0.0}])
        assert main(["replay", str(log)]) == EXIT_GENERATION
        err = capsys.readouterr().err
        assert err.startswith("generation failed: ") and err.count("\n") == 1

    def test_missing_file_exits_4(self, tmp_path, capsys):
        rc = main(["replay", str(tmp_path / "nope.jsonl")])
        assert rc == EXIT_IO
        capsys.readouterr()

    def test_malformed_log_exits_5(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text("{broken\n")
        rc = main(["replay", str(log)])
        assert rc == EXIT_SCHEMA
        capsys.readouterr()
