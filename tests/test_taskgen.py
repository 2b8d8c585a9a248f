import copy
import json
import math
import random
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import (
    ball, grounding_captures, make_env, reference_generate_task,
    reference_instruction, scene, scenes, table,
)
from homefetch import agent, taskgen
from homefetch.agent import (
    RELATIONAL, grasp_approach, ground, lattice_captures, place_approach,
    room_lattice,
)
from homefetch.config import RunConfig
from homefetch.eventlog import canonical_json
from homefetch.geometry import Rect
from homefetch.language import (
    ONTO, TO, AttributeSet, GotoClause, InstructionAst, ManipClause, parse,
)
from homefetch.layouts import TABLE_LEVEL, forget_memos
from homefetch.relations import (
    NoDistinguishingDescription, attrs_match, minimal_attr_descriptor,
    relation_holds,
)
from homefetch.seeds import h64, substream
from homefetch.session import run_session
from homefetch.taskgen import (
    GenConfig,
    GenerationFailed,
    NoFeasibleTask,
    PlacementExhausted,
    TaskSpec,
    _clamped_poisson,
    build_environment,
    capture_views,
    episode_record,
    export_dataset,
    generate_task,
    select_task,
    task_feasible,
    validate_episode,
)
from homefetch.vocab import DEFAULT
from homefetch.world import (
    DYNAMIC,
    SURFACE,
    env_record,
    point_in_room,
    validate_environment,
)


class TestClampedPoisson:
    def test_bounds_and_zero_lambda(self):
        rng = random.Random(1)
        for _ in range(500):
            assert 1 <= _clamped_poisson(rng, 5.0, 1, 8) <= 8
        assert _clamped_poisson(rng, 0.0, 2, 8) == 2
        assert _clamped_poisson(rng, -3.0, 0, 8) == 0

    def test_deterministic_per_rng(self):
        a = [_clamped_poisson(random.Random(9), 5.0, 1, 8) for _ in range(1)]
        b = [_clamped_poisson(random.Random(9), 5.0, 1, 8) for _ in range(1)]
        assert a == b

    def test_mean_matches_analytic_clamped_expectation(self):
        lam, lo, hi, n = 5.0, 1, 8, 20000
        # E[min(max(K,lo),hi)] computed straight from the Poisson pmf
        pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(60)]
        expect = sum(min(max(k, lo), hi) * p for k, p in enumerate(pmf))
        var = sum((min(max(k, lo), hi) - expect) ** 2 * p
                  for k, p in enumerate(pmf))
        rng = random.Random(123)
        mean = sum(_clamped_poisson(rng, lam, lo, hi) for _ in range(n)) / n
        assert abs(mean - expect) < 3.5 * math.sqrt(var / n)


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            generate_task(GenConfig(), -1)
        with pytest.raises(ValueError):
            generate_task(GenConfig(), 2 ** 64)
        with pytest.raises(ValueError):
            GenConfig(min_objects=5, max_objects=3)
        with pytest.raises(ValueError):
            GenConfig(min_objects=1, objects_per_room=0.5)
        with pytest.raises(ValueError):
            GenConfig(color_presence=1.5)
        with pytest.raises(ValueError, match="layout_id"):
            GenConfig(layout_id="nope")
        GenConfig(min_objects=0, objects_per_room=0.0)


class TestBuildEnvironment:
    def test_deterministic(self):
        cfg = GenConfig()
        a = env_record(build_environment(cfg, 31))
        b = env_record(build_environment(cfg, 31))
        assert canonical_json(a) == canonical_json(b)

    def test_seed_changes_scene(self):
        a = env_record(build_environment(GenConfig(), 1))
        b = env_record(build_environment(GenConfig(), 2))
        assert a != b

    def test_counts_and_ids(self):
        cfg = GenConfig(min_objects=1, max_objects=8)
        env = build_environment(cfg, 5)
        rooms = {r.id: 0 for r in env.layout.rooms}
        for o in env.objects.values():
            rooms[point_in_room(env, o.pose.x, o.pose.y)] += 1
        for n in rooms.values():
            assert 1 <= n <= 8
        ids = sorted(env.objects)
        assert ids == [f"obj_{k:03d}" for k in range(len(ids))]

    def test_validator_clean_many_seeds(self):
        for seed in range(20, 30):
            env = build_environment(GenConfig(), seed)
            assert validate_environment(env) == []

    def test_distractor_pair_present(self):
        for seed in range(40, 70):
            env = build_environment(GenConfig(), seed)
            per_room = {}
            for o in env.objects.values():
                room = point_in_room(env, o.pose.x, o.pose.y)
                per_room.setdefault(room, []).append(o.category)
            assert any(
                max(Counter(cats).values()) >= 2
                for cats in per_room.values() if cats
            ), seed

    def test_static_only_scene(self):
        cfg = GenConfig(objects_per_room=0.0, min_objects=0, max_objects=0)
        env = build_environment(cfg, 3)
        assert env.objects == {}
        with pytest.raises(NoFeasibleTask):
            select_task(env, substream("gen-task", 3, 0))

    def test_attribute_presence_rates(self):
        # pooled over seeds: colors ~0.8, materials ~0.6
        total = with_color = with_material = 0
        for seed in range(200, 230):
            env = build_environment(GenConfig(), seed)
            for o in env.objects.values():
                total += 1
                with_color += o.color is not None
                with_material += o.material is not None
                if o.color is not None:
                    assert o.color in DEFAULT.colors
                if o.material is not None:
                    assert o.material in DEFAULT.materials
        assert total > 300
        assert abs(with_color / total - 0.8) < 0.08
        assert abs(with_material / total - 0.6) < 0.10

    def test_objects_rest_on_surfaces_with_clearance(self):
        env = build_environment(GenConfig(), 77)
        objs = list(env.objects.values())
        for o in objs:
            region = env.layout.surface(o.support).region
            assert region.inset(o.radius).contains_closed(o.pose.x, o.pose.y)
        for i, a in enumerate(objs):
            for b in objs[i + 1:]:
                d = math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y)
                if a.support == b.support:
                    assert d >= a.radius + b.radius + 0.01 - 1e-9


class TestSelectTask:
    def test_uniform_over_objects(self):
        env = build_environment(GenConfig(), 8)
        n = len(env.objects)
        assert n >= 4
        counts = Counter()
        draws = 400
        for i in range(draws):
            target, dest, room = select_task(env, substream("t", 8, i))
            counts[target] += 1
            obj = env.objects[target]
            assert room == point_in_room(env, obj.pose.x, obj.pose.y)
            assert dest != env.objects[target].support
            assert dest in {s.id for s in env.layout.surfaces}
        assert len(counts) == n
        for c in counts.values():
            assert abs(c - draws / n) < 4 * math.sqrt(draws / n)

    def test_destination_drawn_from_the_target_rooms_lattice(self):
        """The destination is one of the surfaces the lattice of the
        target's room can see, other than the target's own, drawn in
        sorted order by the draw that follows the target's."""
        env = build_environment(GenConfig(), 8)
        for i in range(100):
            rng = substream("t", 8, i)
            target, dest, room = select_task(env, rng)
            obj = env.objects[target]
            pool = sorted(room_lattice(env, room).surfaces - {obj.support})
            again = substream("t", 8, i)
            assert again.choice(sorted(env.objects)) == target
            assert again.choice(pool) == dest

    def test_no_alternative_surface(self):
        t = table("t0")
        o = ball("o0", (2.5, 2.4), "t0/top")
        env = make_env(furniture=(t,), objects=(o,))
        with pytest.raises(NoFeasibleTask):
            select_task(env, random.Random(1))


def _first_showing(caps, sid: str) -> int:
    return next(k for k, c in enumerate(caps)
                if any(s.object_id == sid for s in c.snapshots))


class TestCaptureViews:
    def test_first_lattice_capture_of_each_role(self):
        """The task carries the lattice of the target's room in its scene.
        Each role's capture is the first capture of it that shows the role,
        with `subject` set on a copy: the lattice keeps no subject."""
        env, task = generate_task(GenConfig(), 4)
        caps = task.lattice
        assert caps == lattice_captures(env, task.room)
        t_cap, d_cap = capture_views(task)
        for cap, sid in ((t_cap, task.target), (d_cap, task.destination)):
            first = caps[_first_showing(caps, sid)]
            assert cap == replace(first, subject=sid)
            assert first.subject is None

    def test_deterministic(self):
        _, task = generate_task(GenConfig(), 4)
        assert capture_views(task) == capture_views(task)

    @pytest.mark.parametrize("master", [4, 7])
    def test_the_captures_the_screen_grounding_picks(self, master):
        """On sessions 0-19, each exported capture is the one from which the
        screen's grounding picked its role."""
        cfg = RunConfig(seed=master).gen
        for i in range(20):
            _, task = generate_task(cfg, h64("session", master, i))
            assert capture_views(task) == grounding_captures(task, cfg)

    def test_no_lattice_capture_sees_into_a_small_room(self):
        """A 1 m room has no lattice point strictly inside it, so no capture
        shows either role."""
        t = table("t0", Rect(0.3, 0.3, 0.7, 0.7))
        env = make_env(room=Rect(0.0, 0.0, 1.0, 1.0), furniture=(t,),
                       objects=(ball("o0", (0.5, 0.5), radius=0.05),))
        lattice = lattice_captures(env, "r0")
        assert lattice == ()
        with pytest.raises(ValueError, match="o0"):
            capture_views(TaskSpec("o0", "t0/top", "r0", lattice, None, ""))

    def test_generation_moves_past_a_candidate_with_no_description(
            self, monkeypatch):
        """The first candidate to reach the description, which the
        generator would otherwise accept, gets none: the generator drops it
        and returns a later candidate's task."""
        seed = h64("session", 4, 0)
        _, accepted = generate_task(GenConfig(), seed)
        orig = taskgen.make_instruction
        drawn = []

        def first_fails(env, target, destination, *rest):
            drawn.append((target, destination))
            if len(drawn) == 1:
                raise NoDistinguishingDescription(target)
            return orig(env, target, destination, *rest)

        monkeypatch.setattr(taskgen, "make_instruction", first_fails)
        _, task = generate_task(GenConfig(), seed)
        assert drawn[0] == (accepted.target, accepted.destination)
        assert len(drawn) >= 2
        assert (task.target, task.destination) == drawn[-1]


class TestMakeInstruction:
    def test_generated_tasks_faithful(self):
        for seed in range(100, 130):
            env, task = generate_task(GenConfig(), seed)
            ast = task.instruction
            # surface form round-trips
            assert parse(task.text) == ast
            # goto names the target's room
            room = env.layout.room(task.room)
            assert ast.goto.room == room.name
            obj = env.objects[task.target]
            assert point_in_room(env, obj.pose.x, obj.pose.y) == task.room
            # exhaustive grounding in the capture context picks the truth
            m = ast.manip
            t_cap, d_cap = capture_views(task)
            snaps = t_cap.snapshots
            supports = t_cap.supports
            cands = [s.object_id for s in snaps if s.kind == DYNAMIC
                     and attrs_match(m.target, s)
                     and (m.relation is None or any(
                         attrs_match(m.relation.landmark, lm)
                         and relation_holds(m.relation.kind, s, lm, supports)
                         for lm in snaps))]
            assert cands == [task.target], seed
            d_snaps = d_cap.snapshots
            d_cands = [s.object_id for s in d_snaps if s.kind == SURFACE
                       and attrs_match(m.destination, s)]
            assert d_cands == [task.destination], seed

    def test_prep_rule(self):
        hits = set()
        for seed in range(100, 140):
            env, task = generate_task(GenConfig(), seed)
            m = task.instruction.manip
            if m.source is not None:
                assert m.prep == TO
                hits.add("source")
            elif env.layout.surface(task.destination).height_class == TABLE_LEVEL:
                assert m.prep == ONTO
                hits.add("onto")
            else:
                assert m.prep == TO
                hits.add("floor")
        assert "onto" in hits

    def test_relation_and_source_never_combined(self):
        for seed in range(100, 160):
            _, task = generate_task(GenConfig(), seed)
            m = task.instruction.manip
            assert m.relation is None or m.source is None

    def test_distractors_force_descriptors(self):
        # with the duplicate-category guarantee, not every target can be
        # described by its bare category
        enriched = 0
        for seed in range(100, 140):
            _, task = generate_task(GenConfig(), seed)
            m = task.instruction.manip
            if (m.target.color is not None or m.target.material is not None
                    or m.relation is not None):
                enriched += 1
        assert enriched > 0


# (master seed, session) of the 17 sessions of master seeds 0-19 x 200 that
# failed generation while the destination was drawn over every surface.
_ONCE_FAILED = ((2, 55), (3, 46), (5, 122), (9, 9), (9, 198), (10, 150),
                (12, 128), (13, 190), (14, 117), (14, 147), (15, 9), (16, 184),
                (17, 0), (17, 34), (17, 57), (19, 45), (19, 160))


class TestGenerateTask:
    @pytest.mark.parametrize("master, session", _ONCE_FAILED)
    def test_sessions_that_once_failed_generate(self, master, session):
        cfg = RunConfig(seed=master).gen
        env, task = generate_task(cfg, h64("session", master, session))
        assert task_feasible(env, task, cfg)

    def test_deterministic_episode(self):
        a_env, a_task = generate_task(GenConfig(), 11)
        b_env, b_task = generate_task(GenConfig(), 11)
        assert canonical_json(episode_record(0, a_env, a_task)) == \
            canonical_json(episode_record(0, b_env, b_task))

    def test_task_members_valid(self):
        env, task = generate_task(GenConfig(), 12)
        assert task.target in env.objects
        assert task.destination in {s.id for s in env.layout.surfaces}
        assert task.destination != env.objects[task.target].support
        assert task_feasible(env, task, GenConfig())

    def test_impossible_config_raises(self):
        cfg = GenConfig(objects_per_room=0.0, min_objects=0, max_objects=0)
        with pytest.raises(GenerationFailed, match="50 attempts"):
            generate_task(cfg, 3)

    def test_failure_names_seed(self):
        cfg = GenConfig(objects_per_room=0.0, min_objects=0, max_objects=0)
        with pytest.raises(GenerationFailed, match=r"seed 99"):
            generate_task(cfg, 99)


class TestScreenAgreesWithExecutor:
    def test_screened_approaches_are_the_executed_ones(self):
        """Zero noise: fetch and carry stage and dock where the screen did."""
        cfg = RunConfig(seed=7)
        for i in range(6):
            env, task = generate_task(cfg.gen, h64("session", 7, i))
            caps = task.lattice
            g = ground(task.instruction, caps, [c.snapshots for c in caps],
                       RELATIONAL, cfg.gen.weights, cfg.gen.thresholds)
            screened = {"fetch": grasp_approach(env, g.target),
                        "carry": place_approach(env, g.destination)}
            events = run_session(7, cfg, i).events
            paths = {e["purpose"]: k for k, e in enumerate(events)
                     if e["event"] == "path"}
            for role, app in screened.items():
                assert app is not None and f"{role}:approach" in paths
                k = paths[f"{role}:approach"]
                assert tuple(events[k]["waypoints"][-1]) == app.staging
                dock = events[k + 1]
                if app.dock == app.staging:
                    assert dock["event"] != "dock"
                else:
                    assert dock["event"] == "dock"
                    assert (dock["frm"], dock["to"]) == \
                        (list(app.staging), list(app.dock))


class TestEpisodeExport:
    def test_schema_and_validation(self):
        env, task = generate_task(GenConfig(), 13)
        rec = episode_record(0, env, task)
        assert rec["format"] == "homefetch-episode/1"
        assert rec["index"] == 0
        assert validate_episode(rec) == []
        assert rec["instruction"]["text"] == task.text
        assert set(rec["captures"]) == {"target", "destination"}

    def test_validate_flags_tampering(self):
        env, task = generate_task(GenConfig(), 13)
        rec = episode_record(0, env, task)
        rec["task"]["target"]["id"] = "obj_999"
        assert validate_episode(rec)

    def test_export_roundtrip_bytes(self, tmp_path):
        records = [episode_record(i, *generate_task(GenConfig(), s))
                   for i, s in enumerate((14, 15))]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        m1 = export_dataset(records, out1, meta={"seed": 0})
        m2 = export_dataset(records, out2, meta={"seed": 0})
        assert m1 == m2
        assert m1["format"] == "homefetch-manifest/1"
        assert m1["count"] == 2
        for name in m1["episodes"]:
            b1 = (out1 / name).read_bytes()
            assert b1 == (out2 / name).read_bytes()
            rec = json.loads(b1)
            assert validate_episode(rec) == []
        assert (out1 / "manifest.json").read_bytes() == \
            (out2 / "manifest.json").read_bytes()


def _episode_file_record() -> dict:
    """Episode 0 of `generate --seed 4`, as read back from its file."""
    env, task = generate_task(GenConfig(), h64("session", 4, 0))
    return json.loads(canonical_json(episode_record(0, env, task)))


_RECORD = _episode_file_record()
_TARGET_AT = [o["id"] for o in _RECORD["scene"]["objects"]].index(
    _RECORD["task"]["target"]["id"])
_OTHER_OBJECT = (_TARGET_AT + 1) % len(_RECORD["scene"]["objects"])
# The first piece of furniture whose surface is not the destination.
_OTHER_FURNITURE = next(
    i for i, f in enumerate(_RECORD["scene"]["furniture"])
    if f["surfaces"][0]["id"] != _RECORD["task"]["destination"]["id"])


def _paths(tree, path=()):
    """The path of every subtree below the root, as keys and indices."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, sub in items:
        yield path + (key,)
        yield from _paths(sub, path + (key,))


# A test value meaning "drop the field".
_DROP = object()


def _mutated(path, value, drop):
    rec = copy.deepcopy(_RECORD)
    *head, last = path
    parent = rec
    for key in head:
        parent = parent[key]
    if drop:
        del parent[last]
    else:
        parent[last] = value
    return rec


# Any JSON value, ids of the record among the strings.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([_RECORD["task"]["target"]["id"],
                       _RECORD["task"]["destination"]["id"]]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "surfaces", "snapshots"])
                      | st.text(max_size=4), inner, max_size=4),
    max_leaves=10)


class TestValidateEpisode:
    """`validate_episode` returns a list of problems for any JSON value."""

    def test_real_record_is_valid(self):
        assert validate_episode(copy.deepcopy(_RECORD)) == []

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(sorted(_paths(_RECORD), key=repr)),
           value=_JSON, drop=st.booleans())
    def test_any_subtree_replaced_or_dropped(self, path, value, drop):
        bad = validate_episode(_mutated(path, value, drop))
        assert isinstance(bad, list)
        assert all(isinstance(b, str) for b in bad)

    @settings(max_examples=100, deadline=None)
    @given(value=_JSON)
    def test_any_value(self, value):
        assert isinstance(validate_episode(value), list)

    @pytest.mark.parametrize("path, value", [
        (("instruction",), "abc"),
        (("task", "target"), []),
        (("scene", "furniture"), [5]),
        (("captures", "target", "snapshots"), [1]),
        (("scene", "objects", _TARGET_AT, "id"), ["unhashable"]),
        (("task", "target", "id"), {"unhashable": 1}),
        (("index",), True),
        (("task", "destination", "xy_m"), [True, False]),
        (("task", "target", "xy_m", 0), False),
        (("scene", "objects", _OTHER_OBJECT, "id"), 7),
        (("scene", "furniture", _OTHER_FURNITURE, "surfaces", 0, "id"), None),
        (("captures", "target", "camera"), _DROP),
        (("captures", "target", "supports"), _DROP),
        (("task", "room"), _DROP),
        (("scene", "layout"), _DROP),
        (("scene", "robot"), 5),
        (("scene", "objects", _OTHER_OBJECT, "x_m"), "a"),
        (("captures", "target", "snapshots", 0, "bearing_rad"), "x"),
        (("instruction", "ast"), {}),
        (("scene", "robot", "wheels"), 4),
        (("task", "target", "xy_m"), [1.0, 2.0, 3.0]),
    ])
    def test_malformed_fields_are_reported(self, path, value):
        assert validate_episode(_mutated(path, value, drop=value is _DROP))

    @pytest.mark.parametrize("role, where", [
        ("target", ("scene", "objects", _TARGET_AT)),
        ("destination", ("scene", "furniture", _OTHER_FURNITURE,
                         "surfaces", 0)),
    ])
    def test_a_consistent_non_string_id_is_reported(self, role, where):
        """The subject's id, the task's id, the capture's subject and a
        snapshot's id all the same list: consistent, but not an id."""
        rec = copy.deepcopy(_RECORD)
        subject = rec
        for key in where:
            subject = subject[key]
        for holder in (subject, rec["task"][role],
                       rec["captures"][role]["snapshots"][0]):
            holder["id"] = ["x"]
        rec["captures"][role]["subject"] = ["x"]
        assert f"episode.task.{role}.id: not string" in validate_episode(rec)


class TestLatticeCheckFirst:
    """`generate_task` drops a candidate whose target or destination no
    capture of the lattice of the target's room sees (the lattice check)
    before it describes it from those captures; `task_feasible` would
    reject every such candidate anyway."""

    @pytest.mark.parametrize("master", [7, 4],
                             ids=["run-seed7", "generate-seed4"])
    def test_equals_reference(self, master):
        """Equal to `reference_generate_task`, which has no lattice check:
        every candidate is described from the ground truth and screened.
        The exported captures are the ones the screen's grounding picked."""
        cfg = RunConfig(seed=master).gen
        for i in range(20):
            seed = h64("session", master, i)
            env, task = generate_task(cfg, seed)
            ref_env, ref_task = reference_generate_task(cfg, seed)
            assert env_record(env) == env_record(ref_env)
            assert task == ref_task
            assert capture_views(task) == grounding_captures(ref_task, cfg)
            assert canonical_json(episode_record(i, env, task)) == \
                canonical_json(episode_record(i, ref_env, ref_task))

    def test_failure_equals_reference(self, monkeypatch):
        """With the screen rejecting every candidate, session 0 of `run
        --seed 17` fails generation on both paths with the same message."""
        monkeypatch.setattr(taskgen, "task_feasible", lambda *a: False)
        monkeypatch.setattr(helpers, "task_feasible", lambda *a: False)
        seed = h64("session", 17, 0)
        with pytest.raises(GenerationFailed) as new:
            generate_task(GenConfig(), seed)
        with pytest.raises(GenerationFailed) as ref:
            reference_generate_task(GenConfig(), seed)
        assert str(new.value) == str(ref.value)

    def test_dropped_candidates_fail_the_old_path(self, monkeypatch):
        """Every candidate drawn, with the screen forced to reject so all
        50 are: each one the lattice check drops is one the unchecked path
        rejects in `reference_instruction` or `task_feasible`."""
        draws = []  # [env, target, destination, room, rng after the draw, kept]
        orig_select = taskgen.select_task
        orig_instruction = taskgen.make_instruction

        def select(env, rng):
            drawn = orig_select(env, rng)
            after = random.Random()
            after.setstate(rng.getstate())
            draws.append([env, *drawn, after, False])
            return drawn

        def instruction(env, target, destination, room, *rest):
            assert draws[-1][:4] == [env, target, destination, room]
            draws[-1][5] = True
            return orig_instruction(env, target, destination, room, *rest)

        monkeypatch.setattr(taskgen, "select_task", select)
        monkeypatch.setattr(taskgen, "make_instruction", instruction)
        monkeypatch.setattr(taskgen, "task_feasible", lambda *a: False)
        cfg = GenConfig()
        for master in (3, 7, 11, 17):
            for i in range(3):
                with pytest.raises(GenerationFailed):
                    generate_task(cfg, h64("session", master, i))
        monkeypatch.undo()

        dropped = [d for d in draws if not d[5]]
        assert len(draws) == 600
        assert 0 < len(dropped) < len(draws)
        screened = 0
        lattices = {}  # (scene, room) -> lattice; `draws` keeps each scene
        for env, target, destination, room, rng, _ in dropped:
            key = (id(env), room)
            if key not in lattices:
                lattices[key] = lattice_captures(env, room)
            try:
                ast, text = reference_instruction(env, target, destination,
                                                  room, lattices[key], rng,
                                                  cfg)
            except NoDistinguishingDescription:
                continue
            task = TaskSpec(target, destination, room, lattices[key], ast,
                            text)
            assert not task_feasible(env, task, cfg), (target, destination)
            screened += 1
        assert screened > 0

    def test_one_lattice_per_scene_and_room(self, monkeypatch):
        """The generator computes the lattice of each (scene, room) it draws
        a candidate from once, and no other: on sessions 0-19 of `generate
        --seed 4`, and on session 0 with the screen rejecting all 50
        candidates, whose scenes each yield several draws per room."""
        drawn, computed = [], Counter()
        orig_select = taskgen.select_task
        orig_lattice = taskgen.lattice_captures

        def select(env, rng):
            target, destination, room = orig_select(env, rng)
            drawn.append((env, room))
            return target, destination, room

        def lattice(env, room):
            computed[id(env), room] += 1
            return orig_lattice(env, room)

        def check():
            # `drawn` keeps every scene alive, so no id is reused.
            assert set(computed) == {(id(env), room) for env, room in drawn}
            assert set(computed.values()) == {1}

        monkeypatch.setattr(taskgen, "select_task", select)
        monkeypatch.setattr(taskgen, "lattice_captures", lattice)
        for i in range(20):
            generate_task(GenConfig(), h64("session", 4, i))
        check()
        drawn.clear()
        computed.clear()
        monkeypatch.setattr(taskgen, "task_feasible", lambda *a: False)
        with pytest.raises(GenerationFailed):
            generate_task(GenConfig(), h64("session", 4, 0))
        check()
        assert len(drawn) > 2 * len(computed)

    def test_shortcuts_fire(self, monkeypatch):
        """On sessions 0-19 of `generate --seed 4`, the generator sees no
        more lattices (`visible_batch`) and describes no more candidates
        than the reference, sees no single camera's view
        (`visible_objects`) at all, and never a room's lattice for a
        destination that lattice cannot see."""
        calls = Counter()
        last_draw = []

        def counted(module, name):
            orig = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(agent, "visible_batch")
        counted(agent, "visible_objects")
        counted(taskgen, "make_instruction")
        counted(helpers, "reference_instruction")
        orig_select = taskgen.select_task
        orig_lattice = taskgen.lattice_captures

        def select(env, rng):
            last_draw[:] = orig_select(env, rng)
            return tuple(last_draw)

        def lattice(env, room):
            # The reference draws through its own `select_task`.
            if last_draw:
                assert last_draw[1] in room_lattice(env, room).surfaces
            return orig_lattice(env, room)

        monkeypatch.setattr(taskgen, "select_task", select)
        monkeypatch.setattr(taskgen, "lattice_captures", lattice)
        seeds = [h64("session", 4, i) for i in range(20)]
        forget_memos()
        for seed in seeds:
            generate_task(GenConfig(), seed)
        new = dict(calls)
        calls.clear()
        last_draw.clear()
        forget_memos()
        for seed in seeds:
            reference_generate_task(GenConfig(), seed)
        assert new["visible_batch"] <= calls["visible_batch"]
        assert new["make_instruction"] <= calls["reference_instruction"]
        assert "visible_objects" not in new


def _lattice_descriptions_ground(env) -> int:
    """For every room's lattice, every object or surface its captures show
    that some attribute set singles out among the ids of its kind there:
    the zero-noise relational grounder picks it strictly on that set, from
    the first capture that shows it.  Returns how many were checked."""
    checked = 0
    for room in env.layout.rooms:
        caps = lattice_captures(env, room.id)
        dets = [c.snapshots for c in caps]
        for kind in (DYNAMIC, SURFACE):
            first = {}
            for s in chain.from_iterable(dets):
                if s.kind == kind:
                    first.setdefault(s.object_id, s)
            for sid, snap in first.items():
                attrs = minimal_attr_descriptor(snap, list(first.values()))
                if attrs is None:
                    continue
                # The other role names a category no scene holds.
                none = AttributeSet("nothing")
                roles = (attrs, none) if kind == DYNAMIC else (none, attrs)
                instr = InstructionAst(GotoClause(room.name),
                                       ManipClause(*roles, ONTO, None, None))
                g = ground(instr, caps, dets, RELATIONAL)
                pick = g.target if kind == DYNAMIC else g.destination
                assert pick is not None and pick.strict and pick.id == sid
                assert pick.capture == _first_showing(caps, sid)
                checked += 1
    return checked


_CATEGORIES = ("ball", "mug", "bottle")
_COLORS = (None, "red", "blue")
_MATERIALS = (None, "glass", "plastic")


class TestLatticeDescription:
    """`make_instruction` describes each role by an attribute set unique
    over the lattice's detections of its kind, which the zero-noise
    grounder picks strictly by construction."""

    @settings(max_examples=40, deadline=None)
    @given(env=scenes(), data=st.data())
    def test_unique_attributes_ground_strictly_on_random_scenes(self, env,
                                                                data):
        objs = []
        for f in env.layout.furniture:
            r = f.surfaces[0].region
            for k in range(data.draw(st.integers(0, 3))):
                objs.append(ball(
                    f"{f.id}_o{k}",
                    (r.x0 + data.draw(st.floats(0.0, 1.0)) * (r.x1 - r.x0),
                     r.y0 + data.draw(st.floats(0.0, 1.0)) * (r.y1 - r.y0)),
                    f.surfaces[0].id, data.draw(st.sampled_from(_CATEGORIES)),
                    radius=0.05, color=data.draw(st.sampled_from(_COLORS)),
                    material=data.draw(st.sampled_from(_MATERIALS))))
        _lattice_descriptions_ground(
            scene(env.layout, tuple(objs), env.robot.pose.xy))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           per_room=st.floats(1.0, 8.0))
    def test_unique_attributes_ground_strictly_on_generated_scenes(
            self, seed, per_room):
        try:
            env = build_environment(GenConfig(objects_per_room=per_room), seed)
        except PlacementExhausted:
            return
        assert _lattice_descriptions_ground(env) > 0

    def test_attribute_only_candidates_pass_the_screens_grounding(
            self, monkeypatch):
        """On sessions 0-49 of `generate --seed 4`, no screened candidate
        whose two roles are both described by attributes alone fails the
        screen's grounding; the candidates with a relation may."""
        orig = taskgen.task_feasible
        seen = Counter()

        def screened(env, task, cfg):
            caps = task.lattice
            g = ground(task.instruction, caps, [c.snapshots for c in caps],
                       RELATIONAL, cfg.weights, cfg.thresholds)
            grounded = (g.resolved and g.target.strict and g.destination.strict
                        and g.target.id == task.target
                        and g.destination.id == task.destination)
            relational = task.instruction.manip.relation is not None
            seen[relational, grounded] += 1
            return orig(env, task, cfg)

        monkeypatch.setattr(taskgen, "task_feasible", screened)
        cfg = RunConfig(seed=4).gen
        for i in range(50):
            generate_task(cfg, h64("session", 4, i))
        assert seen[False, False] == 0
        assert seen[False, True] >= 50
