import copy
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import (
    ball, make_env, reference_capture_for, reference_generate_task, table,
)
from homefetch import agent, taskgen
from homefetch.agent import (
    RELATIONAL, grasp_approach, ground, lattice_captures, place_approach,
    room_lattice,
)
from homefetch.config import RunConfig
from homefetch.eventlog import canonical_json
from homefetch.geometry import Rect, norm_angle
from homefetch.language import ONTO, TO, parse
from homefetch.layouts import TABLE_LEVEL, forget_memos
from homefetch.relations import (
    NoDistinguishingDescription, attrs_match, relation_holds,
)
from homefetch.seeds import h64, substream
from homefetch.session import run_session
from homefetch.taskgen import (
    CAPTURE_RING_POSES,
    CAPTURE_RING_RADIUS_M,
    GenConfig,
    GenerationFailed,
    NoFeasibleTask,
    NoViewpoint,
    PlacementExhausted,
    TaskSpec,
    _capture_for,
    _clamped_poisson,
    build_environment,
    capture_views,
    episode_record,
    export_dataset,
    generate_task,
    make_instruction,
    select_task,
    task_feasible,
    validate_episode,
)
from homefetch.vocab import DEFAULT
from homefetch.world import (
    DYNAMIC,
    SURFACE,
    CameraPose,
    Pose,
    _subjects,
    env_record,
    point_in_room,
    sees,
    validate_environment,
    visible_objects,
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
            target, dest = select_task(env, substream("t", 8, i))
            counts[target] += 1
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
            target, dest = select_task(env, rng)
            obj = env.objects[target]
            room = point_in_room(env, obj.pose.x, obj.pose.y)
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


class TestCaptureViews:
    def test_ring_pose_and_subject_visible(self):
        env, task = generate_task(GenConfig(), 4)
        t_cap, d_cap = capture_views(env, task.target, task.destination)
        obj = env.objects[task.target]
        cam = t_cap.camera.pose
        r = math.hypot(cam.x - obj.pose.x, cam.y - obj.pose.y)
        assert r == pytest.approx(1.5)
        assert any(s.object_id == task.target for s in t_cap.snapshots)
        assert t_cap.subject == task.target
        assert d_cap.subject == task.destination
        assert any(s.object_id == task.destination for s in d_cap.snapshots)
        # camera faces the subject
        want = math.atan2(obj.pose.y - cam.y, obj.pose.x - cam.x)
        assert math.cos(cam.theta - want) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        env, task = generate_task(GenConfig(), 4)
        a = capture_views(env, task.target, task.destination)
        b = capture_views(env, task.target, task.destination)
        assert a == b

    def test_no_ring_pose_sees_into_a_small_room(self):
        """Every pose of the 1.5 m ring lies outside a 1 m room, so a wall
        blocks each sight line to the subject."""
        t = table("t0", Rect(0.3, 0.3, 0.7, 0.7))
        env = make_env(room=Rect(0.0, 0.0, 1.0, 1.0), furniture=(t,),
                       objects=(ball("o0", (0.5, 0.5), radius=0.05),))
        with pytest.raises(NoViewpoint, match="o0"):
            capture_views(env, "o0", "t0/top")
        with pytest.raises(NoViewpoint, match="t0/top"):
            _capture_for(env, "t0/top", SURFACE, t, t.surfaces[0].region.center)

    def test_generation_moves_past_a_candidate_with_no_viewpoint(
            self, monkeypatch):
        """The first candidate to reach the ring captures, which the
        generator would otherwise accept, finds no pose: the generator
        drops it and returns a later candidate's task."""
        seed = h64("session", 4, 0)
        _, accepted = generate_task(GenConfig(), seed)
        orig = taskgen.capture_views
        drawn, views = [], []

        def first_fails(env, target, destination):
            drawn.append((target, destination))
            if len(drawn) == 1:
                raise NoViewpoint(target)
            views.append(orig(env, target, destination))
            return views[-1]

        monkeypatch.setattr(taskgen, "capture_views", first_fails)
        _, task = generate_task(GenConfig(), seed)
        assert drawn[0] == (accepted.target, accepted.destination)
        assert len(drawn) >= 2
        assert (task.target, task.destination) == drawn[-1]
        assert (task.target_capture, task.destination_capture) == views[-1]


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
            snaps = task.target_capture.snapshots
            supports = task.target_capture.supports
            cands = [s.object_id for s in snaps if s.kind == DYNAMIC
                     and attrs_match(m.target, s)
                     and (m.relation is None or any(
                         attrs_match(m.relation.landmark, lm)
                         and relation_holds(m.relation.kind, s, lm, supports)
                         for lm in snaps))]
            assert cands == [task.target], seed
            d_snaps = task.destination_capture.snapshots
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
            caps = lattice_captures(env, task.room)
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
    before it takes the ring captures; `task_feasible` would reject every
    such candidate anyway.  The ring captures probe each pose for the
    subject alone (the ring probe) and see in full only the pose that
    passes."""

    @pytest.mark.parametrize("master", [7, 4],
                             ids=["run-seed7", "generate-seed4"])
    def test_equals_reference(self, master):
        """Equal to `reference_generate_task`, which has neither the
        lattice check nor the ring probe: every candidate gets full-view
        ring captures and a description."""
        cfg = RunConfig(seed=master).gen
        for i in range(20):
            seed = h64("session", master, i)
            env, task = generate_task(cfg, seed)
            ref_env, ref_task = reference_generate_task(cfg, seed)
            assert env_record(env) == env_record(ref_env)
            assert task == ref_task
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
        rejects in `capture_views`, `make_instruction` or `task_feasible`."""
        draws = []  # [env, target, destination, rng after the draw, kept]
        orig_select = taskgen.select_task
        orig_views = taskgen.capture_views

        def select(env, rng):
            target, destination = orig_select(env, rng)
            after = random.Random()
            after.setstate(rng.getstate())
            draws.append([env, target, destination, after, False])
            return target, destination

        def views(env, target, destination):
            assert draws[-1][:3] == [env, target, destination]
            draws[-1][4] = True
            return orig_views(env, target, destination)

        monkeypatch.setattr(taskgen, "select_task", select)
        monkeypatch.setattr(taskgen, "capture_views", views)
        monkeypatch.setattr(taskgen, "task_feasible", lambda *a: False)
        cfg = GenConfig()
        for master in (3, 7, 11, 17):
            for i in range(3):
                with pytest.raises(GenerationFailed):
                    generate_task(cfg, h64("session", master, i))
        monkeypatch.undo()

        dropped = [d for d in draws if not d[4]]
        assert len(draws) == 600
        assert 0 < len(dropped) < len(draws)
        for env, target, destination, rng, _ in dropped:
            obj = env.objects[target]
            room = point_in_room(env, obj.pose.x, obj.pose.y)
            try:
                t_cap, d_cap = capture_views(env, target, destination)
                ast, text = make_instruction(env, target, destination,
                                             t_cap, d_cap, rng, cfg)
            except (NoViewpoint, NoDistinguishingDescription):
                continue
            task = TaskSpec(target, destination, room, t_cap, d_cap, ast, text)
            assert not task_feasible(env, task, cfg), (target, destination)

    def test_shortcuts_fire(self, monkeypatch):
        """Both shortcuts do their work: on sessions 0-19 of `generate
        --seed 4`, the generator sees no more lattices (`visible_batch`)
        and fewer full views (`visible_objects`) than the reference; it
        sees at most one full view per ring capture kept, and never a
        room's lattice for a destination that lattice cannot see."""
        calls = Counter()
        last_draw = []

        def counted(name):
            orig = getattr(agent, name)

            def wrapper(*args):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(agent, name, wrapper)

        counted("visible_batch")
        counted("visible_objects")
        orig_select = taskgen.select_task
        orig_views = taskgen.capture_views
        orig_lattice = taskgen.lattice_captures

        def select(env, rng):
            last_draw[:] = orig_select(env, rng)
            return tuple(last_draw)

        def views(env, target, destination):
            calls["capture_views"] += 1
            return orig_views(env, target, destination)

        def lattice(env, room):
            # The reference draws through its own `select_task`.
            if last_draw:
                assert last_draw[1] in room_lattice(env, room).surfaces
            return orig_lattice(env, room)

        monkeypatch.setattr(taskgen, "select_task", select)
        monkeypatch.setattr(taskgen, "capture_views", views)
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
        assert new["visible_objects"] < calls["visible_objects"]
        assert new["visible_objects"] <= 2 * new["capture_views"]


class TestRingProbe:
    """`_capture_for` asks `sees` about its subject at each ring pose and
    sees only the first pose that passes in full."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           per_room=st.floats(1.0, 8.0))
    def test_probe_is_the_contract(self, seed, per_room):
        """Over generated scenes, for every subject: at each ring pose the
        probe says yes exactly when `visible_objects` shows the subject, and
        the capture equals the full-view walk's, or both find no pose."""
        try:
            env = build_environment(GenConfig(objects_per_room=per_room), seed)
        except PlacementExhausted:
            return
        for sid, kind, source, ref in _subjects(env):
            for k in range(CAPTURE_RING_POSES):
                ang = 2.0 * math.pi * k / CAPTURE_RING_POSES
                cam = CameraPose(Pose(
                    ref[0] + CAPTURE_RING_RADIUS_M * math.cos(ang),
                    ref[1] + CAPTURE_RING_RADIUS_M * math.sin(ang),
                    norm_angle(ang + math.pi)))
                shown = [s.object_id for s in visible_objects(env, cam)]
                assert (sees(env, cam, kind, source, ref) is not None) == \
                    (sid in shown)
            env.memo.clear()
            try:
                cap = _capture_for(env, sid, kind, source, ref)
            except NoViewpoint:
                cap = None
            env.memo.clear()
            try:
                ref_cap = reference_capture_for(env, sid, ref)
            except NoViewpoint:
                ref_cap = None
            assert cap == ref_cap
