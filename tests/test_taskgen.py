import json
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from helpers import ball, make_env, table
from homefetch.agent import (
    RELATIONAL, grasp_approach, ground, lattice_captures, place_approach,
)
from homefetch.config import RunConfig
from homefetch.eventlog import canonical_json
from homefetch.language import ONTO, TO, parse
from homefetch.layouts import TABLE_LEVEL
from homefetch.relations import attrs_match, relation_holds
from homefetch.seeds import h64, substream
from homefetch.session import run_session
from homefetch.taskgen import (
    GenConfig,
    GenerationFailed,
    NoFeasibleTask,
    TaskSpec,
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
            GenConfig(seed=-1)
        with pytest.raises(ValueError):
            GenConfig(seed=2 ** 64)
        with pytest.raises(ValueError):
            GenConfig(seed=1, min_objects=5, max_objects=3)
        with pytest.raises(ValueError):
            GenConfig(seed=1, min_objects=1, objects_per_room=0.5)
        with pytest.raises(ValueError):
            GenConfig(seed=1, color_presence=1.5)
        with pytest.raises(ValueError, match="layout_id"):
            GenConfig(seed=1, layout_id="nope")
        GenConfig(seed=1, min_objects=0, objects_per_room=0.0)


class TestBuildEnvironment:
    def test_deterministic(self):
        cfg = GenConfig(seed=31)
        a = env_record(build_environment(cfg))
        b = env_record(build_environment(cfg))
        assert canonical_json(a) == canonical_json(b)

    def test_seed_changes_scene(self):
        a = env_record(build_environment(GenConfig(seed=1)))
        b = env_record(build_environment(GenConfig(seed=2)))
        assert a != b

    def test_counts_and_ids(self):
        cfg = GenConfig(seed=5, min_objects=1, max_objects=8)
        env = build_environment(cfg)
        rooms = {r.id: 0 for r in env.rooms}
        for o in env.objects.values():
            rooms[point_in_room(env, o.pose.x, o.pose.y)] += 1
        for n in rooms.values():
            assert 1 <= n <= 8
        ids = sorted(env.objects)
        assert ids == [f"obj_{k:03d}" for k in range(len(ids))]

    def test_validator_clean_many_seeds(self):
        for seed in range(20, 30):
            env = build_environment(GenConfig(seed=seed))
            assert validate_environment(env) == []

    def test_distractor_pair_present(self):
        for seed in range(40, 70):
            env = build_environment(GenConfig(seed=seed))
            per_room = {}
            for o in env.objects.values():
                room = point_in_room(env, o.pose.x, o.pose.y)
                per_room.setdefault(room, []).append(o.category)
            assert any(
                max(Counter(cats).values()) >= 2
                for cats in per_room.values() if cats
            ), seed

    def test_static_only_scene(self):
        cfg = GenConfig(seed=3, objects_per_room=0.0, min_objects=0,
                        max_objects=0)
        env = build_environment(cfg)
        assert env.objects == {}
        with pytest.raises(NoFeasibleTask):
            select_task(env, substream("gen-task", 3, 0))

    def test_attribute_presence_rates(self):
        # pooled over seeds: colors ~0.8, materials ~0.6
        total = with_color = with_material = 0
        for seed in range(200, 230):
            env = build_environment(GenConfig(seed=seed))
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
        env = build_environment(GenConfig(seed=77))
        objs = list(env.objects.values())
        for o in objs:
            region = env.surface(o.support).region
            assert region.inset(o.radius).contains_closed(o.pose.x, o.pose.y)
        for i, a in enumerate(objs):
            for b in objs[i + 1:]:
                d = math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y)
                if a.support == b.support:
                    assert d >= a.radius + b.radius + 0.01 - 1e-9


class TestSelectTask:
    def test_uniform_over_objects(self):
        env = build_environment(GenConfig(seed=8))
        n = len(env.objects)
        assert n >= 4
        counts = Counter()
        draws = 400
        for i in range(draws):
            target, dest = select_task(env, substream("t", 8, i))
            counts[target] += 1
            assert dest != env.objects[target].support
            assert dest in {s.id for s in env.surfaces}
        assert len(counts) == n
        for c in counts.values():
            assert abs(c - draws / n) < 4 * math.sqrt(draws / n)

    def test_no_alternative_surface(self):
        t = table("t0")
        o = ball("o0", (2.5, 2.4), "t0/top")
        env = make_env(furniture=(t,), objects=(o,))
        with pytest.raises(NoFeasibleTask):
            select_task(env, random.Random(1))


class TestCaptureViews:
    def test_ring_pose_and_subject_visible(self):
        env, task = generate_task(GenConfig(seed=4))
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
        env, task = generate_task(GenConfig(seed=4))
        a = capture_views(env, task.target, task.destination)
        b = capture_views(env, task.target, task.destination)
        assert a == b


class TestMakeInstruction:
    def test_generated_tasks_faithful(self):
        for seed in range(100, 130):
            env, task = generate_task(GenConfig(seed=seed))
            ast = task.instruction
            # surface form round-trips
            assert parse(task.text) == ast
            # goto names the target's room
            room = env.room(task.room)
            assert ast.goto.room == room.name
            assert point_in_room(env, *task.target_xy) == task.room
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
            env, task = generate_task(GenConfig(seed=seed))
            m = task.instruction.manip
            if m.source is not None:
                assert m.prep == TO
                hits.add("source")
            elif env.surface(task.destination).height_class == TABLE_LEVEL:
                assert m.prep == ONTO
                hits.add("onto")
            else:
                assert m.prep == TO
                hits.add("floor")
        assert "onto" in hits

    def test_relation_and_source_never_combined(self):
        for seed in range(100, 160):
            _, task = generate_task(GenConfig(seed=seed))
            m = task.instruction.manip
            assert m.relation is None or m.source is None

    def test_distractors_force_descriptors(self):
        # with the duplicate-category guarantee, not every target can be
        # described by its bare category
        enriched = 0
        for seed in range(100, 140):
            _, task = generate_task(GenConfig(seed=seed))
            m = task.instruction.manip
            if (m.target.color is not None or m.target.material is not None
                    or m.relation is not None):
                enriched += 1
        assert enriched > 0


class TestGenerateTask:
    def test_deterministic_episode(self):
        a_env, a_task = generate_task(GenConfig(seed=11))
        b_env, b_task = generate_task(GenConfig(seed=11))
        assert canonical_json(episode_record(0, a_env, a_task)) == \
            canonical_json(episode_record(0, b_env, b_task))

    def test_task_members_valid(self):
        env, task = generate_task(GenConfig(seed=12))
        assert task.target in env.objects
        assert task.destination in {s.id for s in env.surfaces}
        assert task.destination != env.objects[task.target].support
        assert task_feasible(env, task, GenConfig(seed=12))

    def test_impossible_config_raises(self):
        cfg = GenConfig(seed=3, objects_per_room=0.0, min_objects=0,
                        max_objects=0)
        with pytest.raises(GenerationFailed, match="50 attempts"):
            generate_task(cfg)

    def test_failure_names_seed(self):
        cfg = GenConfig(seed=99, objects_per_room=0.0, min_objects=0,
                        max_objects=0)
        with pytest.raises(GenerationFailed, match=r"seed 99"):
            generate_task(cfg)


class TestScreenAgreesWithExecutor:
    def test_screened_approaches_are_the_executed_ones(self):
        """Zero noise: fetch and carry stage and dock where the screen did."""
        cfg = RunConfig(seed=7)
        for i in range(6):
            env, task = generate_task(replace(cfg.gen, seed=h64("session", 7, i)))
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
        env, task = generate_task(GenConfig(seed=13))
        rec = episode_record(0, env, task)
        assert rec["format"] == "homefetch-episode/1"
        assert rec["index"] == 0
        assert validate_episode(rec) == []
        assert rec["instruction"]["text"] == task.text
        assert set(rec["captures"]) == {"target", "destination"}

    def test_validate_flags_tampering(self):
        env, task = generate_task(GenConfig(seed=13))
        rec = episode_record(0, env, task)
        rec["task"]["target"]["id"] = "obj_999"
        assert validate_episode(rec)

    def test_export_roundtrip_bytes(self, tmp_path):
        tasks = [generate_task(GenConfig(seed=s)) for s in (14, 15)]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        m1 = export_dataset(tasks, out1, meta={"seed": 0})
        m2 = export_dataset(tasks, out2, meta={"seed": 0})
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
