import math
from types import SimpleNamespace

import pytest

from helpers import ball, box_walls, make_env, sighting, table
from homefetch.agent import (
    ARRIVE_TOL_M,
    CRAWL_SPACING_M,
    DOCK_CLEARANCE_M,
    GROUNDERS,
    HEADINGS,
    KEYWORD_BASELINE,
    ORACLE,
    RELATIONAL,
    RING_POSES,
    STALL_LIMIT_S,
    STANDOFF_RADII_M,
    Capture,
    NoiseConfig,
    Pick,
    captured,
    crawl,
    crawl_points,
    detect,
    drive_straight,
    estimated_position,
    fetch,
    find_approach,
    follow_path,
    ground,
    lattice_captures,
    navigate_to_room,
    rotate_exact,
)
from homefetch.language import (
    NEAR,
    AttributeSet,
    GotoClause,
    InstructionAst,
    ManipClause,
    SpatialRelation,
)
from homefetch.geometry import norm_angle
from homefetch.layouts import make_environment
from homefetch.planner import Path, plan_path
from homefetch.seeds import KeyedStream, h64
from homefetch.taskgen import GenConfig, generate_task
from homefetch.vocab import DEFAULT
from homefetch.world import (
    DYNAMIC,
    SURFACE,
    CameraPose,
    Pose,
    Rect,
    point_in_room,
)


def test_pinned_constants():
    assert CRAWL_SPACING_M == 1.0
    assert HEADINGS == (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)
    assert STANDOFF_RADII_M == (0.55, 0.61, 0.67, 0.73)
    assert RING_POSES == 16
    assert DOCK_CLEARANCE_M == 0.30
    assert ARRIVE_TOL_M == 0.07
    assert GROUNDERS == ("relational", "keyword-baseline", "oracle")


def test_noise_config_validation():
    NoiseConfig(p_miss=0.0, p_attr=1.0, p_hallucinate=0.5)
    with pytest.raises(ValueError, match="p_miss"):
        NoiseConfig(p_miss=1.5)
    with pytest.raises(ValueError, match="p_hallucinate"):
        NoiseConfig(p_hallucinate=-0.1)


class TestCrawlLattice:
    def test_serpentine_order_empty_room(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        assert crawl_points(env, "r0") == [
            (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0),
            (4.0, 2.0), (3.0, 2.0), (2.0, 2.0), (1.0, 2.0),
            (1.0, 3.0), (2.0, 3.0), (3.0, 3.0), (4.0, 3.0),
        ]

    def test_furniture_blocks_points(self):
        t = table("t0", footprint=Rect(1.8, 0.7, 3.0, 1.5))
        env = make_env(room=Rect(0, 0, 5, 4), furniture=(t,))
        pts = crawl_points(env, "r0")
        assert (2.0, 1.0) not in pts
        assert (3.0, 1.0) not in pts
        assert (1.0, 1.0) in pts and (2.0, 2.0) in pts
        assert len(pts) == 10

    def test_lattice_captures_shape(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        before = (env.robot.pose, env.clock)
        caps = lattice_captures(env, "r0")
        assert len(caps) == 4 * len(crawl_points(env, "r0"))
        assert (env.robot.pose, env.clock) == before
        for cap in caps:
            assert any(abs(norm_angle(cap.camera.pose.theta - h)) < 1e-12
                       for h in HEADINGS)

    def test_captured_memoized_until_scene_changes(self):
        t = table("t0")
        env = make_env(furniture=(t,), objects=(ball("o0", (2.5, 2.4)),))
        cam = CameraPose(Pose(1.0, 1.0, 0.5))
        a = captured(env, cam)
        assert captured(env, cam) is a
        env.scene_version += 1
        b = captured(env, cam)
        assert b is not a and b == a


def _capture(snaps, cam=None):
    cam = cam or CameraPose(Pose(0.0, 0.0, 0.0))
    return Capture(cam, list(snaps), supports={})


class TestDetect:
    def test_zero_noise_is_identity(self):
        caps = [_capture([sighting("o0", color="red"),
                          sighting("s0", kind=SURFACE, category="table")])]
        stream = KeyedStream("noise", 1)
        dets = detect(caps[0], 0, NoiseConfig(), stream)
        assert dets == caps[0].snapshots

    def test_certain_miss_drops_everything(self):
        cap = _capture([sighting("o0"), sighting("o1")])
        dets = detect(cap, 0, NoiseConfig(p_miss=1.0), KeyedStream("noise", 1))
        assert dets == []

    def test_certain_attr_flip_changes_set_attrs(self):
        cap = _capture([sighting("o0", color="red", material="metal")])
        dets = detect(cap, 3, NoiseConfig(p_attr=1.0), KeyedStream("noise", 1))
        (d,) = dets
        assert d.color != "red" and d.color in DEFAULT.colors
        assert d.material != "metal" and d.material in DEFAULT.materials
        assert (d.category, d.bearing, d.range) == ("bottle", 0.0, 1.0)

    def test_attr_flip_skips_unset_attrs(self):
        cap = _capture([sighting("o0", color=None, material=None)])
        (d,) = detect(cap, 0, NoiseConfig(p_attr=1.0), KeyedStream("noise", 1))
        assert d.color is None and d.material is None

    def test_certain_hallucination_adds_one_phantom(self):
        cap = _capture([sighting("o0")])
        dets = detect(cap, 2, NoiseConfig(p_hallucinate=1.0),
                      KeyedStream("noise", 7))
        assert [d.object_id for d in dets] == ["o0", "phantom_2"]
        ph = dets[-1]
        assert ph.kind == DYNAMIC and ph.category in DEFAULT.objects
        assert abs(ph.bearing) <= cap.camera.fov / 2.0
        assert 0.0 <= ph.range <= cap.camera.range

    def test_miss_is_per_object_not_per_capture(self):
        snaps = [sighting(f"o{i}") for i in range(12)]
        stream = KeyedStream("noise", 42)
        noise = NoiseConfig(p_miss=0.5)
        seen0 = {d.object_id for d in detect(_capture(snaps), 0, noise, stream)}
        seen1 = {d.object_id for d in detect(_capture(snaps), 1, noise, stream)}
        assert seen0 == seen1
        assert 0 < len(seen0) < 12

    def test_miss_rates_nest(self):
        snaps = [sighting(f"o{i}") for i in range(30)]
        survivors = {}
        for p in (0.2, 0.5, 0.8):
            stream = KeyedStream("noise", 99)
            dets = detect(_capture(snaps), 0, NoiseConfig(p_miss=p), stream)
            survivors[p] = {d.object_id for d in dets}
        assert survivors[0.8] <= survivors[0.5] <= survivors[0.2]

    def test_deterministic(self):
        cap = _capture([sighting(f"o{i}", color="red") for i in range(6)])
        noise = NoiseConfig(p_miss=0.3, p_attr=0.4, p_hallucinate=0.6)
        a = detect(cap, 1, noise, KeyedStream("noise", 5))
        b = detect(cap, 1, noise, KeyedStream("noise", 5))
        assert a == b


def _ast(target, destination=AttributeSet("table"), relation=None):
    return InstructionAst(
        GotoClause("living room"),
        ManipClause(target=target, destination=destination, relation=relation),
    )


def _dets(*rows):
    """One capture per row; detections are the noise-free snapshots."""
    caps = [_capture(row) for row in rows]
    return caps, [c.snapshots for c in caps]


class TestGroundRelational:
    def test_unique_category(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle"),
             sighting("o1", category="can"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, RELATIONAL)
        assert res.resolved
        assert res.target.id == "o0" and res.target.strict
        assert res.destination.id == "s0" and res.destination.strict
        assert res.target.capture == 0
        assert res.target.detection is dets[0][0]
        assert res.target.camera is caps[0].camera

    def test_tie_breaks_to_lowest_id_non_strict(self):
        caps, dets = _dets(
            [sighting("o5", category="bottle", bearing=-0.2),
             sighting("o2", category="bottle", bearing=0.2),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, RELATIONAL)
        assert res.target.id == "o2"
        assert not res.target.strict
        assert res.resolved

    def test_color_raises_threshold(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle", color="red"),
             sighting("o1", category="bottle", color="blue"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle", color="red")),
                     caps, dets, RELATIONAL)
        assert res.target.id == "o0" and res.target.strict

    def test_wrong_color_alone_abstains(self):
        # only a blue bottle in view: score 1 is below threshold 2
        caps, dets = _dets(
            [sighting("o1", category="bottle", color="blue"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle", color="red")),
                     caps, dets, RELATIONAL)
        assert res.target is None and not res.resolved
        assert res.destination.id == "s0"

    def test_relation_bonus_disambiguates(self):
        # two bottles; only o0 sits near the plate in view space
        caps, dets = _dets(
            [sighting("o0", category="bottle", bearing=0.0, rng=1.0),
             sighting("lm", category="plate", bearing=0.05, rng=1.0),
             sighting("o1", category="bottle", bearing=0.0, rng=3.0),
             sighting("s0", kind=SURFACE, category="table")])
        rel = SpatialRelation(NEAR, AttributeSet("plate"))
        res = ground(_ast(AttributeSet("bottle"), relation=rel),
                     caps, dets, RELATIONAL)
        assert res.target.id == "o0" and res.target.strict

    def test_relation_unmet_abstains(self):
        # a bottle far from the plate: score 1 is below threshold 2
        caps, dets = _dets(
            [sighting("o1", category="bottle", bearing=0.0, rng=3.0),
             sighting("lm", category="plate", bearing=0.05, rng=1.0),
             sighting("s0", kind=SURFACE, category="table")])
        rel = SpatialRelation(NEAR, AttributeSet("plate"))
        res = ground(_ast(AttributeSet("bottle"), relation=rel),
                     caps, dets, RELATIONAL)
        assert res.target is None
        assert res.destination.id == "s0"

    def test_relation_bonus_alone_scores_two(self):
        # a can near the plate scores the relation weight alone, 2: that
        # meets threshold 2 of "bottle near the plate" (one attribute plus
        # one for the relation) and misses threshold 3 of "red bottle ..."
        caps, dets = _dets(
            [sighting("o0", category="can", bearing=0.0, rng=1.0),
             sighting("lm", category="plate", bearing=0.05, rng=1.0),
             sighting("s0", kind=SURFACE, category="table")])
        rel = SpatialRelation(NEAR, AttributeSet("plate"))
        res = ground(_ast(AttributeSet("bottle"), relation=rel),
                     caps, dets, RELATIONAL)
        assert res.target.id == "o0"
        res = ground(_ast(AttributeSet("bottle", color="red"), relation=rel),
                     caps, dets, RELATIONAL)
        assert res.target is None

    def test_abstain_keeps_partial(self):
        caps, dets = _dets(
            [sighting("o0", category="can"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, RELATIONAL)
        assert res.target is None and not res.resolved
        assert res.destination.id == "s0" and res.destination.strict
        assert res.destination.capture == 0

    def test_best_capture_wins(self):
        # same object seen twice; relation only holds in capture 1
        rel = SpatialRelation(NEAR, AttributeSet("plate"))
        caps, dets = _dets(
            [sighting("o0", category="bottle"),
             sighting("s0", kind=SURFACE, category="table")],
            [sighting("o0", category="bottle", bearing=0.3),
             sighting("lm", category="plate", bearing=0.32),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle"), relation=rel),
                     caps, dets, RELATIONAL)
        assert res.target.id == "o0"
        assert res.target.capture == 1
        assert res.target.camera is caps[1].camera
        assert (res.target.detection.bearing, res.target.detection.range) == (0.3, 1.0)
        assert res.destination.capture == 0


class TestGroundKeyword:
    def test_single_occurrence_grounds(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle", color="red"),
             sighting("o1", category="can"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle", color="red")),
                     caps, dets, KEYWORD_BASELINE)
        assert res.target.id == "o0" and res.target.strict
        assert res.destination.id == "s0"

    def test_repeat_sighting_of_same_object_abstains(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle"),
             sighting("s0", kind=SURFACE, category="table")],
            [sighting("o0", category="bottle")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, KEYWORD_BASELINE)
        assert res.target is None and not res.resolved
        assert res.destination.id == "s0"

    def test_two_distinct_objects_abstain(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle"),
             sighting("o1", category="bottle"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, KEYWORD_BASELINE)
        assert res.target is None and not res.resolved

    def test_ignores_attributes(self):
        caps, dets = _dets(
            [sighting("o0", category="bottle", color="blue"),
             sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle", color="red")),
                     caps, dets, KEYWORD_BASELINE)
        assert res.target.id == "o0"


class TestGroundOracle:
    def test_truth_resolves_to_first_sighting(self):
        caps, dets = _dets(
            [sighting("s0", kind=SURFACE, category="table")],
            [sighting("o0", category="bottle", bearing=0.1, rng=2.0)],
            [sighting("o0", category="bottle", bearing=-0.1, rng=1.0)])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, ORACLE,
                     truth=("o0", "s0"))
        assert res.target.id == "o0" and res.target.capture == 1
        assert res.target.detection is caps[1].snapshots[0]
        assert res.destination.capture == 0
        assert res.resolved and res.target.strict and res.destination.strict

    def test_unseen_truth_abstains(self):
        caps, dets = _dets([sighting("s0", kind=SURFACE, category="table")])
        res = ground(_ast(AttributeSet("bottle")), caps, dets, ORACLE,
                     truth=("o9", "s0"))
        assert res.target is None and not res.resolved
        assert res.destination.id == "s0"

    def test_requires_truth(self):
        caps, dets = _dets([sighting("o0")])
        with pytest.raises(ValueError, match="ground-truth"):
            ground(_ast(AttributeSet("bottle")), caps, dets, ORACLE)

    def test_unknown_kind(self):
        caps, dets = _dets([sighting("o0")])
        with pytest.raises(ValueError, match="unknown grounder"):
            ground(_ast(AttributeSet("bottle")), caps, dets, "psychic")


def test_estimated_position():
    cam = CameraPose(Pose(1.0, 2.0, math.pi / 2.0))
    x, y = estimated_position(cam, sighting("o0", bearing=0.1, rng=2.0))
    assert x == pytest.approx(1.0 + 2.0 * math.cos(math.pi / 2.0 + 0.1))
    assert y == pytest.approx(2.0 + 2.0 * math.sin(math.pi / 2.0 + 0.1))


def test_fetch_of_a_phantom_pick_fails_cleanly():
    """A hallucinated id reaches the grasp, which fails; no exception."""
    env = make_env(room=Rect(0, 0, 6, 5), robot_xy=(1.0, 2.5))
    cam = CameraPose(Pose(1.0, 2.5, 0.0))
    phantom = Pick(sighting("phantom_3", bearing=0.0, rng=2.0), 3, cam)
    assert "phantom_3" not in env.objects
    task = SimpleNamespace(target="o0")
    events: list[dict] = []
    assert fetch(env, phantom, task, env.clock + 120.0, events) is False
    grasps = [(e["object"], e["ok"], e.get("reason"))
              for e in events if e["event"] == "grasp"]
    assert grasps == [("phantom_3", False, "NoSuchObject")]
    assert env.robot.gripper is None


class TestMotion:
    def test_rotate_exact_lands_exactly(self):
        env = make_env()
        assert rotate_exact(env, 1.234, deadline=10.0)
        assert env.robot.pose.theta == 1.234
        assert env.clock > 0.0

    def test_rotate_misses_deadline(self):
        env = make_env(theta=0.0)
        assert not rotate_exact(env, math.pi, deadline=0.05)

    def test_drive_straight_exact_landing(self):
        env = make_env(robot_xy=(1.0, 1.0), theta=2.0)
        assert drive_straight(env, (2.3, 1.7), deadline=30.0)
        assert math.hypot(env.robot.pose.x - 2.3,
                          env.robot.pose.y - 1.7) < 1e-12
        want = math.atan2(0.7, 1.3)
        assert env.robot.pose.theta == pytest.approx(want)
        assert env.collisions == 0

    def test_drive_straight_reverse_keeps_heading(self):
        env = make_env(robot_xy=(2.0, 2.0), theta=0.0)
        assert drive_straight(env, (1.4, 2.0), deadline=30.0, reverse=True)
        assert math.hypot(env.robot.pose.x - 1.4,
                          env.robot.pose.y - 2.0) < 1e-12
        # backing up: the target sits behind, so the heading never flips
        assert env.robot.pose.theta == 0.0

    def test_follow_path_reaches_goal_exactly(self):
        env = make_env(room=Rect(0, 0, 10, 1.4), robot_xy=(0.7, 0.7))
        path = plan_path(env, (0.7, 0.7), (9.3, 0.7))
        assert follow_path(env, path, deadline=60.0)
        assert math.hypot(env.robot.pose.x - 9.3,
                          env.robot.pose.y - 0.7) < 1e-12
        assert env.collisions == 0

    def test_follow_path_deadline(self):
        env = make_env(room=Rect(0, 0, 10, 1.4), robot_xy=(0.7, 0.7))
        path = plan_path(env, (0.7, 0.7), (9.3, 0.7))
        assert not follow_path(env, path, deadline=1.0)

    def test_follow_path_detour_is_not_a_stall(self):
        """Heading away from the goal for longer than the stall limit is
        fine while the robot keeps gaining arc along the path."""
        env = make_env(room=Rect(0, 0, 10, 3), robot_xy=(1.0, 1.0))
        pts = [(1.0, 1.0), (9.0, 1.0), (9.0, 2.0), (1.0, 2.0)]
        path = Path(pts, 17.0)
        assert follow_path(env, path, deadline=60.0)
        assert env.robot.pose.xy == (1.0, 2.0)
        assert env.clock > STALL_LIMIT_S

    def test_follow_path_stalls_against_an_obstacle(self):
        """A path straight through furniture stops gaining arc: give up
        long before the deadline."""
        block = table(footprint=Rect(4.0, 0.0, 5.0, 1.4))
        env = make_env(room=Rect(0, 0, 10, 1.4), furniture=(block,),
                       robot_xy=(0.7, 0.7))
        path = Path([(0.7, 0.7), (9.3, 0.7)], 8.6)
        assert not follow_path(env, path, deadline=60.0)
        assert env.clock < 10.0


class TestNavigateToRoom:
    def test_already_inside(self):
        env = make_environment("default")
        events = []
        assert navigate_to_room(env, "living_room", 300.0, events) is True
        assert env.clock == 0.0
        assert events == []

    def test_cross_room(self):
        env = make_environment("default")
        events = []
        assert navigate_to_room(env, "kitchen", 300.0, events) is True
        assert point_in_room(env, env.robot.pose.x, env.robot.pose.y) == "kitchen"
        assert env.clock > 0.0
        assert env.collisions == 0
        (path,) = events
        assert (path["event"], path["purpose"]) == ("path", "navigate:kitchen")
        assert path["clock_s"] == 0.0

    def test_deadline_failure(self):
        env = make_environment("default")
        assert navigate_to_room(env, "study", deadline=0.5) is False


class TestCrawl:
    def test_completed_crawl_is_the_lattice(self):
        """The crawl hands back the lattice's captures, camera poses and
        snapshots alike, when the deadline does not cut it short."""
        env, task = generate_task(GenConfig(seed=h64("session", 7, 0)))
        assert navigate_to_room(env, task.room, 300.0)
        caps = crawl(env, task.room, 300.0)
        lattice = lattice_captures(env, task.room)
        assert len(caps) == len(lattice) > 0
        for got, want in zip(caps, lattice):
            assert got.camera.pose == want.camera.pose
            assert got.snapshots == want.snapshots

    def test_deadline_cuts_the_crawl_short(self):
        env, task = generate_task(GenConfig(seed=h64("session", 7, 0)))
        assert navigate_to_room(env, task.room, 300.0)
        caps = crawl(env, task.room, env.clock + 5.0)
        lattice = lattice_captures(env, task.room)
        assert 0 < len(caps) < len(lattice)
        assert caps == lattice[:len(caps)]


class TestFindApproach:
    def test_first_ring_candidate_in_open_space(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        app = find_approach(env, (2.5, 2.0), max_dist=0.8, los_ignore=None)
        assert app is not None
        assert app.staging == app.dock == (2.5 + 0.55, 2.0)

    def test_max_dist_below_ring_radii(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        assert find_approach(env, (2.5, 2.0), 0.5, None) is None

    def test_wrong_component_rejected(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        assert find_approach(env, (2.5, 2.0), 0.8, None, component=99) is None

    def test_respects_clearance(self):
        # target tucked close to a wall: candidates toward it get skipped
        env = make_env(room=Rect(0, 0, 5, 4))
        app = find_approach(env, (0.5, 2.0), 0.8, None)
        assert app is not None
        for (x, y) in (app.staging, app.dock):
            assert x >= 0.5  # never on the wall side
