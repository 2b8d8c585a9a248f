import math
import struct
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ball, lattice_points, make_env, reference_room_lattice, room_layout,
    scene, scenes, sighting, table, trace_bits,
)
from homefetch import world
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
    _follow_path,
    _rotate_exact,
    NoiseConfig,
    Pick,
    captured,
    RoomLattice,
    crawl,
    detect,
    drive_straight,
    estimated_position,
    fetch,
    find_approach,
    follow_path,
    ground,
    lattice_captures,
    navigate_to_room,
    room_lattice,
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
from homefetch.taskgen import (
    GenConfig, PlacementExhausted, build_environment, generate_task,
)
from homefetch.vocab import DEFAULT
from homefetch.world import (
    DT_S,
    DYNAMIC,
    INFLATE_MARGIN_M,
    SURFACE,
    CameraPose,
    Pose,
    Rect,
    StaticObject,
    SupportSurface,
    build_grid,
    grid_for,
    point_in_room,
    step as world_step,
    visible_batch,
    visible_objects,
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
        assert lattice_points(env, "r0") == [
            (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0),
            (4.0, 2.0), (3.0, 2.0), (2.0, 2.0), (1.0, 2.0),
            (1.0, 3.0), (2.0, 3.0), (3.0, 3.0), (4.0, 3.0),
        ]

    def test_furniture_blocks_points(self):
        t = table("t0", footprint=Rect(1.8, 0.7, 3.0, 1.5))
        env = make_env(room=Rect(0, 0, 5, 4), furniture=(t,))
        pts = lattice_points(env, "r0")
        assert (2.0, 1.0) not in pts
        assert (3.0, 1.0) not in pts
        assert (1.0, 1.0) in pts and (2.0, 2.0) in pts
        assert len(pts) == 10

    def test_each_point_takes_every_heading(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        cams = room_lattice(env, "r0").cameras
        assert cams == tuple(CameraPose(Pose(x, y, h))
                             for x, y in lattice_points(env, "r0")
                             for h in HEADINGS)

    def test_one_frozen_entry_shared_by_every_call(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        lattice = room_lattice(env, "r0")
        assert room_lattice(scene(env.layout), "r0") is lattice
        assert isinstance(lattice.cameras, tuple)
        with pytest.raises(FrozenInstanceError):
            lattice.cameras = ()
        assert len(lattice.cameras) == 4 * 12

    def test_crawl_memo_lives_on_the_grid(self):
        env = make_env(room=Rect(0, 0, 5, 4), layout_id="lattice-memo")
        lattice = room_lattice(env, "r0")
        grid = grid_for(env)
        assert [v for k, v in grid.memo.items() if k[0] == "lattice"] == \
            [lattice]
        assert build_grid(env.layout,
                          env.robot.radius + INFLATE_MARGIN_M).memo == {}

    def test_crawl_points_keyed_by_geometry_and_component(self):
        bare = make_env(room=Rect(0, 0, 5, 4), layout_id="shared")
        furnished = make_env(room=Rect(0, 0, 5, 4), layout_id="shared",
                             furniture=(table("t0", Rect(1.8, 0.7, 3.0, 1.5)),))
        assert len(lattice_points(bare, "r0")) == 12
        assert len(lattice_points(furnished, "r0")) == 10
        # Off every free cell the robot is in no component: no lattice.
        bare.robot.pose = Pose(-1.0, -1.0)
        assert room_lattice(bare, "r0") == RoomLattice((), frozenset())

    def test_lattice_captures_shape(self):
        env = make_env(room=Rect(0, 0, 5, 4))
        before = (env.robot.pose, env.clock)
        caps = lattice_captures(env, "r0")
        assert len(caps) == 4 * len(lattice_points(env, "r0"))
        assert tuple(c.camera for c in caps) == room_lattice(env, "r0").cameras
        assert (env.robot.pose, env.clock) == before
        for cap in caps:
            assert any(abs(norm_angle(cap.camera.pose.theta - h)) < 1e-12
                       for h in HEADINGS)

    def test_lattice_captures_are_frozen(self):
        """One lattice is shared by the screen, the crawl and the export,
        so no reader can change what another reads."""
        env = make_env(room=Rect(0, 0, 5, 4),
                       furniture=(table("t0", Rect(1.8, 0.7, 3.0, 1.5)),))
        caps = lattice_captures(env, "r0")
        assert isinstance(caps, tuple) and caps
        with pytest.raises(FrozenInstanceError):
            caps[0].subject = "t0/top"

    def test_captured_keys_on_fov_and_range(self):
        env = make_env(furniture=(table("t0"),),
                       objects=(ball("o0", (2.5, 2.4)),))
        pose = Pose(1.0, 2.5, 0.0)
        assert "o0" in [s.object_id for s in captured(env, CameraPose(pose))]
        narrow = CameraPose(pose, fov=0.01, range=0.5)
        assert visible_objects(env, narrow) == []
        assert captured(env, narrow) == []

    def test_captured_sees_a_held_object_move(self):
        env = make_env(objects=(ball("o0", (1.3, 1.0), None),))
        env.robot.gripper = "o0"
        cam = CameraPose(Pose(1.0, 2.5, -math.pi / 2.0))
        before = captured(env, cam)
        for _ in range(10):  # a quarter turn in place
            world_step(env, 0.0, math.pi, DT_S)
        after = captured(env, cam)
        assert after == visible_objects(env, cam)
        assert [s.object_id for s in after] == ["o0"]
        assert after[0].range < before[0].range - 0.2

    @pytest.mark.parametrize("move", ["grasp", "place", "held step"])
    def test_each_object_move_changes_the_lattice_captures(self, move):
        """After every move of an object, the lattice shows the scene as
        it now stands, one `visible_objects` view per camera."""
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        env = make_env(furniture=(t,), robot_xy=(0.75, 1.0),
                       objects=(ball("o0", (1.3, 1.0), "t0/top", radius=0.05),))
        if move != "grasp":
            world.grasp(env, "o0")
        before = lattice_captures(env, "r0")
        assert before
        if move == "grasp":
            world.grasp(env, "o0")
        elif move == "place":
            world.place(env, "t0/top")
        else:
            world_step(env, 0.0, math.pi, DT_S)
        after = lattice_captures(env, "r0")
        supports = world.capture_supports(env)
        assert after == tuple(Capture(c.camera, visible_objects(env, c.camera),
                                      supports) for c in after)
        assert after != before


class TestLatticeSurfaces:
    """`RoomLattice.surfaces` is the generator's destination pool: the
    surfaces a room's lattice sees with no object in the scene."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           per_room=st.floats(1.0, 8.0))
    def test_holds_every_surface_the_lattice_shows(self, seed, per_room):
        """Over generated scenes, with the grid memo shared across them as
        within one command: every surface in a capture of the room's
        lattice is in the set."""
        try:
            env = build_environment(GenConfig(objects_per_room=per_room), seed)
        except PlacementExhausted:
            return
        for room in env.layout.rooms:
            shown = {s.object_id for c in lattice_captures(env, room.id)
                     for s in c.snapshots if s.kind == SURFACE}
            assert shown <= room_lattice(env, room.id).surfaces

    def test_keyed_by_surface_regions(self):
        """Same walls and footprints, one surface region moved behind a
        cabinet: each layout has its own grid and lattice entry.  Nor is
        the entry shared with a robot in no component, which has no
        lattice."""
        cabinet = StaticObject("c0", "cabinet", Rect(2.95, 1.9, 4.1, 3.1), [])

        def scene(region):
            top = SupportSurface("t0/top", "t0", region, "table-level")
            t0 = StaticObject("t0", "table", Rect(2.0, 2.0, 4.0, 3.0), [top])
            return make_env(furniture=(t0, cabinet), layout_id="moved-top")

        open_top = scene(Rect(2.1, 2.1, 2.9, 2.9))
        hidden_top = scene(Rect(3.1, 2.1, 3.9, 2.9))
        assert grid_for(open_top) is not grid_for(hidden_top)
        assert "t0/top" in room_lattice(open_top, "r0").surfaces
        assert "t0/top" not in room_lattice(hidden_top, "r0").surfaces
        for env in (open_top, hidden_top):
            assert len([k for k in grid_for(env).memo
                        if k[0] == "lattice"]) == 1
        open_top.robot.pose = Pose(-1.0, -1.0)
        assert room_lattice(open_top, "r0").surfaces == frozenset()

    def test_keyed_by_furniture_ids(self):
        """A surface's sight line looks past every piece bearing its
        furniture's id.  A bar with the table's own id hides nothing; with
        an id of its own it hides the table's top from the whole lattice,
        though walls, footprints and surfaces are the same."""
        def scene(bar_id):
            top = SupportSurface("t0/top", "t0", Rect(5.3, 4.3, 5.8, 4.8),
                                 "table-level")
            t0 = StaticObject("t0", "table", Rect(5.2, 4.2, 5.9, 4.9), [top])
            bar = StaticObject(bar_id, "cabinet", Rect(5.05, 0.5, 5.15, 4.9),
                               [])
            return make_env(furniture=(t0, bar), layout_id="bar")

        own, shared = scene("c0"), scene("t0")
        assert room_lattice(own, "r0").surfaces == frozenset()
        assert room_lattice(shared, "r0").surfaces == {"t0/top"}
        for env in (own, shared):
            cams = room_lattice(env, "r0").cameras
            assert visible_batch(env, list(cams)) == \
                [visible_objects(env, c) for c in cams]


class TestRoomLatticeOracle:
    """`room_lattice` equals the lattice as it was built before its cameras
    and surfaces shared one entry (`reference_room_lattice`): the same
    cameras in the same order, and the same surfaces."""

    @settings(max_examples=40, deadline=None)
    @given(env=scenes(), pick=st.integers(0, 2 ** 32))
    def test_random_scenes(self, env, pick):
        """With the robot on a drawn free cell, so that its component and
        the lattice vary."""
        grid = grid_for(env)
        free = np.argwhere(grid.free)
        if len(free):
            iy, ix = free[pick % len(free)].tolist()
            env.robot.pose = Pose(*grid.center(ix, iy))
        for room in env.layout.rooms:
            lattice = room_lattice(env, room.id)
            cams, surfaces = reference_room_lattice(env, room.id)
            assert list(lattice.cameras) == cams
            assert lattice.surfaces == surfaces

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           per_room=st.floats(1.0, 8.0))
    def test_generated_scenes(self, seed, per_room):
        """Over generated scenes, with the grid memo shared across them as
        within one command."""
        try:
            env = build_environment(GenConfig(objects_per_room=per_room), seed)
        except PlacementExhausted:
            return
        for room in env.layout.rooms:
            lattice = room_lattice(env, room.id)
            cams, surfaces = reference_room_lattice(env, room.id)
            assert list(lattice.cameras) == cams
            assert lattice.surfaces == surfaces


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


_LEG_ROOM = Rect(0.0, 0.0, 8.0, 4.0)
_LEG_TABLE = table("t0", Rect(3.5, 1.5, 4.5, 4.0))


def _leg_layout(furniture=(_LEG_TABLE,)):
    """A room with a table against the far wall to stall or collide on."""
    return room_layout(_LEG_ROOM, furniture, layout_id="leg-memo")


def _leg_env(start, clock, layout=None, objects=None):
    """A scene on `layout` (a new `_leg_layout` by default) with a ball on
    the table; the robot at `start` (x, y, theta) at `clock`."""
    if objects is None:
        objects = (ball(xy=(4.0, 2.8)),)
    env = scene(layout or _leg_layout(), objects, start[:2], start[2])
    env.clock = clock
    env.trace = [(-1.0, -1.0, 0.0)]  # a leg extends, never replaces
    env.collisions = 2  # and adds to the count
    return env


def _outcome(env, ok):
    """What a leg leaves on `_leg_env`, every float by its bits."""
    p = env.robot.pose
    return (ok, struct.pack("<4d", p.x, p.y, p.theta, env.clock),
            env.collisions - 2, trace_bits(env.trace))


_coord = st.floats(0.3, 7.7)


@st.composite
def _legs(draw):
    """(memoised entry, uncached body, its argument, start, clock, deadline)."""
    start = (draw(_coord), draw(st.floats(0.3, 3.7)),
             draw(st.floats(-math.pi, math.pi)))
    clock = draw(st.floats(0.0, 100.0))
    deadline = clock + draw(st.floats(0.0, 30.0))
    if draw(st.booleans()):
        return (rotate_exact, _rotate_exact, draw(st.floats(-4.0, 4.0)),
                start, clock, deadline)
    pts = [start[:2]] + draw(st.lists(st.tuples(_coord, st.floats(0.3, 3.7)),
                                      max_size=3))
    length = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
    return (follow_path, _follow_path, Path(pts, length), start, clock,
            deadline)


class TestLegMemo:
    @settings(max_examples=40, deadline=None)
    @given(leg=_legs())
    def test_hit_equals_uncached_leg(self, leg):
        memoised, body, arg, start, clock, deadline = leg
        uncached = _leg_env(start, clock)
        want = _outcome(uncached, body(uncached, arg, deadline))
        layout = _leg_layout()
        first = _leg_env(start, clock, layout)
        assert _outcome(first, memoised(first, arg, deadline)) == want
        memo = grid_for(first).memo
        stored = len(memo)
        again = _leg_env(start, clock, layout)
        assert _outcome(again, memoised(again, arg, deadline)) == want
        # A hit stores nothing and restores the stored Pose object itself.
        assert len(memo) == stored
        assert again.robot.pose is first.robot.pose

    @pytest.mark.parametrize("change", [
        "nothing", "radius", "max_linear", "max_angular", "x", "y", "theta",
        "clock", "signed zero", "deadline", "waypoint", "total_length",
        "heading", "geometry"])
    def test_each_key_field_misses(self, change):
        """A leg stores a new entry exactly when one field of its key
        changes; the float fields move by one ulp, or from 0.0 to -0.0."""
        def up(v):
            return math.nextafter(v, math.inf)

        shared = _leg_layout()

        def stores(leg, start=(1.0, 1.0, 0.0), clock=0.0, deadline=40.0,
                   path=Path([(1.0, 1.0), (6.0, 1.0), (6.0, 3.0)], 7.0),
                   heading=1.0, layout=shared, scaled=None, theta=None):
            env = _leg_env(start, clock, layout)
            if theta is not None:  # past Pose's wrap, which rounds an ulp
                env.robot.pose.theta = theta
            if scaled is not None:
                name, factor = scaled
                setattr(env.robot, name, getattr(env.robot, name) * factor)
            memo = grid_for(env).memo
            before = len(memo)
            leg(env, path if leg is follow_path else heading, deadline)
            return len(memo) > before

        changed = {
            "nothing": {},
            "radius": {"scaled": ("radius", 0.96)},
            "max_linear": {"scaled": ("max_linear", 0.96)},
            "max_angular": {"scaled": ("max_angular", 0.96)},
            "x": {"start": (up(1.0), 1.0, 0.0)},
            "y": {"start": (1.0, up(1.0), 0.0)},
            "theta": {"theta": up(0.0)},
            "clock": {"clock": up(0.0)},
            "signed zero": {"clock": -0.0},
            "deadline": {"deadline": up(40.0)},
            "waypoint": {"path": Path([(1.0, 1.0), (6.0, up(1.0)),
                                       (6.0, 3.0)], 7.0)},
            "total_length": {"path": Path([(1.0, 1.0), (6.0, 1.0),
                                           (6.0, 3.0)], up(7.0))},
            "heading": {"heading": up(1.0)},
            "geometry": {"layout": _leg_layout(
                (table("t0", Rect(3.5, 1.6, 4.5, 4.0)),))},
        }[change]
        legs = {"waypoint": (follow_path,), "total_length": (follow_path,),
                "heading": (rotate_exact,)}.get(change,
                                                (follow_path, rotate_exact))
        for leg in legs:
            assert stores(leg)  # cold
            assert stores(leg, **changed) == (change != "nothing")

    def test_held_object_or_no_trace_is_never_stored(self):
        path = Path([(1.0, 1.0), (3.0, 1.0)], 2.0)
        layout = _leg_layout()
        held = _leg_env((1.0, 1.0, 0.0), 0.0, layout,
                        objects=(ball(xy=(1.25, 1.0), support=None),))
        held.robot.gripper = "o0"
        assert follow_path(held, path, 40.0)
        assert rotate_exact(held, 1.0, 40.0)
        untraced = _leg_env((1.0, 1.0, 0.0), 0.0, layout)
        untraced.trace = None
        assert follow_path(untraced, path, 40.0)
        assert rotate_exact(untraced, 1.0, 40.0)
        assert grid_for(held).memo == {}
        assert grid_for(untraced) is grid_for(held)
        assert held.objects["o0"].pose.xy != (1.25, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(leg=_legs(), xy=st.tuples(_coord, st.floats(0.3, 3.7)),
           on_table=st.booleans())
    def test_dynamic_objects_do_not_change_a_leg(self, leg, xy, on_table):
        """Why the key leaves dynamic objects out: moving or re-parenting
        them leaves an uncached leg exactly as it was."""
        _, body, arg, start, clock, deadline = leg
        base = _leg_env(start, clock)
        moved = _leg_env(start, clock, objects=(
            ball(xy=xy, support="t0/top" if on_table else None),
            ball("o1", xy=(4.2, 2.0))))
        assert _outcome(moved, body(moved, arg, deadline)) == \
            _outcome(base, body(base, arg, deadline))

    def test_memo_is_capped_oldest_first(self, monkeypatch):
        """Plans and legs share one cap and leave oldest first."""
        monkeypatch.setattr(world, "MEMO_CAP", 3)
        layout = _leg_layout()
        memo = grid_for(_leg_env((1.0, 1.0, 0.0), 0.0, layout)).memo
        stored = []
        for k in range(3):
            plan_path(_leg_env((1.0, 1.0, 0.0), 0.0, layout), (1.0, 1.0),
                      (2.0 + k, 1.0))
            rotate_exact(_leg_env((1.0, 1.0, 0.0), 0.0, layout),
                         0.5 * (k + 1), 40.0)
            stored += list(memo)[-2:]
        assert [key[0] for key in stored] == ["plan", _rotate_exact] * 3
        assert len(set(stored)) == 6
        assert list(memo) == stored[-3:]


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
        assert navigate_to_room(env, "study", 0.5, events=[]) is False


class TestCrawl:
    def test_completed_crawl_is_the_lattice(self):
        """When the deadline does not cut it short, the crawl hands back the
        captures of the lattice it was given, which is the lattice of the
        room in the scene the robot reached."""
        env, task = generate_task(GenConfig(), h64("session", 7, 0))
        assert navigate_to_room(env, task.room, 300.0, events=[])
        caps = crawl(env, task.lattice, 300.0, events=[])
        assert task.lattice == lattice_captures(env, task.room)
        assert len(caps) == len(task.lattice) > 0
        assert all(got is want for got, want in zip(caps, task.lattice))

    def test_deadline_cuts_the_crawl_short(self):
        env, task = generate_task(GenConfig(), h64("session", 7, 1))
        assert navigate_to_room(env, task.room, 300.0, events=[])
        caps = crawl(env, task.lattice, env.clock + 5.0, events=[])
        assert 0 < len(caps) < len(task.lattice)
        assert tuple(caps) == task.lattice[:len(caps)]


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
