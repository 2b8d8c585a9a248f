import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ball,
    brute_force_visible,
    make_env,
    nudge,
    open_plan,
    reference_grid,
    reference_line_of_sight,
    room_layout,
    scene,
    scenes,
    table,
)
from homefetch import world
from homefetch.agent import DOCK_CLEARANCE_M, room_lattice
from homefetch.geometry import Rect, norm_angle, segment_crosses_rect
from homefetch.layouts import make_environment
from homefetch.taskgen import GenConfig, build_environment
from homefetch.world import (
    CAMERA_FOV_RAD,
    CAMERA_RANGE_M,
    DT_S,
    DYNAMIC,
    GRID_RES_M,
    GRIP_OFFSET_M,
    INFLATE_MARGIN_M,
    MAX_ANGULAR_RPS,
    MAX_LINEAR_MPS,
    MIN_SURFACE_AREA_M2,
    REACH_M,
    ROBOT_RADIUS_M,
    SURFACE,
    CameraPose,
    Environment,
    GripperOccupied,
    Layout,
    NoFreePose,
    NoSuchObject,
    NotHolding,
    Occluded,
    OutOfReach,
    Pose,
    RobotState,
    RoomSpec,
    StaticObject,
    SupportSurface,
    SurfaceOutOfReach,
    attach_pose,
    build_grid,
    capture_supports,
    env_record,
    grasp,
    grid_for,
    line_of_sight,
    place,
    place_spot,
    point_blocked,
    point_in_room,
    robot_collides,
    step,
    validate_environment,
    validate_layout,
    visible_batch,
    visible_objects,
)

INFLATE = ROBOT_RADIUS_M + INFLATE_MARGIN_M


def test_pinned_constants():
    assert ROBOT_RADIUS_M == 0.25
    assert REACH_M == 0.80
    assert MAX_LINEAR_MPS == 1.0
    assert MAX_ANGULAR_RPS == math.pi
    assert DT_S == 0.05
    assert CAMERA_FOV_RAD == math.pi / 2
    assert CAMERA_RANGE_M == 3.5
    assert GRIP_OFFSET_M == 0.30
    assert MIN_SURFACE_AREA_M2 == 0.04


def test_pose_theta_normalized():
    assert Pose(0.0, 0.0, 3 * math.pi / 2).theta == pytest.approx(-math.pi / 2)
    assert Pose(0.0, 0.0, math.pi).theta == -math.pi


class TestRooms:
    def test_point_in_room_half_open(self):
        env = make_environment("default")
        assert point_in_room(env, 5.9, 2.6) == "living_room"
        assert point_in_room(env, 6.0, 2.6) == "kitchen"  # shared boundary
        assert point_in_room(env, 3.0, 5.0) == "bedroom"
        assert point_in_room(env, 3.0, 4.999) == "living_room"
        assert point_in_room(env, -1.0, -1.0) is None
        assert point_in_room(env, 10.0, 2.0) is None  # high edge is open

    def test_every_interior_point_in_exactly_one_room(self):
        env = make_environment("default")
        rng = random.Random(7)
        for _ in range(500):
            x, y = rng.uniform(0, 9.999), rng.uniform(0, 7.999)
            hits = [r.id for r in env.layout.rooms if r.bounds.contains(x, y)]
            assert len(hits) == 1
            assert point_in_room(env, x, y) == hits[0]

    def test_door_anchor_sides(self):
        env = make_environment("default")
        door = next(d for d in env.layout.doors if d.id == "door_lk")
        lr = env.layout.room("living_room")
        k = env.layout.room("kitchen")
        assert door.anchor_in(lr, 0.7) == pytest.approx((5.3, 2.6))
        assert door.anchor_in(k, 0.7) == pytest.approx((6.7, 2.6))


class TestLineOfSight:
    def test_wall_blocks(self):
        env = make_environment("default")
        # across the living-room / kitchen wall, away from the door gap
        assert not line_of_sight(env, (5.0, 0.8), (7.0, 0.8))
        # through the door gap (y in 2.0..3.2)
        assert line_of_sight(env, (5.0, 2.6), (7.0, 2.6))

    def test_furniture_blocks_unless_ignored(self):
        t = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        env = make_env(furniture=(t,))
        a, b = (1.0, 2.5), (4.0, 2.5)
        assert not line_of_sight(env, a, b)
        assert line_of_sight(env, a, b, ignore={"t0"})

    def test_object_blocks_unless_ignored(self):
        t = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        o = ball("o0", (2.5, 2.5), "t0/top", radius=0.08)
        env = make_env(furniture=(t,), objects=(o,))
        a, b = (1.0, 2.5), (4.0, 2.5)
        assert not line_of_sight(env, a, b, ignore={"t0"})
        assert line_of_sight(env, a, b, ignore={"t0", "o0"})

    def test_identical_endpoints(self):
        env = make_env()
        assert line_of_sight(env, (1.0, 1.0), (1.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2**32 - 1))
    def test_equals_reference_on_random_scenes(self, env, seed):
        """The box prefilter skips no rectangle or disk the exact tests
        would find blocking, on the segments where it could."""
        rng = random.Random(seed)
        env = scene(env.layout, objects=_disks(env, rng))
        ids = ([f.id for f in env.layout.furniture] + list(env.objects))
        for a, b in _sight_segments(env, rng, 300):
            ignore = frozenset(i for i in ids if rng.random() < 0.3)
            assert line_of_sight(env, a, b, ignore) == \
                reference_line_of_sight(env, a, b, ignore), (a, b, ignore)

    def test_short_line_tests_only_rectangles_near_it(self, monkeypatch):
        """The exact rectangle test runs only where the segment's box meets
        the rectangle's: the prefilter, counted rather than timed."""
        env = make_environment("default")
        tested = []

        def counted(ax, ay, bx, by, r):
            tested.append(r)
            return segment_crosses_rect(ax, ay, bx, by, r)

        monkeypatch.setattr(world, "segment_crosses_rect", counted)
        a, b = (2.4, 1.6), (3.2, 2.4)  # in the living room, to its table
        assert not line_of_sight(env, a, b)
        assert not reference_line_of_sight(env, a, b)
        meets = [r for r in env.layout.obstacles
                 if r.x0 <= b[0] and a[0] <= r.x1
                 and r.y0 <= b[1] and a[1] <= r.y1]
        assert len(meets) == 1 and len(env.layout.obstacles) == 24
        assert 0 < len(tested) <= len(meets)


def _disks(env, rng: random.Random) -> tuple:
    """Up to four disks anywhere in the scene's rooms, some on a table."""
    rooms = [r.bounds for r in env.layout.rooms]
    owners = [s.id for s in env.layout.surfaces] + [None]
    out = []
    for k in range(rng.randrange(5)):
        b = rng.choice(rooms)
        out.append(ball(f"o{k}", (rng.uniform(b.x0, b.x1),
                                  rng.uniform(b.y0, b.y1)),
                        rng.choice(owners), radius=rng.uniform(0.02, 0.4)))
    return tuple(out)


def _sight_segments(env, rng: random.Random, n: int) -> list[tuple]:
    """Segments where a box test could differ from the exact one: ending
    on an edge or a corner, or within the margin of one, sliding along an
    edge, parallel to an axis, of zero length, passing within 1e-12 of a
    disk's radius, and ending within the margin of a disk's rim along an
    axis; endpoints sometimes nudged by a float step or two."""
    rects = list(env.layout.obstacles)
    disks = list(env.objects.values())
    lo_x = min(r.bounds.x0 for r in env.layout.rooms) - 0.5
    hi_x = max(r.bounds.x1 for r in env.layout.rooms) + 0.5
    lo_y = min(r.bounds.y0 for r in env.layout.rooms) - 0.5
    hi_y = max(r.bounds.y1 for r in env.layout.rooms) + 0.5

    def anywhere():
        return (rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))

    segs = []
    while len(segs) < n:
        kind = rng.randrange(5)
        if kind == 0 and rects:  # ends on an edge or a corner
            r = rng.choice(rects)
            ex, ey = rng.choice(((r.x0, r.y0), (r.x1, r.y0), (r.x0, r.y1),
                                 (r.x1, r.y1), (r.x0, rng.uniform(r.y0, r.y1)),
                                 (rng.uniform(r.x0, r.x1), r.y1)))
            if rng.random() < 0.5:
                ex += rng.uniform(-2e-9, 2e-9)
                ey += rng.uniform(-2e-9, 2e-9)
            segs.append((anywhere(), (ex, ey)))
        elif kind == 1 and rects:  # slides along an edge, past its ends
            r = rng.choice(rects)
            if rng.random() < 0.5:
                x = rng.choice((r.x0, r.x1))
                segs.append(((x, r.y0 + rng.uniform(-1.0, 1.0)),
                             (x, r.y1 + rng.uniform(-1.0, 1.0))))
            else:
                y = rng.choice((r.y0, r.y1))
                segs.append(((r.x0 + rng.uniform(-1.0, 1.0), y),
                             (r.x1 + rng.uniform(-1.0, 1.0), y)))
        elif kind == 2:  # parallel to an axis
            (ax, ay), (bx, by) = anywhere(), anywhere()
            segs.append(((ax, ay), (ax, by) if rng.random() < 0.5
                         else (bx, ay)))
        elif kind == 3:  # zero length
            a = anywhere()
            segs.append((a, a))
        elif disks and rng.random() < 0.5:  # ends at a rim, from outside
            o = rng.choice(disks)
            ux, uy = rng.choice(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                                 (0.0, -1.0)))
            reach = o.radius + rng.uniform(-2e-9, 2e-9)
            ex, ey = o.pose.x + ux * reach, o.pose.y + uy * reach
            out = rng.uniform(0.1, 2.0)
            side = rng.uniform(-0.5, 0.5)
            segs.append(((ex, ey), (ex + ux * out + uy * side,
                                    ey + uy * out + ux * side)))
        elif disks:  # a tangent, or within 1e-12 of one
            o = rng.choice(disks)
            off = o.radius + rng.choice((-1e-12, 0.0, 1e-12))
            ang = rng.choice((0.0, math.pi / 2.0, rng.uniform(-math.pi,
                                                               math.pi)))
            c, s_ = math.cos(ang), math.sin(ang)
            mx, my = o.pose.x - off * s_, o.pose.y + off * c
            la, lb = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            segs.append(((mx - la * c, my - la * s_), (mx + lb * c, my + lb * s_)))
        if segs and rng.random() < 0.3:
            (ax, ay), (bx, by) = segs[-1]
            segs[-1] = ((nudge(ax, rng), nudge(ay, rng)),
                        (nudge(bx, rng), nudge(by, rng)))
    return segs


class TestVisibleObjects:
    def test_small_frozen_scene(self):
        t = table("t0", Rect(1.8, 0.7, 3.0, 1.5))
        o = ball("o0", (2.6, 1.2), "t0/top", radius=0.05)
        env = make_env(furniture=(t,), objects=(o,), robot_xy=(1.0, 1.1))
        cam = CameraPose(pose=Pose(1.0, 1.1, 0.0))
        snaps = visible_objects(env, cam)
        ids = [s.object_id for s in snaps]
        # the ball is seen over its own table; the surface over its furniture
        assert ids == ["t0/top", "o0"]
        s_snap, o_snap = snaps
        assert s_snap.kind == SURFACE
        assert s_snap.range == pytest.approx(1.4)  # region centre (2.4, 1.1)
        assert s_snap.bearing == pytest.approx(0.0)
        assert o_snap.kind == DYNAMIC
        assert o_snap.range == pytest.approx(math.hypot(1.6, 0.1))
        assert o_snap.bearing == pytest.approx(math.atan2(0.1, 1.6))

    def test_out_of_range_and_fov(self):
        env = make_env(room=Rect(0.0, 0.0, 10.0, 4.0),
                       furniture=(table("t0", Rect(8.0, 1.0, 9.0, 2.0)),),
                       objects=(ball("o0", (8.5, 1.5), "t0/top"),),
                       robot_xy=(1.0, 1.5))
        # range to the ball is 7.5 m >> 3.5 m
        assert visible_objects(env, CameraPose(pose=Pose(1.0, 1.5, 0.0))) == []
        near = make_env(room=Rect(0.0, 0.0, 10.0, 4.0),
                        furniture=(table("t0", Rect(2.0, 1.0, 3.0, 2.0)),),
                        objects=(ball("o0", (2.5, 1.5), "t0/top"),),
                        robot_xy=(1.0, 1.5))
        # facing away: subject sits behind the fov cone
        assert visible_objects(near, CameraPose(pose=Pose(1.0, 1.5, math.pi))) == []

    def test_matches_brute_force_on_random_scenes(self):
        rng = random.Random(99)
        for i in range(8):
            cfg = GenConfig(objects_per_room=2.0, min_objects=0, max_objects=2)
            env = build_environment(cfg, 1000 + i)
            grid = grid_for(env)
            free = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                    if grid.free[iy, ix]]
            for _ in range(3):
                ix, iy = free[rng.randrange(len(free))]
                x, y = grid.center(ix, iy)
                cam = CameraPose(pose=Pose(x, y, rng.uniform(-math.pi, math.pi)))
                got = visible_objects(env, cam)
                want = brute_force_visible(env, cam)
                assert [(s.object_id, s.kind) for s in got] == \
                       [(s.object_id, s.kind) for s in want]
                for g, w in zip(got, want):
                    assert g.bearing == pytest.approx(w.bearing, abs=1e-12)
                    assert g.range == pytest.approx(w.range, abs=1e-12)


def _lattice(env):
    return [cam for r in env.layout.rooms
            for cam in room_lattice(env, r.id).cameras]


def _boundary_cams(env, rng: random.Random) -> list[CameraPose]:
    """Cameras on rectangle corners and edges, at subjects' reference points,
    and with a subject exactly at range and at bearing +-fov/2."""
    cams = []
    for r in env.layout.obstacles:
        for x, y in ((r.x0, r.y0), (r.x1, r.y1), (r.x0, r.center[1]),
                     (r.center[0], r.y1)):
            cams.append(CameraPose(Pose(x, y, rng.uniform(-math.pi, math.pi))))
    refs = ([o.pose.xy for o in env.objects.values()]
            + [s.region.center for s in env.layout.surfaces])
    for rx, ry in refs:
        cams.append(CameraPose(Pose(rx, ry, rng.uniform(-math.pi, math.pi))))
        pose = Pose(rx + rng.uniform(-3.0, 3.0), ry + rng.uniform(-3.0, 3.0),
                    rng.uniform(-math.pi, math.pi))
        dx, dy = rx - pose.x, ry - pose.y
        bearing = norm_angle(math.atan2(dy, dx) - pose.theta)
        cams.append(CameraPose(pose, fov=2.0 * abs(bearing),
                               range=math.hypot(dx, dy)))
    return cams


class TestVisibleBatch:
    """`visible_batch` equals `visible_objects` camera by camera, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cam_seed=st.integers(0, 2**32 - 1),
           empty=st.booleans())
    def test_equals_scalar_on_generated_scenes(self, seed, cam_seed, empty):
        env = build_environment(GenConfig(), seed)
        if empty:
            env.objects.clear()
        rng = random.Random(cam_seed)
        rooms = env.layout.rooms
        b = rooms[rng.randrange(len(rooms))].bounds
        cams = _lattice(env) + _boundary_cams(env, rng) + [
            CameraPose(Pose(rng.uniform(b.x0, b.x1), rng.uniform(b.y0, b.y1),
                            rng.uniform(-math.pi, math.pi)),
                       fov=rng.uniform(0.0, 2.0 * math.pi),
                       range=rng.uniform(0.0, 8.0))
            for _ in range(20)]
        assert visible_batch(env, cams) == [visible_objects(env, c) for c in cams]

    def test_sight_tangent_to_a_disk(self):
        # The line y = 2.25 grazes the 0.25 m disk centred at (3, 2).
        t = table("t0", Rect(4.1, 1.8, 4.9, 2.7))
        env = make_env(furniture=(t,), objects=(
            ball("o0", (3.0, 2.0), None, radius=0.25),
            ball("o1", (4.5, 2.25), "t0/top", radius=0.05)))
        cams = [CameraPose(Pose(1.5, 2.25, 0.0)),
                CameraPose(Pose(1.5, 2.25 - 1e-12, 0.0)),
                CameraPose(Pose(1.5, 2.25 + 1e-12, 0.0))]
        got = visible_batch(env, cams)
        assert got == [visible_objects(env, c) for c in cams]
        assert "o1" in [s.object_id for s in got[0]]
        assert "o1" not in [s.object_id for s in got[1]]

    def test_sight_along_an_edge_and_through_a_corner(self):
        block = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        env = make_env(furniture=(block,), objects=(
            ball("o0", (2.0, 4.0), None), ball("o1", (3.0, 1.0), None),
            ball("o2", (3.5, 3.5), None)))
        slide = CameraPose(Pose(2.0, 1.0, math.pi / 2.0))
        corner = CameraPose(Pose(1.0, 3.0, -math.pi / 4.0))
        through = CameraPose(Pose(1.0, 1.0, math.pi / 4.0))
        got = visible_batch(env, [slide, corner, through])
        assert got == [visible_objects(env, c)
                       for c in (slide, corner, through)]
        assert "o0" in [s.object_id for s in got[0]]
        assert "o1" in [s.object_id for s in got[1]]
        assert "o2" not in [s.object_id for s in got[2]]

    def test_clip_edge_cases(self):
        """Each case where the closed-form clip and the scalar loop take
        different routes to their verdict."""
        block = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        shelf = table("t1", Rect(2.0, 3.5, 3.0, 4.5))
        env = make_env(furniture=(block, shelf), objects=(
            ball("o0", (2.0, 1.0), None), ball("o1", (2.0, 4.2), "t1/top"),
            ball("o2", (3.5, 0.5), None), ball("o3", (3.5, 3.0), None)))
        # p == 0 with q == 0: along the line x = 2.0 of t0's left edge,
        # short of t0 (to o0) and past its whole length (to o1, on t1,
        # which its sight line looks past, and whose edge it slides along
        # too).  A hair to the right, t0 blocks.
        short = CameraPose(Pose(2.0, 0.5, math.pi / 2.0), range=1.0)
        along = CameraPose(Pose(2.0, 1.3, math.pi / 2.0))
        inside = CameraPose(Pose(2.0 + 1e-9, 1.3, math.pi / 2.0))
        # Through t0's corner (2, 2) alone, on the diagonal x + y = 4 to o2.
        corner = CameraPose(Pose(1.5, 2.5, -math.pi / 4.0))
        # p == 0 with q == 0 for t0's top edge y = 3.0: the sight line to
        # o3 slides along the whole edge.
        edge = CameraPose(Pose(1.5, 3.0, 0.0))
        cams = [short, along, inside, corner, edge]
        got = visible_batch(env, cams)
        assert got == [visible_objects(env, c) for c in cams]
        seen = [{s.object_id for s in snaps} for snaps in got]
        assert seen[0] == {"o0"}
        assert "o1" in seen[1] and "o1" not in seen[2]
        assert "o2" in seen[3] and "o3" in seen[4]

    def test_no_subjects_and_no_cameras(self):
        env = make_env()
        cams = [CameraPose(Pose(1.0, 1.0, 0.0)), CameraPose(Pose(3.0, 2.0, 1.0))]
        assert visible_batch(env, cams) == [[], []]
        assert visible_batch(make_env(furniture=(table(),)), []) == []

    def test_room_lattices_match_brute_force(self):
        env = build_environment(GenConfig(), 7)
        cams = _lattice(env)
        for got, cam in zip(visible_batch(env, cams), cams):
            want = brute_force_visible(env, cam)
            assert [(s.object_id, s.kind) for s in got] == \
                   [(s.object_id, s.kind) for s in want]
            for g, w in zip(got, want):
                assert g.bearing == pytest.approx(w.bearing, abs=1e-12)
                assert g.range == pytest.approx(w.range, abs=1e-12)


def test_capture_supports_excludes_held():
    t = table("t0")
    o1 = ball("o0", (2.5, 2.4), "t0/top")
    o2 = ball("o1", (2.8, 2.4), "t0/top", category="mug")
    env = make_env(furniture=(t,), objects=(o1, o2))
    assert capture_supports(env) == {"o0": "t0/top", "o1": "t0/top"}
    env.robot.gripper = "o0"
    env.objects["o0"].support = None
    assert capture_supports(env) == {"o1": "t0/top"}


class TestStep:
    def test_straight_line_closed_form(self):
        env = make_env(room=Rect(0.0, 0.0, 8.0, 8.0), robot_xy=(2.0, 2.0))
        for _ in range(20):
            assert not step(env, 1.0, 0.0, DT_S)
        assert env.robot.pose.x == pytest.approx(3.0, abs=1e-12)
        assert env.robot.pose.y == pytest.approx(2.0, abs=1e-12)
        assert env.clock == pytest.approx(1.0)

    def test_rotation_closed_form(self):
        env = make_env(robot_xy=(3.0, 2.0))
        for _ in range(10):
            step(env, 0.0, math.pi / 2, DT_S)
        assert env.robot.pose.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert env.robot.pose.x == 3.0

    def test_arc_matches_dirichlet_sum(self):
        # independent closed form of the discrete roll-out:
        # sum_{i<N} cos(a + i*b) = sin(N*b/2)/sin(b/2) * cos(a + (N-1)*b/2)
        v, w, n = 1.0, 1.0, 20
        b = w * DT_S
        sx = math.sin(n * b / 2) / math.sin(b / 2) * math.cos((n - 1) * b / 2)
        sy = math.sin(n * b / 2) / math.sin(b / 2) * math.sin((n - 1) * b / 2)
        env = make_env(room=Rect(0.0, 0.0, 8.0, 8.0), robot_xy=(3.0, 3.0))
        for _ in range(n):
            assert not step(env, v, w, DT_S)
        assert env.robot.pose.x == pytest.approx(3.0 + v * DT_S * sx, abs=1e-9)
        assert env.robot.pose.y == pytest.approx(3.0 + v * DT_S * sy, abs=1e-9)
        assert env.robot.pose.theta == pytest.approx(n * b, abs=1e-9)

    def test_velocity_clamped(self):
        env = make_env(room=Rect(0.0, 0.0, 8.0, 8.0), robot_xy=(2.0, 2.0))
        step(env, 5.0, 0.0, DT_S)
        assert env.robot.pose.x == pytest.approx(2.0 + MAX_LINEAR_MPS * DT_S)

    def test_collision_freezes_pose_clock_still_runs(self):
        env = make_env(robot_xy=(0.3, 2.0), theta=math.pi)
        collided = step(env, 1.0, 0.0, DT_S)
        assert collided
        assert env.robot.pose == Pose(0.3, 2.0, math.pi)
        assert env.collisions == 1
        assert env.clock == pytest.approx(DT_S)

    def test_trace_appended_each_tick(self):
        env = make_env(room=Rect(0.0, 0.0, 8.0, 8.0), robot_xy=(2.0, 2.0))
        env.trace = []
        step(env, 1.0, 0.0, DT_S)
        step(env, 0.0, 1.0, DT_S)
        assert len(env.trace) == 2
        assert env.trace[0][:2] == (2.05, 2.0)

    def test_held_object_tracks_gripper(self):
        t = table("t0", Rect(3.0, 3.0, 4.0, 4.0))
        o = ball("o0", (3.5, 3.5), "t0/top")
        env = make_env(room=Rect(0.0, 0.0, 8.0, 8.0), furniture=(t,),
                       objects=(o,), robot_xy=(1.0, 1.0))
        env.robot.gripper = "o0"
        o.support = None
        step(env, 1.0, 0.0, DT_S)
        p = env.robot.pose
        expect = attach_pose(p)
        assert env.objects["o0"].pose.x == pytest.approx(expect.x)
        assert env.objects["o0"].pose.y == pytest.approx(expect.y)
        assert expect.x == pytest.approx(p.x + GRIP_OFFSET_M)


def test_robot_collides_outside_rooms():
    env = make_env()
    assert robot_collides(env, -2.0, -2.0)
    assert not robot_collides(env, 3.0, 2.5)
    assert robot_collides(env, 0.2, 2.5)  # 0.15 m from the left wall slab


def _blocked_by_loop(env, x: float, y: float, clearance: float) -> bool:
    """`point_blocked` without the grid's gap: the plain loop."""
    if point_in_room(env, x, y) is None:
        return True
    for w in env.layout.walls:
        if w.distance_to(x, y) < clearance:
            return True
    for f in env.layout.furniture:
        if f.footprint.distance_to(x, y) < clearance:
            return True
    return False


def _probe_points(env, clearance: float, rng: random.Random,
                  n: int) -> list[tuple[float, float]]:
    """Points where a wrong gap would show: on grid cell edges and room
    bounds, exactly `clearance` from an obstacle's edge or corner, each
    nudged by a float step or two, and outside the grid."""
    grid = grid_for(env)
    res = grid.res
    xs = [grid.x0 + k * res for k in range(grid.nx + 1)]
    ys = [grid.y0 + k * res for k in range(grid.ny + 1)]
    for r in env.layout.rooms:
        xs += [r.bounds.x0, r.bounds.x1]
        ys += [r.bounds.y0, r.bounds.y1]
    rings = []
    for r in env.layout.obstacles:
        xs += [r.x0 - clearance, r.x1 + clearance]
        ys += [r.y0 - clearance, r.y1 + clearance]
        rings.append(r)
    pts = [(-1e6, 0.0), (1e6, 1e6), (grid.x0 - res, grid.y0),
           (grid.x0 + (grid.nx + 1) * res, grid.y0 + 0.5 * grid.ny * res)]
    for _ in range(n):
        kind = rng.randrange(4) if rings else rng.choice((0, 3))
        if kind == 0:  # a cell edge, room bound or clearance line per axis
            pts.append((nudge(rng.choice(xs), rng), nudge(rng.choice(ys), rng)))
        elif kind == 1:  # exactly clearance from an edge, along its span
            r = rng.choice(rings)
            along = rng.uniform(r.y0, r.y1)
            side = rng.choice((r.x0 - clearance, r.x1 + clearance))
            pts.append((nudge(side, rng), nudge(along, rng)))
            along = rng.uniform(r.x0, r.x1)
            side = rng.choice((r.y0 - clearance, r.y1 + clearance))
            pts.append((nudge(along, rng), nudge(side, rng)))
        elif kind == 2:  # exactly clearance from a corner
            r = rng.choice(rings)
            cx, cy = rng.choice(((r.x0, r.y0), (r.x1, r.y0),
                                 (r.x0, r.y1), (r.x1, r.y1)))
            a = rng.uniform(-math.pi, math.pi)
            pts.append((nudge(cx + clearance * math.cos(a), rng),
                        nudge(cy + clearance * math.sin(a), rng)))
        else:  # anywhere, on the grid or a little beyond it
            pts.append((rng.uniform(grid.x0 - 1.0, grid.x0 + grid.nx * res + 1.0),
                        rng.uniform(grid.y0 - 1.0, grid.y0 + grid.ny * res + 1.0)))
    return pts + _axis_gap_points(env, clearance)


def _at_gap(gap, v: float, clearance: float, outward: float) -> float:
    """The last float from `v` toward `outward` whose `gap` is still below
    `clearance`: one float step further on, `point_blocked`'s axis test
    skips.  Bisection, since near 0 a step of `v` need not move `gap`."""
    step = math.copysign(2.0 * clearance, outward)
    inner = outer = v
    while gap(inner) >= clearance:
        inner -= step
    while gap(outer) < clearance:
        outer += step
    while True:
        mid = 0.5 * (inner + outer)
        if mid in (inner, outer):
            return inner
        if gap(mid) < clearance:
            inner = mid
        else:
            outer = mid


def _axis_gap_points(env, clearance: float) -> list[tuple[float, float]]:
    """For each side of each obstacle, the points where the axis gap that
    `point_blocked` tests first reaches `clearance`, and one float step
    either side, beside the side's span, at its ends and past them."""
    pts = []
    for r in env.layout.obstacles:
        sides = (
            (lambda v, r=r: r.x0 - v, r.x0 - clearance, -math.inf, False),
            (lambda v, r=r: v - r.x1, r.x1 + clearance, math.inf, False),
            (lambda v, r=r: r.y0 - v, r.y0 - clearance, -math.inf, True),
            (lambda v, r=r: v - r.y1, r.y1 + clearance, math.inf, True),
        )
        for gap, start, outward, across_y in sides:
            edge = _at_gap(gap, start, clearance, outward)
            lo, hi = (r.x0, r.x1) if across_y else (r.y0, r.y1)
            for v in (math.nextafter(edge, -outward), edge,
                      math.nextafter(edge, outward)):
                for w in (lo, 0.5 * (lo + hi), hi, lo - 0.5 * clearance,
                          hi + 0.5 * clearance):
                    pts.append((w, v) if across_y else (v, w))
    return pts


class TestClearanceField:
    """`point_blocked` with the grid's gap equals the plain loop, point by
    point."""

    @pytest.mark.parametrize("clearance", [ROBOT_RADIUS_M, DOCK_CLEARANCE_M])
    def test_shipped_layout_equals_loop(self, clearance):
        env = make_environment("default")
        rng = random.Random(11)
        for x, y in _probe_points(env, clearance, rng, 20000):
            assert point_blocked(env, x, y, clearance) == \
                _blocked_by_loop(env, x, y, clearance), (x, y)

    @settings(max_examples=60, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2**32 - 1),
           clearance=st.sampled_from([ROBOT_RADIUS_M, DOCK_CLEARANCE_M]))
    def test_random_scenes_equal_loop(self, env, seed, clearance):
        for x, y in _probe_points(env, clearance, random.Random(seed), 1500):
            assert point_blocked(env, x, y, clearance) == \
                _blocked_by_loop(env, x, y, clearance), (x, y)

    def test_offset_open_plan_equals_loop(self):
        # Corners where a room edge borders nothing: a cell box that is not
        # widened lets a point just outside both rooms through.
        env = open_plan(Rect(0.0, 0.0, 1.0, 1.0), Rect(-0.05, 1.0, 0.95, 2.0))
        for clearance in (ROBOT_RADIUS_M, DOCK_CLEARANCE_M):
            for x, y in _probe_points(env, clearance, random.Random(5), 3000):
                assert point_blocked(env, x, y, clearance) == \
                    _blocked_by_loop(env, x, y, clearance), (x, y)

    def test_shared_room_edge_is_half_open(self):
        env = open_plan(Rect(0.0, 0.0, 3.0, 3.0), Rect(3.0, 0.0, 6.0, 1.5))
        assert not point_blocked(env, 3.0, 1.0, 0.25)  # room b's low edge
        assert point_blocked(env, 3.0, 2.0, 0.25)  # room a's high edge only
        assert point_blocked(env, 1.0, 3.0, 0.25)
        assert not point_blocked(env, math.nextafter(3.0, 0.0), 2.0, 0.25)

    def test_non_finite_coordinates_are_blocked(self):
        env = make_environment("default")
        for x, y in ((math.nan, 2.5), (3.0, math.nan), (math.inf, 2.5),
                     (3.0, -math.inf)):
            assert point_blocked(env, x, y, ROBOT_RADIUS_M)
            assert _blocked_by_loop(env, x, y, ROBOT_RADIUS_M)

    def test_no_rooms_blocks_everywhere(self):
        walls = room_layout().walls
        env = scene(Layout("test", [], [], walls, [], Pose(1.0, 1.0)))
        assert point_blocked(env, 3.0, 2.5, ROBOT_RADIUS_M)

    def test_some_cells_skip_the_loop(self):
        grid = grid_for(make_environment("default"))
        assert len(grid.gap) == grid.nx * grid.ny
        for clearance in (ROBOT_RADIUS_M, DOCK_CLEARANCE_M):
            skip = sum(g >= clearance + 1e-9 for g in grid.gap)
            assert 0 < skip < len(grid.gap)

    def test_cache_keyed_by_geometry_not_layout_id(self):
        """Grids live on the layout object, one per inflation: the layout
        id keys nothing."""
        bare = make_env(layout_id="shared")
        furnished = make_env(furniture=(table("t0", Rect(2.0, 2.0, 3.0, 3.0)),),
                             layout_id="shared")
        assert not point_blocked(bare, 2.5, 1.9, ROBOT_RADIUS_M)
        assert point_blocked(furnished, 2.5, 1.9, ROBOT_RADIUS_M)
        assert grid_for(bare) is not grid_for(furnished)
        assert grid_for(scene(bare.layout, robot_xy=(3.0, 2.0))) is \
            grid_for(bare)
        wider = Environment(bare.layout, {},
                            RobotState(Pose(1.0, 1.0), radius=0.3))
        assert grid_for(wider) is not grid_for(bare)
        assert set(bare.layout.grids) == {ROBOT_RADIUS_M + INFLATE_MARGIN_M,
                                          0.3 + INFLATE_MARGIN_M}


class TestGridRaster:
    """`build_grid`'s free cells, components and origin equal the meshgrid
    builder's."""

    @staticmethod
    def _assert_equal(env):
        grid = build_grid(env.layout, INFLATE)
        x0, y0, free, comp = reference_grid(env, INFLATE)
        assert (grid.x0, grid.y0, grid.res) == (x0, y0, GRID_RES_M)
        assert np.array_equal(grid.free, free)
        assert np.array_equal(grid.comp, comp)

    def test_shipped_layout(self):
        self._assert_equal(make_environment("default"))

    def test_ties_on_cell_centres(self):
        # Cell centres exactly on a room's high edge, and exactly the
        # inflation from a table's edge: the half-open and >= rules decide.
        g = build_grid(open_plan(Rect(0.0, 0.0, 3.0, 3.0),
                                  Rect(3.0, 0.0, 6.0, 1.5)).layout, INFLATE)
        xs = (g.x0 + (np.arange(g.nx) + 0.5) * g.res).tolist()
        edge = xs[50]
        k = next(k for k in range(10, 40) if (xs[k] + INFLATE) - xs[k] == INFLATE)
        t0 = table("t0", Rect(xs[k] + INFLATE, 0.5, xs[k] + INFLATE + 0.5, 1.0))
        env = open_plan(Rect(0.0, 0.0, edge, 3.0), Rect(edge, 0.0, 6.0, 1.5),
                        furniture=(t0,))
        self._assert_equal(env)

    @settings(max_examples=60, deadline=None)
    @given(env=scenes())
    def test_random_scenes(self, env):
        self._assert_equal(env)


class TestGrasp:
    def _env(self):
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        o = ball("o0", (1.6, 1.0), "t0/top", radius=0.05)
        return make_env(furniture=(t,), objects=(o,), robot_xy=(0.9, 1.0))

    def test_success_effects(self):
        env = self._env()
        grasp(env, "o0")
        assert env.robot.gripper == "o0"
        o = env.objects["o0"]
        assert o.support is None
        assert (o.pose.x, o.pose.y) == pytest.approx((1.2, 1.0))

    def test_gripper_occupied(self):
        env = self._env()
        grasp(env, "o0")
        with pytest.raises(GripperOccupied):
            grasp(env, "o0")

    def test_no_such_object(self):
        with pytest.raises(NoSuchObject):
            grasp(self._env(), "ghost")

    def test_out_of_reach_boundary(self):
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        at_reach = ball("o0", (1.7, 1.0), "t0/top", radius=0.05)
        env = make_env(furniture=(t,), objects=(at_reach,), robot_xy=(0.9, 1.0))
        grasp(env, "o0")  # exactly 0.8 m is allowed
        t2 = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        beyond = ball("o0", (1.71, 1.0), "t0/top", radius=0.05)
        env2 = make_env(furniture=(t2,), objects=(beyond,), robot_xy=(0.9, 1.0))
        with pytest.raises(OutOfReach):
            grasp(env2, "o0")

    def test_occlusion_strict(self):
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        target = ball("o0", (1.6, 1.0), "t0/top", radius=0.05)
        blocker = ball("o1", (1.3, 1.05), "t0/top", radius=0.06, category="mug")
        env = make_env(furniture=(t,), objects=(target, blocker),
                       robot_xy=(0.9, 1.0))
        with pytest.raises(Occluded):
            grasp(env, "o0")
        # exact tangency leaves the ray clear
        t2 = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        target2 = ball("o0", (1.6, 1.0), "t0/top", radius=0.05)
        tangent = ball("o1", (1.3, 1.06), "t0/top", radius=0.06, category="mug")
        env2 = make_env(furniture=(t2,), objects=(target2, tangent),
                        robot_xy=(0.9, 1.0))
        grasp(env2, "o0")


class TestPlace:
    def _held_env(self, *more):
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        o = ball("o0", (1.6, 1.0), "t0/top", radius=0.05)
        env = make_env(furniture=(t, *more), objects=(o,), robot_xy=(0.9, 1.0))
        grasp(env, "o0")
        return env

    def test_not_holding(self):
        t = table("t0")
        env = make_env(furniture=(t,))
        with pytest.raises(NotHolding):
            place(env, "t0/top")

    def test_no_such_surface(self):
        env = self._held_env()
        with pytest.raises(NoSuchObject):
            place(env, "ghost/top")

    def test_surface_out_of_reach(self):
        env = self._held_env(table("t1", Rect(4.0, 3.0, 5.0, 4.0)))
        with pytest.raises(SurfaceOutOfReach):
            place(env, "t1/top")

    def test_lands_exactly_at_spiral_prediction(self):
        env = self._held_env()
        o = env.objects["o0"]
        want = place_spot(env, "t0/top", o, env.robot.pose.xy)
        place(env, "t0/top")
        assert (o.pose.x, o.pose.y) == want
        assert o.pose.theta == 0.0
        assert o.support == "t0/top"
        assert env.robot.gripper is None
        # on an empty surface the first candidate is the clamp point itself
        assert want == pytest.approx((1.30, 1.0))

    def test_packed_surface_raises(self):
        # a surface whose inset admits the object nowhere: fill it with a peer
        t = table("t0", Rect(1.2, 0.8, 1.64, 1.24))  # region 0.34 x 0.34
        big = ball("o1", (1.42, 1.02), "t0/top", radius=0.17, category="box")
        held = ball("o0", (1.5, 1.0), None, radius=0.05)
        env = make_env(furniture=(t,), objects=(big, held), robot_xy=(0.9, 1.0))
        env.robot.gripper = "o0"
        with pytest.raises(NoFreePose):
            place(env, "t0/top")


class TestPlaceSpot:
    def _squatted_env(self):
        """A mug sits on the point of the table nearest the robot."""
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        squatter = ball("o1", (1.30, 1.0), "t0/top", radius=0.05, category="mug")
        return make_env(furniture=(t,), objects=(squatter,), robot_xy=(0.9, 1.0))

    def test_skips_occupied_spots(self):
        env = self._squatted_env()
        mover = ball("o0", (0.9, 1.0), None, radius=0.05)
        got = place_spot(env, "t0/top", mover, (0.9, 1.0))
        assert math.hypot(got[0] - 1.30, got[1] - 1.0) >= 0.10 - 1e-9

    def test_own_disk_does_not_block(self):
        # the squatter itself may be set down where it stands
        env = self._squatted_env()
        got = place_spot(env, "t0/top", env.objects["o1"], (0.9, 1.0))
        assert got == pytest.approx((1.30, 1.0))

    def test_respects_reach(self):
        # Every free spot is at least 0.412 m from the robot; only the
        # occupied clamp point lies within 0.405 m.
        env = self._squatted_env()
        mover = ball("o0", (0.9, 1.0), None, radius=0.05)
        env.robot.reach = 0.405
        with pytest.raises(NoFreePose):
            place_spot(env, "t0/top", mover, (0.9, 1.0))
        env.robot.reach = 0.5
        got = place_spot(env, "t0/top", mover, (0.9, 1.0))
        assert math.hypot(got[0] - 0.9, got[1] - 1.0) <= 0.5

    def test_result_stays_on_surface(self):
        t = table("t0", Rect(1.2, 0.7, 2.0, 1.3))
        env = make_env(furniture=(t,), robot_xy=(0.9, 1.0))
        mover = ball("o0", (0.9, 1.0), None, radius=0.05)
        got = place_spot(env, "t0/top", mover, (0.9, 1.0))
        region = t.surfaces[0].region.inset(0.05)
        assert region.contains_closed(got[0], got[1])


class TestValidator:
    def test_default_layout_clean(self):
        env = make_environment("default")
        assert validate_layout(env.layout) == []
        assert validate_environment(env) == []

    @staticmethod
    def _default_with(**fields):
        """The default layout's fields with some replaced, as a new layout."""
        lay = make_environment("default").layout
        base = {"id": lay.id, "rooms": lay.rooms, "doors": lay.doors,
                "walls": lay.walls, "furniture": lay.furniture,
                "start": lay.start}
        return Layout(**{**base, **fields})

    def test_repeated_furniture_id(self):
        furniture = make_environment("default").layout.furniture
        first = furniture[0]
        again = StaticObject(first.id, first.category, first.footprint, [],
                             first.color, first.material)
        issues = validate_layout(self._default_with(
            furniture=(*furniture, again)))
        assert issues == [f"furniture id {first.id} repeated"]

    def test_repeated_surface_id(self):
        furniture = list(make_environment("default").layout.furniture)
        a, b = furniture[0], furniture[1]
        stolen = SupportSurface(a.surfaces[0].id, b.id,
                                b.surfaces[0].region, b.surfaces[0].height_class)
        furniture[1] = StaticObject(b.id, b.category, b.footprint, [stolen],
                                    b.color, b.material)
        issues = validate_layout(self._default_with(furniture=furniture))
        assert issues == [f"surface id {a.surfaces[0].id} repeated"]

    def test_repeated_room_id(self):
        rooms = list(make_environment("default").layout.rooms)
        rooms[1] = RoomSpec(rooms[0].id, rooms[1].name, rooms[1].bounds,
                            rooms[1].doors)
        issues = validate_layout(self._default_with(rooms=rooms))
        assert f"room id {rooms[0].id} repeated" in issues

    def test_generated_scenes_clean(self):
        for seed in (3, 4, 5):
            env = build_environment(GenConfig(), seed)
            assert validate_environment(env) == []

    def test_detects_floating_object(self):
        t = table("t0")
        o = ball("o0", (5.0, 0.5), "t0/top")  # far off the surface
        env = make_env(furniture=(t,), objects=(o,))
        issues = validate_environment(env)
        assert issues


class TestEnvRecord:
    def test_deterministic_and_sorted(self):
        env = make_environment("default")
        a = env_record(env)
        b = env_record(make_environment("default"))
        assert a == b
        # furniture keeps layout declaration order, itself deterministic
        assert [f["id"] for f in a["furniture"]] == \
            [f.id for f in env.layout.furniture]

    def test_unit_suffixed_fields(self):
        env = build_environment(GenConfig(), 2)
        rec = env_record(env)
        assert rec["layout"] == "default"
        obj = rec["objects"][0]
        assert {"id", "category", "x_m", "y_m", "radius_m"} <= set(obj)
        assert [o["id"] for o in rec["objects"]] == sorted(o["id"] for o in rec["objects"])
