import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ball, make_env, nudge, table
from homefetch import planner
from homefetch.agent import DOCK_CLEARANCE_M, DOCK_SEGMENT_CLEARANCE_M
from homefetch.geometry import Rect, dist, segment_rect_distance
from homefetch.layouts import make_environment
from homefetch.planner import (
    NoPath,
    _plan,
    clear_plan_memo,
    plan_path,
    segment_clear_exact,
)
from homefetch.world import (
    GRID_RES_M,
    INFLATE_MARGIN_M,
    ROBOT_RADIUS_M,
    Environment,
    Pose,
    RobotState,
    RoomSpec,
    build_grid,
    grid_for,
)

INFLATE = ROBOT_RADIUS_M + INFLATE_MARGIN_M


def test_pinned_constants():
    assert GRID_RES_M == 0.05
    assert INFLATE_MARGIN_M == 0.15
    assert INFLATE == 0.40


class TestGrid:
    def test_free_cells_have_clearance(self):
        env = make_environment("default")
        grid = grid_for(env)
        rng = random.Random(5)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        assert cells
        for _ in range(1500):
            ix, iy = cells[rng.randrange(len(cells))]
            x, y = grid.center(ix, iy)
            clear = min(
                min(w.distance_to(x, y) for w in env.walls),
                min(f.footprint.distance_to(x, y) for f in env.furniture),
            )
            assert clear >= INFLATE - 1e-9

    def test_cells_outside_rooms_blocked(self):
        env = make_environment("default")
        grid = grid_for(env)
        assert not grid.cell_free(-0.5, -0.5)
        assert grid.component_at(-0.5, -0.5) == -1

    def test_dynamic_objects_not_rasterized(self):
        t = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        base = make_env(furniture=(t,))
        t2 = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        objs = (ball("o0", (2.5, 2.5), "t0/top"), ball("o1", (2.2, 2.8), "t0/top", category="mug"))
        with_objects = make_env(furniture=(t2,), objects=objs)
        a = build_grid(base, INFLATE)
        b = build_grid(with_objects, INFLATE)
        assert np.array_equal(a.free, b.free)

    def test_cache_keyed_by_geometry_not_layout_id(self):
        bare = make_env(layout_id="shared")
        furnished = make_env(furniture=(table("t0", Rect(2.0, 2.0, 3.0, 3.0)),),
                             layout_id="shared")
        a, b = grid_for(bare), grid_for(furnished)
        assert np.array_equal(a.free, build_grid(bare, INFLATE).free)
        assert np.array_equal(b.free, build_grid(furnished, INFLATE).free)
        assert not b.cell_free(2.5, 2.5)
        assert grid_for(make_env(layout_id="other")) is a

    def test_default_layout_single_component(self):
        grid = grid_for(make_environment("default"))
        labels = set(grid.comp[grid.free].tolist())
        assert labels == {0}

    def test_cell_of_center_roundtrip(self):
        grid = grid_for(make_environment("default"))
        x, y = grid.center(40, 30)
        assert grid.cell_of(x, y) == (40, 30)


def _two_sealed_rooms() -> Environment:
    rooms = [
        RoomSpec(id="a", name="kitchen", bounds=Rect(0.0, 0.0, 3.0, 3.0)),
        RoomSpec(id="b", name="study", bounds=Rect(5.0, 0.0, 8.0, 3.0)),
    ]
    return Environment(layout_id="test", rooms=rooms, doors=[],
                       walls=[], furniture=[], objects={},
                       robot=RobotState(pose=Pose(1.0, 1.0)))


class TestPlanPath:
    def test_corridor_nearly_straight(self):
        env = make_env(room=Rect(0.0, 0.0, 10.0, 1.4), robot_xy=(1.0, 0.7))
        path = plan_path(env, (1.0, 0.7), (9.0, 0.7))
        assert path.waypoints[0] == (1.0, 0.7)
        assert path.waypoints[-1] == (9.0, 0.7)
        assert 8.0 - 1e-9 <= path.total_length <= 8.0 * 1.05
        seg_sum = sum(dist(a, b) for a, b in zip(path.waypoints, path.waypoints[1:]))
        assert path.total_length == pytest.approx(seg_sum)

    def test_start_equals_goal(self):
        env = make_env(robot_xy=(1.0, 1.0))
        path = plan_path(env, (1.0, 1.0), (1.0, 1.0))
        assert path.waypoints == [(1.0, 1.0)]
        assert path.total_length == 0.0

    def test_goal_inside_inflation_raises(self):
        t = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        env = make_env(furniture=(t,), robot_xy=(1.0, 1.0))
        with pytest.raises(NoPath):
            plan_path(env, (1.0, 1.0), (2.5, 1.95))  # 0.05 m from the footprint

    def test_disconnected_rooms_raise(self):
        with pytest.raises(NoPath):
            plan_path(_two_sealed_rooms(), (1.0, 1.0), (6.0, 1.0))

    def test_detour_around_furniture(self):
        # block the straight line; the plan must exceed it and stay clear
        t = table("t0", Rect(2.4, 0.0, 3.6, 2.8))
        env = make_env(room=Rect(0.0, 0.0, 6.0, 4.0), furniture=(t,),
                       robot_xy=(1.0, 1.0))
        path = plan_path(env, (1.0, 1.0), (5.0, 1.0))
        assert path.total_length > 4.0 + 0.5
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            n = max(2, int(dist(a, b) / 0.01))
            for i in range(n + 1):
                x = a[0] + (b[0] - a[0]) * i / n
                y = a[1] + (b[1] - a[1]) * i / n
                assert t.footprint.distance_to(x, y) >= ROBOT_RADIUS_M

    def test_cross_room_through_door(self):
        env = make_environment("default")
        path = plan_path(env, (5.0, 1.3), (8.0, 1.0))  # living room -> kitchen
        assert path.total_length >= dist((5.0, 1.3), (8.0, 1.0))
        # must thread the door gap at x = 6.0, y in (2.0, 3.2)
        crossings = [
            (a, b) for a, b in zip(path.waypoints, path.waypoints[1:])
            if (a[0] - 6.0) * (b[0] - 6.0) <= 0.0 and a != b
        ]
        assert crossings
        for a, b in crossings:
            if a[0] == b[0]:
                continue
            ty = a[1] + (b[1] - a[1]) * (6.0 - a[0]) / (b[0] - a[0])
            assert 2.0 < ty < 3.2

    def test_paths_have_real_clearance(self):
        env = make_environment("default")
        rng = random.Random(17)
        grid = grid_for(env)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        for _ in range(20):
            a = grid.center(*cells[rng.randrange(len(cells))])
            b = grid.center(*cells[rng.randrange(len(cells))])
            path = plan_path(env, a, b)
            for p, q in zip(path.waypoints, path.waypoints[1:]):
                n = max(2, int(dist(p, q) / 0.02))
                for i in range(n + 1):
                    x = p[0] + (q[0] - p[0]) * i / n
                    y = p[1] + (q[1] - p[1]) * i / n
                    clear = min(
                        min(w.distance_to(x, y) for w in env.walls),
                        min(f.footprint.distance_to(x, y) for f in env.furniture),
                    )
                    assert clear >= ROBOT_RADIUS_M + 0.05


def _answer(plan, env, start, goal):
    try:
        path = plan(env, start, goal)
    except NoPath as e:
        return ("NoPath", str(e))
    return (path.waypoints, path.total_length)


class TestPlanMemo:
    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        clear_plan_memo()
        yield
        clear_plan_memo()

    def test_memo_answers_equal_uncached_plans(self):
        env = make_environment("default")
        grid = grid_for(env)
        rng = random.Random(23)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        queries = [(grid.center(*rng.choice(cells)), grid.center(*rng.choice(cells)))
                   for _ in range(200)]
        blocked_goal = env.furniture[0].footprint.center
        queries.append((queries[0][0], blocked_goal))
        queries += rng.sample(queries, 60)
        rng.shuffle(queries)
        cases = [(env, a, b) for a, b in queries]
        cases += [(_two_sealed_rooms(), (1.0, 1.0), (6.0, 1.0))] * 2
        failures = set()
        for case in cases:
            want = _answer(_plan, *case)
            assert _answer(plan_path, *case) == want
            if want[0] == "NoPath":
                failures.add(want[1])
        assert failures == {f"goal cell blocked at {blocked_goal}",
                            "start and goal in different grid components"}

    def test_returned_waypoints_are_the_callers_own(self):
        env = make_env(robot_xy=(1.0, 1.0))
        first = plan_path(env, (1.0, 1.0), (5.0, 4.0))
        want = list(first.waypoints)
        first.waypoints.append((9.0, 9.0))
        first.waypoints[0] = (0.0, 0.0)
        again = plan_path(env, (1.0, 1.0), (5.0, 4.0))
        assert again.waypoints == want
        assert again.waypoints is not first.waypoints

    def test_keyed_by_geometry_not_layout_id(self):
        bare = make_env(room=Rect(0.0, 0.0, 6.0, 4.0), layout_id="shared")
        blocked = make_env(room=Rect(0.0, 0.0, 6.0, 4.0), layout_id="shared",
                           furniture=(table("t0", Rect(2.4, 0.0, 3.6, 2.8)),))
        straight = plan_path(bare, (1.0, 1.0), (5.0, 1.0))
        detour = plan_path(blocked, (1.0, 1.0), (5.0, 1.0))
        assert straight.total_length == pytest.approx(4.0)
        assert detour.total_length > 4.5

    @pytest.fixture
    def planned(self, monkeypatch):
        """Goals that reached the uncached planner, in call order."""
        goals = []

        def counting(env, start, goal):
            goals.append(goal)
            return _plan(env, start, goal)

        monkeypatch.setattr(planner, "_plan", counting)
        return goals

    def test_no_path_is_cached(self, planned):
        env = _two_sealed_rooms()
        for _ in range(2):
            with pytest.raises(NoPath, match="different grid components"):
                plan_path(env, (1.0, 1.0), (6.0, 1.0))
        assert planned == [(6.0, 1.0)]

    def test_cap_evicts_the_oldest_entry(self, monkeypatch, planned):
        monkeypatch.setattr(planner, "PLAN_MEMO_CAP", 2)
        env = make_env(robot_xy=(1.0, 1.0))
        goals = [(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        for g in goals:
            plan_path(env, (1.0, 1.0), g)
        assert len(planner._PLAN_MEMO) == 2
        plan_path(env, (1.0, 1.0), goals[2])
        assert planned == goals
        plan_path(env, (1.0, 1.0), goals[0])
        assert planned == goals + [goals[0]]


class TestSegmentClearExact:
    def test_far_from_everything(self):
        env = make_env()
        assert segment_clear_exact(env, (2.0, 2.5), (4.0, 2.5), 0.29)

    def test_too_close_to_wall(self):
        env = make_env()
        assert not segment_clear_exact(env, (1.0, 0.2), (3.0, 0.2), 0.29)

    def test_furniture_counts(self):
        t = table("t0", Rect(2.0, 2.0, 3.0, 3.0))
        env = make_env(furniture=(t,))
        assert not segment_clear_exact(env, (1.0, 2.5), (1.8, 2.5), 0.29)
        assert segment_clear_exact(env, (1.0, 1.0), (1.5, 1.0), 0.29)


def _segment_clear_by_loop(env, a, b, clearance: float) -> bool:
    """`segment_clear_exact` without the prefilter: the plain loop."""
    for w in env.walls:
        if segment_rect_distance(a[0], a[1], b[0], b[1], w) < clearance:
            return False
    for f in env.furniture:
        if segment_rect_distance(a[0], a[1], b[0], b[1], f.footprint) < clearance:
            return False
    return True


def _probe_segments(env, clearance: float, rng: random.Random, n: int):
    """Segments where a wrong prefilter would show: along a line exactly
    `clearance` from an obstacle edge, ending exactly `clearance` from a
    corner, degenerate, short or long, and each end sometimes nudged by a
    float step."""
    rects = env.walls + [f.footprint for f in env.furniture]
    lo_x = min(r.bounds.x0 for r in env.rooms) - 1.0
    hi_x = max(r.bounds.x1 for r in env.rooms) + 1.0
    lo_y = min(r.bounds.y0 for r in env.rooms) - 1.0
    hi_y = max(r.bounds.y1 for r in env.rooms) + 1.0

    def anywhere():
        return (rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))

    segs = []
    for _ in range(n):
        r = rng.choice(rects)
        kind = rng.randrange(5)
        if kind == 0:  # along a clearance line of an edge
            if rng.random() < 0.5:
                x = nudge(rng.choice((r.x0 - clearance, r.x1 + clearance)), rng)
                a = (x, nudge(rng.uniform(r.y0 - 1.0, r.y1 + 1.0), rng))
                b = (x, nudge(rng.uniform(r.y0 - 1.0, r.y1 + 1.0), rng))
            else:
                y = nudge(rng.choice((r.y0 - clearance, r.y1 + clearance)), rng)
                a = (nudge(rng.uniform(r.x0 - 1.0, r.x1 + 1.0), rng), y)
                b = (nudge(rng.uniform(r.x0 - 1.0, r.x1 + 1.0), rng), y)
        elif kind == 1:  # ends exactly clearance from a corner
            cx, cy = rng.choice(((r.x0, r.y0), (r.x1, r.y0),
                                 (r.x0, r.y1), (r.x1, r.y1)))
            t = rng.uniform(-math.pi, math.pi)
            a = (nudge(cx + clearance * math.cos(t), rng),
                 nudge(cy + clearance * math.sin(t), rng))
            b = anywhere() if rng.random() < 0.5 else a
        elif kind == 2:  # short, as from staging to dock
            a = anywhere()
            t = rng.uniform(-math.pi, math.pi)
            d = rng.uniform(0.0, 0.8)
            b = (a[0] + d * math.cos(t), a[1] + d * math.sin(t))
        else:
            a, b = anywhere(), anywhere()
        segs.append((a, b))
    return segs


_CLEARANCES = [ROBOT_RADIUS_M, ROBOT_RADIUS_M + 0.01, DOCK_SEGMENT_CLEARANCE_M,
               DOCK_CLEARANCE_M]


class TestSegmentPrefilter:
    """`segment_clear_exact` equals the plain loop, segment by segment."""

    @pytest.mark.parametrize("clearance", _CLEARANCES)
    def test_shipped_layout_equals_loop(self, clearance):
        env = make_environment("default")
        for a, b in _probe_segments(env, clearance, random.Random(3), 1500):
            assert segment_clear_exact(env, a, b, clearance) == \
                _segment_clear_by_loop(env, a, b, clearance), (a, b)

    @settings(max_examples=40, deadline=None)
    @given(x0=st.integers(-40, 40), y0=st.integers(-40, 40),
           w=st.integers(30, 120), h=st.integers(30, 120),
           tables=st.lists(st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 0.8),
                                     st.integers(6, 30), st.integers(6, 30)),
                           max_size=3),
           seed=st.integers(0, 2**32 - 1), clearance=st.sampled_from(_CLEARANCES))
    def test_random_scenes_equal_loop(self, x0, y0, w, h, tables, seed,
                                      clearance):
        # Corners on the 0.05 m lattice put clearance lines on exact floats.
        room = Rect(x0 * GRID_RES_M, y0 * GRID_RES_M, (x0 + w) * GRID_RES_M,
                    (y0 + h) * GRID_RES_M)
        furniture = []
        for k, (fx, fy, fw, fh) in enumerate(tables):
            tx = room.x0 + fx * room.width
            ty = room.y0 + fy * room.height
            furniture.append(table(f"t{k}", Rect(tx, ty, tx + fw * GRID_RES_M,
                                                 ty + fh * GRID_RES_M)))
        env = make_env(room=room, furniture=tuple(furniture))
        for a, b in _probe_segments(env, clearance, random.Random(seed), 300):
            assert segment_clear_exact(env, a, b, clearance) == \
                _segment_clear_by_loop(env, a, b, clearance), (a, b)

    def test_non_finite_ends_take_the_loop(self):
        env = make_environment("default")
        for a, b in (((math.nan, 2.5), (3.0, 2.5)), ((3.0, 2.5), (math.nan, 2.5)),
                     ((3.0, 2.5), (3.0, math.inf)), ((-math.inf, 2.5), (3.0, 2.5)),
                     ((3.0, math.nan), (3.0, 2.5)),
                     ((9.5, -0.6), (math.inf, -math.inf)),
                     ((-math.inf, 3.4), (-1.0, -math.inf))):
            assert segment_clear_exact(env, a, b, DOCK_SEGMENT_CLEARANCE_M) == \
                _segment_clear_by_loop(env, a, b, DOCK_SEGMENT_CLEARANCE_M)
        # The loop's arithmetic on infinities finds a wall here, though the
        # segment's bounding box is far from every wall.
        assert not segment_clear_exact(env, (9.5, -0.6), (math.inf, -math.inf),
                                       DOCK_SEGMENT_CLEARANCE_M)
