import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ball,
    make_env,
    nudge,
    reference_astar,
    reference_segment_on_free_cells,
    reference_string_pull,
    scene,
    scenes,
    table,
)
from homefetch import planner, world
from homefetch.agent import DOCK_CLEARANCE_M, DOCK_SEGMENT_CLEARANCE_M
from homefetch.geometry import Rect, dist, segment_rect_distance
from homefetch.layouts import forget_memos, make_environment
from homefetch.planner import (
    _PULL_CHUNK,
    NoPath,
    _astar,
    _plan,
    _string_pull,
    plan_path,
    reachable,
    segment_clear_exact,
)
from homefetch.world import (
    GRID_MOVES,
    GRID_RES_M,
    INFLATE_MARGIN_M,
    ROBOT_RADIUS_M,
    Environment,
    Grid,
    Pose,
    Layout,
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
                min(w.distance_to(x, y) for w in env.layout.walls),
                min(f.footprint.distance_to(x, y) for f in env.layout.furniture),
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
        a = build_grid(base.layout, INFLATE)
        b = build_grid(with_objects.layout, INFLATE)
        assert np.array_equal(a.free, b.free)

    def test_cache_keyed_by_geometry_not_layout_id(self):
        bare = make_env(layout_id="shared")
        furnished = make_env(furniture=(table("t0", Rect(2.0, 2.0, 3.0, 3.0)),),
                             layout_id="shared")
        a, b = grid_for(bare), grid_for(furnished)
        assert np.array_equal(a.free, build_grid(bare.layout, INFLATE).free)
        assert np.array_equal(b.free,
                              build_grid(furnished.layout, INFLATE).free)
        assert not b.cell_free(2.5, 2.5)
        assert grid_for(scene(bare.layout)) is a
        assert grid_for(make_env(layout_id="shared")) is not a

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
    return scene(Layout("test", rooms, [], [], [], Pose(1.0, 1.0)))


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
                        min(w.distance_to(x, y) for w in env.layout.walls),
                        min(f.footprint.distance_to(x, y) for f in env.layout.furniture),
                    )
                    assert clear >= ROBOT_RADIUS_M + 0.05


def _bare_grid(free: np.ndarray) -> Grid:
    """A grid straight from a free mask, with no padding round it."""
    return Grid(0.0, 0.0, GRID_RES_M, free, np.full(free.shape, -1, np.int32),
                array("d", bytes(8 * free.size)))


def _route(search, grid: Grid, start, goal):
    """The search's cells, or ("NoPath", message)."""
    try:
        return search(grid, start, goal)
    except NoPath as e:
        return ("NoPath", str(e))


def _assert_legal(grid: Grid, cells) -> None:
    """Each step moves to a free 8-neighbour in bounds, by the corner rule."""
    for (ax, ay), (bx, by) in zip(cells, cells[1:]):
        assert max(abs(bx - ax), abs(by - ay)) == 1
        assert grid.in_bounds(bx, by) and grid.free[by, bx]
        if ax != bx and ay != by:
            assert grid.free[ay, bx] and grid.free[by, ax]


_FREE_MASKS = st.integers(1, 12).flatmap(
    lambda nx: st.integers(1, 12).flatmap(
        lambda ny: st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)
        .map(lambda bits: np.array(bits, dtype=bool).reshape(ny, nx))))


class TestMoveMask:
    @settings(max_examples=80, deadline=None)
    @given(free=_FREE_MASKS)
    def test_bits_are_the_legal_moves(self, free):
        grid = _bare_grid(free)
        assert len(grid.moves) == grid.nx * grid.ny
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                want = 0
                for bit, (dx, dy) in enumerate(GRID_MOVES):
                    tx, ty = ix + dx, iy + dy
                    if not grid.in_bounds(tx, ty) or not free[ty, tx]:
                        continue
                    if dx and dy and not (free[iy, tx] and free[ty, ix]):
                        continue
                    want |= 1 << bit
                assert grid.moves[iy * grid.nx + ix] == want, (ix, iy)

    def test_built_lazily_not_with_the_grid(self):
        grid = build_grid(make_env().layout, INFLATE)
        assert "moves" not in vars(grid)
        assert grid.moves is grid.moves


class TestFlatAstar:
    """`_astar` on flat cell indices equals the tuple-keyed reference, cell
    for cell."""

    @settings(max_examples=60, deadline=None)
    @given(env=scenes(), data=st.data())
    def test_random_scenes_equal_reference(self, env, data):
        grid = build_grid(env.layout, INFLATE)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        if not cells:
            return
        start = data.draw(st.sampled_from(cells))
        comp = grid.comp[start[1], start[0]]
        same = [c for c in cells if grid.comp[c[1], c[0]] == comp]
        goals = [start, data.draw(st.sampled_from(same))]
        sx, sy = start
        goals += [(sx + dx, sy + dy) for dx, dy in GRID_MOVES
                  if grid.in_bounds(sx + dx, sy + dy) and grid.free[sy + dy, sx + dx]]
        for goal in goals:
            got = _route(_astar, grid, start, goal)
            assert got == _route(reference_astar, grid, start, goal), (start, goal)
            if isinstance(got, list):
                assert got[0] == start and got[-1] == goal
                _assert_legal(grid, got)

    def test_start_equals_goal(self):
        grid = grid_for(make_environment("default"))
        cell = next((ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                    if grid.free[iy, ix])
        assert _astar(grid, cell, cell) == [cell] == reference_astar(grid, cell, cell)

    def test_diagonal_needs_both_orthogonal_cells(self):
        # (0, 0) -> (1, 1) with only (1, 0) free beside the diagonal.
        free = np.array([[True, True, False],
                         [False, True, False]])
        grid = _bare_grid(free)
        path = _astar(grid, (0, 0), (1, 1))
        assert path == [(0, 0), (1, 0), (1, 1)] == reference_astar(grid, (0, 0), (1, 1))
        # Neither orthogonal cell free: no route at all.
        cut = _bare_grid(np.array([[True, False], [False, True]]))
        assert _route(_astar, cut, (0, 0), (1, 1)) == \
            _route(reference_astar, cut, (0, 0), (1, 1)) == \
            ("NoPath", "no route to cell (1, 1)")

    def test_no_step_wraps_across_a_row(self):
        # Free first and last columns joined only along the top row: a flat
        # index that wrapped (idx - 1 at ix = 0, idx + 1 at ix = nx - 1)
        # would cut straight across.
        free = np.zeros((6, 7), dtype=bool)
        free[:, 0] = free[:, -1] = free[-1, :] = True
        grid = _bare_grid(free)
        for start, goal in (((0, 1), (6, 0)), ((6, 0), (0, 1)),
                            ((0, 0), (6, 0)), ((6, 2), (0, 3))):
            path = _astar(grid, start, goal)
            assert path == reference_astar(grid, start, goal)
            _assert_legal(grid, path)
            assert (0, 5) in path and (6, 5) in path
        # The first and last rows: idx -/+ nx leaves the grid there.
        free = np.zeros((5, 6), dtype=bool)
        free[0, :] = free[-1, :] = free[:, 0] = True
        grid = _bare_grid(free)
        path = _astar(grid, (5, 0), (5, 4))
        assert path == reference_astar(grid, (5, 0), (5, 4))
        _assert_legal(grid, path)

    @settings(max_examples=150, deadline=None)
    @given(free=_FREE_MASKS, data=st.data())
    def test_unpadded_grids_equal_reference(self, free, data):
        # Free cells on every edge of the grid, as `build_grid` never makes.
        grid = _bare_grid(free)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if free[iy, ix]]
        if not cells:
            return
        start = data.draw(st.sampled_from(cells))
        goal = data.draw(st.sampled_from(cells))
        got = _route(_astar, grid, start, goal)
        assert got == _route(reference_astar, grid, start, goal)
        if isinstance(got, list):
            _assert_legal(grid, got)


def _search(kind, env, grid, start, goal):
    """A `_plan` between points, or an `_astar` between cells, on `grid`."""
    if kind == "astar":
        return _route(_astar, grid, start, goal)
    return _answer(lambda e, a, b: _plan(e, grid, a, b), env, start, goal)


class TestAstarScratch:
    def test_searches_in_a_row_equal_fresh_grids(self):
        """Searches in a row on one grid, one that raises `NoPath` among
        them, each equal the same search on a fresh grid, and leave the
        grid's `g_scratch` all inf."""
        home, sealed = make_environment("default"), _two_sealed_rooms()
        shared = {id(env): build_grid(env.layout, INFLATE)
                  for env in (home, sealed)}
        apart = (shared[id(sealed)].cell_of(1.0, 1.0),
                 shared[id(sealed)].cell_of(6.0, 1.0))
        steps = [("plan", home, (1.0, 1.0), (6.5, 5.5)),
                 ("plan", home, (6.5, 5.5), (3.0, 7.0)),
                 ("plan", sealed, (1.0, 1.0), (2.0, 2.2)),
                 ("astar", sealed, *apart),
                 ("plan", sealed, (6.0, 1.0), (7.0, 2.0)),
                 ("plan", home, (1.0, 1.0), (6.5, 5.5))]
        answers = []
        for kind, env, start, goal in steps:
            grid = shared[id(env)]
            scratch = grid.g_scratch
            got = _search(kind, env, grid, start, goal)
            assert got == _search(kind, env, build_grid(env.layout, INFLATE),
                                  start, goal)
            assert grid.g_scratch is scratch
            assert scratch.count(math.inf) == grid.nx * grid.ny
            answers.append(got[0])
        assert answers.count("NoPath") == 1
        assert answers[3] == "NoPath"


class TestBatchedStringPull:
    """`_string_pull` equals the segment-at-a-time reference."""

    def test_samples_equal_linspace(self):
        for n in range(2, 3000):
            ts = np.arange(n) * (1.0 / (n - 1))
            ts[-1] = 1.0
            assert np.array_equal(ts, np.linspace(0.0, 1.0, n)), n

    def test_round_paths_equal_reference(self):
        env = make_environment("default")
        grid = grid_for(env)
        rng = random.Random(31)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        for _ in range(25):
            a, b = rng.choice(cells), rng.choice(cells)
            pts = [grid.center(ix, iy) for ix, iy in _astar(grid, a, b)]
            assert _string_pull(grid, pts) == reference_string_pull(grid, pts)

    @settings(max_examples=150, deadline=None)
    @given(env=scenes(), data=st.data())
    def test_random_polylines_equal_reference(self, env, data):
        grid = build_grid(env.layout, INFLATE)
        if grid.nx == 0:
            return
        w, h = grid.nx * grid.res, grid.ny * grid.res
        # Points inside and outside the grid, on cell centres and repeated.
        coord_x = st.one_of(st.floats(grid.x0 - 1.0, grid.x0 + w + 1.0),
                            st.integers(0, grid.nx - 1).map(lambda i: grid.center(i, 0)[0]))
        coord_y = st.one_of(st.floats(grid.y0 - 1.0, grid.y0 + h + 1.0),
                            st.integers(0, grid.ny - 1).map(lambda i: grid.center(0, i)[1]))
        pts = data.draw(st.lists(st.tuples(coord_x, coord_y), min_size=1,
                                 max_size=3 * _PULL_CHUNK))
        repeats = data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
        for k in sorted(repeats, reverse=True):
            pts.insert(k, pts[k])
        assert _string_pull(grid, pts) == reference_string_pull(grid, pts)

    def test_long_free_run_crosses_chunks(self):
        free = np.ones((4, 3 * _PULL_CHUNK + 5), dtype=bool)
        free[0, 2 * _PULL_CHUNK] = False
        grid = _bare_grid(free)
        pts = [grid.center(ix, 1) for ix in range(grid.nx)]
        pts.append(grid.center(2 * _PULL_CHUNK, 0))
        pts += [grid.center(grid.nx - 1, 3)] * 2
        got = _string_pull(grid, pts)
        assert got == reference_string_pull(grid, pts)
        assert got[1] == pts[-4]  # the free run is one shortcut
        assert not reference_segment_on_free_cells(grid, pts[0], pts[-3])


def _uncached(env, start, goal):
    return _plan(env, grid_for(env), start, goal)


def _answer(plan, env, start, goal):
    try:
        path = plan(env, start, goal)
    except NoPath as e:
        return ("NoPath", str(e))
    return (path.waypoints, path.total_length)


class TestPlanMemo:
    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        forget_memos()
        yield
        forget_memos()

    def test_memo_answers_equal_uncached_plans(self):
        env = make_environment("default")
        grid = grid_for(env)
        rng = random.Random(23)
        cells = [(ix, iy) for iy in range(grid.ny) for ix in range(grid.nx)
                 if grid.free[iy, ix]]
        queries = [(grid.center(*rng.choice(cells)), grid.center(*rng.choice(cells)))
                   for _ in range(200)]
        blocked_goal = env.layout.furniture[0].footprint.center
        queries.append((queries[0][0], blocked_goal))
        queries += rng.sample(queries, 60)
        rng.shuffle(queries)
        cases = [(env, a, b) for a, b in queries]
        cases += [(_two_sealed_rooms(), (1.0, 1.0), (6.0, 1.0))] * 2
        failures = set()
        for case in cases:
            want = _answer(_uncached, *case)
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

        def counting(env, grid, start, goal):
            goals.append(goal)
            return _plan(env, grid, start, goal)

        monkeypatch.setattr(planner, "_plan", counting)
        return goals

    def test_no_path_is_cached(self, planned):
        env = _two_sealed_rooms()
        for _ in range(2):
            with pytest.raises(NoPath, match="different grid components"):
                plan_path(env, (1.0, 1.0), (6.0, 1.0))
        assert planned == [(6.0, 1.0)]

    def test_cap_evicts_the_oldest_entry(self, monkeypatch, planned):
        monkeypatch.setattr(world, "MEMO_CAP", 2)
        env = make_env(robot_xy=(1.0, 1.0))
        goals = [(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        for g in goals:
            plan_path(env, (1.0, 1.0), g)
        assert len(grid_for(env).memo) == 2
        plan_path(env, (1.0, 1.0), goals[2])
        assert planned == goals
        plan_path(env, (1.0, 1.0), goals[0])
        assert planned == goals + [goals[0]]


def _plan_returns(env, start, goal) -> bool:
    try:
        plan_path(env, start, goal)
    except NoPath:
        return False
    return True


def _probe_points(env, rng: random.Random, n: int) -> list:
    """Free cell centres, uniform points over the padded grid (blocked,
    outside every room, or free) and nudged copies of both."""
    grid = grid_for(env)
    free = np.argwhere(grid.free).tolist()
    pts = []
    for _ in range(n):
        if free and rng.random() < 0.5:
            iy, ix = rng.choice(free)
            p = grid.center(ix, iy)
        else:
            p = (grid.x0 + rng.random() * grid.nx * grid.res,
                 grid.y0 + rng.random() * grid.ny * grid.res)
        pts.append((nudge(p[0], rng), nudge(p[1], rng)))
    return pts


class TestReachable:
    """`reachable` is true exactly when `plan_path` returns."""

    def _check(self, env, pairs) -> set:
        """Asserts the equivalence on every pair; returns the `NoPath`
        messages met, with their coordinates dropped."""
        causes = set()
        for a, b in pairs:
            ok = _plan_returns(env, a, b)
            assert reachable(env, a, b) == ok, (a, b)
            if not ok:
                try:
                    plan_path(env, a, b)
                except NoPath as e:
                    causes.add(str(e).split(" at ")[0].split(" near ")[0])
        return causes

    def test_shipped_layout(self):
        env = make_environment("default")
        rng = random.Random(31)
        pts = _probe_points(env, rng, 120)
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(300)]
        pairs += [(p, p) for p in pts[:10]]
        room = env.layout.rooms[1]
        pairs += [(env.layout.start.xy, d.anchor_in(room, 0.7))
                  for d in room.doors]
        causes = self._check(env, pairs)
        assert causes == {"goal cell blocked", "no safe grid entry"}

    def test_sealed_rooms(self):
        """Free cells of two components: every query across them is
        unreachable, though both ends are free."""
        env = _two_sealed_rooms()
        pairs = [((1.0, 1.0), (6.0, 1.0)), ((6.0, 1.0), (1.0, 1.0)),
                 ((1.0, 1.0), (2.0, 2.0))]
        assert self._check(env, pairs) == \
            {"start and goal in different grid components"}
        assert not reachable(env, (1.0, 1.0), (6.0, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(env=scenes(), seed=st.integers(0, 2 ** 32))
    def test_random_scenes(self, env, seed):
        rng = random.Random(seed)
        pts = _probe_points(env, rng, 10)
        self._check(env, [(a, b) for a in pts for b in pts])


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
    for w in env.layout.walls:
        if segment_rect_distance(a[0], a[1], b[0], b[1], w) < clearance:
            return False
    for f in env.layout.furniture:
        if segment_rect_distance(a[0], a[1], b[0], b[1], f.footprint) < clearance:
            return False
    return True


def _probe_segments(env, clearance: float, rng: random.Random, n: int):
    """Segments where a wrong prefilter would show: along a line exactly
    `clearance` from an obstacle edge, ending exactly `clearance` from a
    corner, degenerate, short or long, and each end sometimes nudged by a
    float step."""
    rects = env.layout.obstacles
    rooms = env.layout.rooms
    lo_x = min(r.bounds.x0 for r in rooms) - 1.0
    hi_x = max(r.bounds.x1 for r in rooms) + 1.0
    lo_y = min(r.bounds.y0 for r in rooms) - 1.0
    hi_y = max(r.bounds.y1 for r in rooms) + 1.0

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
