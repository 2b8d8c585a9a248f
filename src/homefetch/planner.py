"""Grid-based path planning over the static geometry.

Plans run on `world.Grid`, the one raster of the static geometry, built
and cached by `world.grid_for`.  Its free cells are those whose centre is
in a room and clear of every obstacle inflated by the robot radius plus a
safety margin, so any path whose samples stay in free cells keeps real
clearance well above the robot radius.  Dynamic objects never appear in the
grid: they always rest on furniture, whose inflated footprint already
covers them.

A* is 8-connected with the corner rule (a diagonal move needs both adjacent
orthogonal cells free), which makes 4-connected flood fill an exact
reachability oracle.  Ties break on (f, h, cell index) so plans are stable
across runs and platforms.

`segment_clear_exact` skips each rectangle whose distance from the
segment's bounding box is at least the clearance plus 1e-9: that distance
is a lower bound on the segment's own, so only the other rectangles need
the exact `segment_rect_distance`.

`plan_path` is memoised.  A plan depends on nothing but the static geometry
(`Environment.geometry_digest`), the inflation (robot radius plus margin,
which also fixes the radius `_snap_start` keeps from obstacles) and the two
points, so the memo keys on exactly those, with exact floats; the grid cache
keys on the same geometry and inflation through `world.geometry_key`.  A `NoPath`
is cached too, since callers such as `room_entry_path` try unreachable
doors again and again.  Every call returns a fresh `Path` or raises a fresh
`NoPath`.  The memo is capped at `PLAN_MEMO_CAP` entries, oldest evicted
first, and `cli.main` clears it before each command, so every command
starts cold, as it would in a process of its own.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import dist, segment_rect_distance
from .world import Environment, Grid, geometry_key, grid_for

_SQRT2 = math.sqrt(2.0)


class NoPath(Exception):
    """Goal not reachable from start on the inflated grid."""


@dataclass
class Path:
    waypoints: list[tuple[float, float]]
    total_length: float


# Margin of the segment prefilter's distance bound: covers the rounding of
# both distances.
_PREFILTER_EPS = 1e-9


def segment_clear_exact(env: Environment, a: tuple[float, float],
                        b: tuple[float, float], clearance: float) -> bool:
    """True iff the segment keeps `clearance` from all walls and furniture.

    `segment_rect_distance` decides.  A rectangle at least `clearance` plus
    1e-9 from the segment's bounding box is provably clear and skipped; with
    a non-finite coordinate every rectangle goes to the exact test.
    """
    ax, ay = a
    bx, by = b
    lo_x, hi_x = min(ax, bx), max(ax, bx)
    lo_y, hi_y = min(ay, by), max(ay, by)
    boxed = math.isfinite(ax + ay + bx + by)
    need = clearance + _PREFILTER_EPS
    for r in env.obstacles:
        if boxed and math.hypot(max(r.x0 - hi_x, lo_x - r.x1, 0.0),
                                max(r.y0 - hi_y, lo_y - r.y1, 0.0)) >= need:
            continue
        if segment_rect_distance(ax, ay, bx, by, r) < clearance:
            return False
    return True


def segment_on_free_cells(grid: Grid, a: tuple[float, float],
                          b: tuple[float, float]) -> bool:
    """Dense sample of the segment; every sample must land on a free cell."""
    length = dist(a, b)
    n = max(2, int(math.ceil(length / (grid.res * 0.5))) + 1)
    ts = np.linspace(0.0, 1.0, n)
    xs = a[0] + (b[0] - a[0]) * ts
    ys = a[1] + (b[1] - a[1]) * ts
    ixs = np.floor((xs - grid.x0) / grid.res).astype(np.int64)
    iys = np.floor((ys - grid.y0) / grid.res).astype(np.int64)
    if (ixs < 0).any() or (ixs >= grid.nx).any() or (iys < 0).any() or (iys >= grid.ny).any():
        return False
    return bool(grid.free[iys, ixs].all())


# Cell offsets within 8 cells, nearest first, ties by (dy, dx).
_SNAP_OFFSETS = sorted(((dx, dy) for dx in range(-8, 9) for dy in range(-8, 9)),
                       key=lambda o: (o[0] * o[0] + o[1] * o[1], o[1], o[0]))


def _snap_start(env: Environment, grid: Grid,
                p: tuple[float, float]) -> tuple[int, int] | None:
    """Free cell near p whose straight connection from p is provably safe."""
    ix0, iy0 = grid.cell_of(p[0], p[1])
    need = env.robot.radius + 0.01
    for dx, dy in _SNAP_OFFSETS:
        ix, iy = ix0 + dx, iy0 + dy
        if not grid.in_bounds(ix, iy) or not grid.free[iy, ix]:
            continue
        c = grid.center(ix, iy)
        if dist(p, c) > 0.5:
            break
        if segment_clear_exact(env, p, c, need):
            return (ix, iy)
    return None


def _astar(grid: Grid, start: tuple[int, int], goal: tuple[int, int]) -> list[tuple[int, int]]:
    nx, ny = grid.nx, grid.ny
    free = grid.free

    def h(ix: int, iy: int) -> float:
        ax = abs(ix - goal[0])
        ay = abs(iy - goal[1])
        return grid.res * (max(ax, ay) + (_SQRT2 - 1.0) * min(ax, ay))

    g = {start: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    h0 = h(*start)
    open_heap: list[tuple[float, float, int]] = [(h0, h0, start[1] * nx + start[0])]
    closed: set[tuple[int, int]] = set()
    moves = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
             (1, 1, _SQRT2), (1, -1, _SQRT2), (-1, 1, _SQRT2), (-1, -1, _SQRT2))
    while open_heap:
        _, _, idx = heapq.heappop(open_heap)
        cur = (idx % nx, idx // nx)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            path.reverse()
            return path
        cx, cy = cur
        base = g[cur]
        for dx, dy, cost in moves:
            tx, ty = cx + dx, cy + dy
            if not (0 <= tx < nx and 0 <= ty < ny) or not free[ty, tx]:
                continue
            if dx != 0 and dy != 0 and not (free[cy, tx] and free[ty, cx]):
                continue  # corner rule
            cand = base + cost * grid.res
            node = (tx, ty)
            if cand < g.get(node, math.inf) - 1e-12:
                g[node] = cand
                came[node] = cur
                hn = h(tx, ty)
                heapq.heappush(open_heap, (cand + hn, hn, ty * nx + tx))
    raise NoPath(f"no route to cell {goal}")


def _string_pull(grid: Grid, pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Greedy forward smoothing: extend each shortcut while it stays free."""
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = i + 1
        while j + 1 < len(pts) and segment_on_free_cells(grid, pts[i], pts[j + 1]):
            j += 1
        out.append(pts[j])
        i = j
    return out


PLAN_MEMO_CAP = 4096
# (geometry key, start, goal) -> (waypoints, length), or the NoPath message.
_PLAN_MEMO: dict[tuple, tuple[tuple[tuple[float, float], ...], float] | str] = {}


def clear_plan_memo() -> None:
    """Forget every memoised plan (called once per CLI command)."""
    _PLAN_MEMO.clear()


def plan_path(env: Environment, start: tuple[float, float],
              goal: tuple[float, float]) -> Path:
    """Shortest grid path from start to goal, smoothed; raises NoPath."""
    key = (geometry_key(env), start, goal)
    entry = _PLAN_MEMO.get(key)
    if entry is None:
        try:
            path = _plan(env, start, goal)
            entry = (tuple(path.waypoints), path.total_length)
        except NoPath as e:
            entry = str(e)
        if len(_PLAN_MEMO) >= PLAN_MEMO_CAP:
            del _PLAN_MEMO[next(iter(_PLAN_MEMO))]
        _PLAN_MEMO[key] = entry
    if isinstance(entry, str):
        raise NoPath(entry)
    return Path(list(entry[0]), entry[1])


def _plan(env: Environment, start: tuple[float, float],
          goal: tuple[float, float]) -> Path:
    """The uncached planner behind `plan_path`."""
    if dist(start, goal) <= 1e-9:
        return Path([start], 0.0)
    grid = grid_for(env)
    gix, giy = grid.cell_of(goal[0], goal[1])
    if not grid.in_bounds(gix, giy) or not grid.free[giy, gix]:
        raise NoPath(f"goal cell blocked at {goal}")
    s = _snap_start(env, grid, start)
    if s is None:
        raise NoPath(f"no safe grid entry near {start}")
    if grid.comp[s[1], s[0]] != grid.comp[giy, gix]:
        raise NoPath("start and goal in different grid components")
    cells = _astar(grid, s, (gix, giy))
    pts = [start] + [grid.center(ix, iy) for ix, iy in cells] + [goal]
    pulled = _string_pull(grid, pts)
    length = sum(dist(pulled[k], pulled[k + 1]) for k in range(len(pulled) - 1))
    return Path(pulled, length)
