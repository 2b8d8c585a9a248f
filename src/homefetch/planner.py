"""Grid-based path planning over the static geometry.

Plans run on `world.Grid`, the one raster of the static geometry, built
by `world.grid_for` and kept on the layout.  Its free cells are those whose centre is
in a room and clear of every obstacle inflated by the robot radius plus a
safety margin, so any path whose samples stay in free cells keeps real
clearance well above the robot radius.  Dynamic objects never appear in the
grid: they always rest on furniture, whose inflated footprint already
covers them.

A* is 8-connected with the corner rule (a diagonal move needs both adjacent
orthogonal cells free), which makes 4-connected flood fill an exact
reachability oracle: a search between two free cells of one 4-connected
component always finds a route.  So `_ends` states every case in which
`plan_path` raises `NoPath` (the goal cell blocked, no `_snap_start` cell
near the start, the two cells in different components), and `reachable`,
which asks `_ends` alone, is true exactly when `plan_path` returns, with
no search.  Ties break on (f, h, cell index) so plans are stable
across runs and platforms.  It runs on flat cell indices (`iy * nx + ix`):
g is `Grid.g_scratch`, one list per grid that every search reuses and
resets to inf on each exit (every cell it set is the start or a key of
`came`), the closed set a bytearray, and each cell's moves come from
`Grid.moves`, a byte per cell with one bit per legal move (in bounds, onto
a free cell, the corner rule applied), built lazily from `free`.
`Grid.move_table`, 256 move tuples indexed by that byte, gives each move's
flat offset and its step cost (1 or sqrt 2, times the resolution), so the
arithmetic, the relax test `cand < g - 1e-12` and so every path are those
of a search over (ix, iy) pairs.  A move mask never sets a bit that leaves
the grid, so a flat offset never wraps across a row.

The string pull smooths the cell path greedily: from each kept point it
takes the farthest later point whose straight segment stays on free cells,
trying them in order and stopping at the first that fails.  A segment of
length L is sampled at n = max(2, ceil(L / (res / 2)) + 1) points
t_k = k * (1 / (n - 1)), the last set to exactly 1.0, which is what
`np.linspace(0, 1, n)` computes; up to `_PULL_CHUNK` segments are sampled
and tested in one numpy pass.

`segment_clear_exact` skips each rectangle whose distance from the
segment's bounding box is at least the clearance plus 1e-9: that distance
is a lower bound on the segment's own, so only the other rectangles need
the exact `segment_rect_distance`.

`plan_path` is memoised on the grid (`world.Grid.memo`, described in the
`world` module docstring).  A plan depends on nothing but the static
geometry, the inflation (robot radius plus margin, which also fixes the
radius `_snap_start` keeps from obstacles) and the two exact points, and
the grid is that geometry and inflation.  A `NoPath` is cached too, so a
query that fails repeats as one lookup, as one that succeeds does; a
caller that only needs to know whether a path exists asks `reachable`.
Every call returns a fresh `Path` or raises a fresh `NoPath`.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import dist, segment_rect_distance
from .world import Environment, Grid, grid_for

_SQRT2_M1 = math.sqrt(2.0) - 1.0


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
    for r in env.layout.obstacles:
        if boxed and math.hypot(max(r.x0 - hi_x, lo_x - r.x1, 0.0),
                                max(r.y0 - hi_y, lo_y - r.y1, 0.0)) >= need:
            continue
        if segment_rect_distance(ax, ay, bx, by, r) < clearance:
            return False
    return True


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
    """Cells of the shortest 8-connected route, start and goal included.

    Runs on flat cell indices: each cell's legal moves come from its byte in
    `grid.moves`, so no move tests bounds or the corner rule here.
    """
    nx = grid.nx
    res = grid.res
    c = _SQRT2_M1
    moves = grid.moves
    table = grid.move_table
    gx, gy = goal
    goal_idx = gy * nx + gx
    start_idx = start[1] * nx + start[0]

    g = grid.g_scratch
    g[start_idx] = 0.0
    came: dict[int, int] = {}
    try:
        closed = bytearray(len(moves))
        ax, ay = abs(start[0] - gx), abs(start[1] - gy)
        h0 = res * (max(ax, ay) + c * min(ax, ay))
        open_heap: list[tuple[float, float, int]] = [(h0, h0, start_idx)]
        heappop, heappush = heapq.heappop, heapq.heappush
        while open_heap:
            idx = heappop(open_heap)[2]
            if closed[idx]:
                continue
            closed[idx] = 1
            if idx == goal_idx:
                path = [idx]
                while idx in came:
                    idx = came[idx]
                    path.append(idx)
                path.reverse()
                return [(i % nx, i // nx) for i in path]
            cy, cx = divmod(idx, nx)
            rx, ry = cx - gx, cy - gy
            base = g[idx]
            for off, dx, dy, step in table[moves[idx]]:
                t = idx + off
                cand = base + step
                if cand < g[t] - 1e-12:
                    g[t] = cand
                    came[t] = idx
                    # h = res * (max + (sqrt 2 - 1) * min) of the axis distances.
                    ax, ay = abs(rx + dx), abs(ry + dy)
                    hn = res * (ax + c * ay if ax >= ay else ay + c * ax)
                    heappush(open_heap, (cand + hn, hn, t))
        raise NoPath(f"no route to cell {goal}")
    finally:
        # Every cell with a finite g is the start or a key of `came`.
        g[start_idx] = math.inf
        for t in came:
            g[t] = math.inf


# Shortcuts tested per numpy pass of `_string_pull`.  Any size gives the
# same result; larger ones test more segments past the first that fails.
_PULL_CHUNK = 32


def _first_blocked(grid: Grid, a: tuple[float, float], bs: np.ndarray,
                   ns: list[int]) -> int | None:
    """Index of the first segment a -> bs[k] with a sample off the free
    cells, or None.  Segment k takes ns[k] samples at linspace(0, 1)."""
    n = np.array(ns)
    ends = np.cumsum(n)
    first = np.repeat(ends - n, n)
    # np.linspace(0, 1, m) is k * (1 / (m - 1)) with the last sample 1.0.
    ts = (np.arange(ends[-1]) - first) * np.repeat(1.0 / (n - 1), n)
    ts[ends - 1] = 1.0
    xs = a[0] + np.repeat(bs[:, 0] - a[0], n) * ts
    ys = a[1] + np.repeat(bs[:, 1] - a[1], n) * ts
    ixs = np.floor((xs - grid.x0) / grid.res).astype(np.int64)
    iys = np.floor((ys - grid.y0) / grid.res).astype(np.int64)
    ok = (ixs >= 0) & (ixs < grid.nx) & (iys >= 0) & (iys < grid.ny)
    ok &= grid.free.ravel()[np.where(ok, iys * grid.nx + ixs, 0)]
    bad = int(ok.argmin())
    if ok[bad]:
        return None
    return int(np.searchsorted(ends, bad, side="right"))


def _string_pull(grid: Grid, pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Greedy forward smoothing: extend each shortcut while it stays free.

    From pts[i] the shortcut to pts[k], k = i + 2, i + 3, ..., holds while
    every sample of the segment lands on a free cell; up to `_PULL_CHUNK`
    shortcuts are tested in one numpy pass and the first that fails ends it.
    """
    half = grid.res * 0.5
    xy = np.array(pts, dtype=np.float64).reshape(-1, 2)
    last = len(pts) - 1
    out = [pts[0]]
    i = 0
    while i < last:
        a = pts[i]
        j = i + 1
        lo = i + 2
        while lo <= last:
            hi = min(lo + _PULL_CHUNK, last + 1)
            ns = [max(2, int(math.ceil(dist(a, pts[k]) / half)) + 1)
                  for k in range(lo, hi)]
            fail = _first_blocked(grid, a, xy[lo:hi], ns)
            if fail is not None:
                j = lo + fail - 1
                break
            j = hi - 1
            lo = hi
        out.append(pts[j])
        i = j
    return out


def reachable(env: Environment, start: tuple[float, float],
              goal: tuple[float, float]) -> bool:
    """True iff `plan_path(env, start, goal)` returns, decided without a
    search: the ends of `_plan` (see the module docstring)."""
    try:
        _ends(env, grid_for(env), start, goal)
    except NoPath:
        return False
    return True


def plan_path(env: Environment, start: tuple[float, float],
              goal: tuple[float, float]) -> Path:
    """Shortest grid path from start to goal, smoothed; raises NoPath."""
    grid = grid_for(env)
    key = ("plan", start, goal)
    # The waypoints and length, or the NoPath message.
    entry = grid.memo.get(key)
    if entry is None:
        try:
            path = _plan(env, grid, start, goal)
            entry = (tuple(path.waypoints), path.total_length)
        except NoPath as e:
            entry = str(e)
        grid.remember(key, entry)
    if isinstance(entry, str):
        raise NoPath(entry)
    return Path(list(entry[0]), entry[1])


def _ends(env: Environment, grid: Grid, start: tuple[float, float],
          goal: tuple[float, float],
          ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The start and goal cells of the search from start to goal, or None
    when the two points lie within 1e-9 m, where the plan is the start
    alone.  Raises NoPath when the goal cell is not free, no cell near the
    start passes `_snap_start`, or the two cells lie in different
    components."""
    if dist(start, goal) <= 1e-9:
        return None
    gix, giy = grid.cell_of(goal[0], goal[1])
    if not grid.in_bounds(gix, giy) or not grid.free[giy, gix]:
        raise NoPath(f"goal cell blocked at {goal}")
    s = _snap_start(env, grid, start)
    if s is None:
        raise NoPath(f"no safe grid entry near {start}")
    if grid.comp[s[1], s[0]] != grid.comp[giy, gix]:
        raise NoPath("start and goal in different grid components")
    return s, (gix, giy)


def _plan(env: Environment, grid: Grid, start: tuple[float, float],
          goal: tuple[float, float]) -> Path:
    """The uncached planner behind `plan_path`."""
    ends = _ends(env, grid, start, goal)
    if ends is None:
        return Path([start], 0.0)
    cells = _astar(grid, *ends)
    pts = [start] + [grid.center(ix, iy) for ix, iy in cells] + [goal]
    pulled = _string_pull(grid, pts)
    length = sum(dist(pulled[k], pulled[k + 1]) for k in range(len(pulled) - 1))
    return Path(pulled, length)
