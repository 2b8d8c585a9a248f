"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import heapq
import math
import random
import struct
from dataclasses import replace
from itertools import chain

import numpy as np
from hypothesis import strategies as st

from homefetch.agent import (
    ARRIVE_TOL_M, CRAWL_SPACING_M, HEADINGS, LOOKAHEAD_M, PROGRESS_EPS_M,
    RELATIONAL, ROTATE_GATE_RAD, STALL_LIMIT_S, Capture, _advance, _arc_table,
    _point_at, ground, lattice_captures, room_lattice,
)
from homefetch.config import RunConfig, config_echo
from homefetch.geometry import (
    Rect, dist, norm_angle, segment_crosses_disk, segment_crosses_rect,
)
from homefetch.language import (
    KIND_ORDER,
    ONTO,
    TO,
    AttributeSet,
    GotoClause,
    InstructionAst,
    ManipClause,
    ParseError,
    SpatialRelation,
    realize,
)
from homefetch.layouts import TABLE_LEVEL
from homefetch.planner import NoPath
from homefetch.relations import (
    NoDistinguishingDescription, distinguishing_descriptor,
)
from homefetch.seeds import h64, substream
from homefetch.taskgen import (
    ENV_ATTEMPTS,
    TASKS_PER_ENV,
    GenConfig,
    GenerationFailed,
    NoFeasibleTask,
    PlacementExhausted,
    TaskSpec,
    build_environment,
    select_task,
    task_feasible,
)
from homefetch.vocab import DEFAULT
from homefetch.world import (
    DT_S,
    DYNAMIC,
    GRID_RES_M,
    SURFACE,
    CameraPose,
    DynamicObject,
    Environment,
    Grid,
    Layout,
    Pose,
    RobotState,
    RoomSpec,
    Snapshot,
    StaticObject,
    SupportSurface,
    grid_for,
    step,
    visible_batch,
)

_SQRT2 = math.sqrt(2.0)


def box_walls(b: Rect, half: float = 0.05) -> list[Rect]:
    return [
        Rect(b.x0 - half, b.y0 - half, b.x1 + half, b.y0 + half),
        Rect(b.x0 - half, b.y1 - half, b.x1 + half, b.y1 + half),
        Rect(b.x0 - half, b.y0 - half, b.x0 + half, b.y1 + half),
        Rect(b.x1 - half, b.y0 - half, b.x1 + half, b.y1 + half),
    ]


def table(fid: str = "t0", footprint: Rect = Rect(2.0, 2.0, 3.2, 2.8),
          category: str = "table", color: str | None = "brown",
          material: str | None = "wooden",
          height: str = "table-level") -> StaticObject:
    region = footprint.inset(0.05)
    surf = SupportSurface(id=f"{fid}/top", owner=fid, region=region,
                          height_class=height)
    return StaticObject(id=fid, category=category, footprint=footprint,
                        surfaces=[surf], color=color, material=material)


def ball(oid: str = "o0", xy: tuple[float, float] = (2.5, 2.4),
         support: str | None = "t0/top", category: str = "ball",
         radius: float | None = None, color: str | None = "red",
         material: str | None = None) -> DynamicObject:
    r = DEFAULT.radius_of(category) if radius is None else radius
    return DynamicObject(id=oid, category=category, pose=Pose(xy[0], xy[1]),
                         radius=r, support=support, color=color,
                         material=material)


def room_layout(room: Rect = Rect(0.0, 0.0, 6.0, 5.0),
                furniture: tuple[StaticObject, ...] = (),
                name: str = "living room",
                layout_id: str = "test") -> Layout:
    """One sealed rectangular room "r0", the robot starting at (1, 1)."""
    spec = RoomSpec(id="r0", name=name, bounds=room, doors=[])
    return Layout(layout_id, [spec], [], box_walls(room), furniture,
                  Pose(1.0, 1.0))


def scene(layout: Layout, objects: tuple[DynamicObject, ...] = (),
          robot_xy: tuple[float, float] = (1.0, 1.0),
          theta: float = 0.0) -> Environment:
    """A fresh scene on `layout`, sharing its grids and their memos."""
    return Environment(layout, {o.id: o for o in objects},
                       RobotState(pose=Pose(robot_xy[0], robot_xy[1], theta)))


def make_env(room: Rect = Rect(0.0, 0.0, 6.0, 5.0),
             furniture: tuple[StaticObject, ...] = (),
             objects: tuple[DynamicObject, ...] = (),
             robot_xy: tuple[float, float] = (1.0, 1.0),
             theta: float = 0.0,
             name: str = "living room",
             layout_id: str = "test") -> Environment:
    """One sealed rectangular room; fixtures may bypass the validator.

    Each call builds a layout of its own, so the scene's grids, and the
    plans, legs and room lattices memoised on them, start empty and go
    with it; `scene` puts another scene on the same layout.
    """
    return scene(room_layout(room, furniture, name, layout_id), objects,
                 robot_xy, theta)


def sighting(oid: str, kind: str = DYNAMIC, category: str = "bottle",
             color: str | None = None, material: str | None = None,
             bearing: float = 0.0, rng: float = 1.0) -> Snapshot:
    return Snapshot(object_id=oid, kind=kind, category=category, color=color,
                    material=material, bearing=bearing, range=rng)


def nudge(v: float, rng: random.Random) -> float:
    """v, or a float one or two steps from it."""
    for _ in range(rng.choice((0, 0, 1, 2))):
        v = math.nextafter(v, rng.choice((-math.inf, math.inf)))
    return v


# --- random scenes ---------------------------------------------------------

def open_plan(a: Rect, b: Rect,
              furniture: tuple[StaticObject, ...] = ()) -> Environment:
    """Two wall-less rooms: only the half-open room bounds block."""
    rooms = [RoomSpec(id="a", name="kitchen", bounds=a),
             RoomSpec(id="b", name="study", bounds=b)]
    return scene(Layout("open", rooms, [], [], furniture, Pose(a.x0, a.y0)),
                 robot_xy=(a.x0, a.y0))


_COORD = st.one_of(st.integers(-60, 60).map(lambda k: k * GRID_RES_M),
                   st.floats(-3.0, 3.0))
_SIZE = st.one_of(st.integers(20, 120).map(lambda k: k * GRID_RES_M),
                  st.floats(1.0, 6.0))


@st.composite
def scenes(draw):
    """A random one-room scene with tables, or a wall-less pair of rooms
    sharing part of an edge; coordinates often on the 0.05 m lattice."""
    x0, y0, w, h = draw(_COORD), draw(_COORD), draw(_SIZE), draw(_SIZE)
    room = Rect(x0, y0, x0 + w, y0 + h)
    if draw(st.booleans()):
        # The second room sits right of or above the first, shifted along
        # the shared edge so that part of each room's edge borders nothing.
        shift, w2, h2 = draw(_COORD), draw(_SIZE), draw(_SIZE)
        if draw(st.booleans()):
            other = Rect(room.x1, y0 + shift, room.x1 + w2, y0 + shift + h2)
        else:
            other = Rect(x0 + shift, room.y1, x0 + shift + w2, room.y1 + h2)
        return open_plan(room, other)
    tables = []
    for k in range(draw(st.integers(0, 3))):
        tx = x0 + draw(st.floats(0.0, 0.8)) * w
        ty = y0 + draw(st.floats(0.0, 0.8)) * h
        tw = draw(st.integers(6, 30)) * GRID_RES_M
        th = draw(st.integers(6, 30)) * GRID_RES_M
        tables.append(table(f"t{k}", Rect(tx, ty, tx + tw, ty + th)))
    return make_env(room=room, furniture=tuple(tables))


# --- reference occupancy grid --------------------------------------------

def reference_grid(env: Environment,
                   inflate: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(x0, y0, free, comp) of the 0.05 m grid from full meshgrids, one
    obstacle at a time: an independent builder for `world.build_grid` to
    equal."""
    res = 0.05
    pad = 2 * res
    layout = env.layout
    x0 = min(r.bounds.x0 for r in layout.rooms) - pad
    y0 = min(r.bounds.y0 for r in layout.rooms) - pad
    x1 = max(r.bounds.x1 for r in layout.rooms) + pad
    y1 = max(r.bounds.y1 for r in layout.rooms) + pad
    nx = int(math.ceil((x1 - x0) / res))
    ny = int(math.ceil((y1 - y0) / res))
    gx, gy = np.meshgrid(x0 + (np.arange(nx) + 0.5) * res,
                         y0 + (np.arange(ny) + 0.5) * res)
    free = np.zeros((ny, nx), dtype=bool)
    for r in layout.rooms:
        b = r.bounds
        free |= (gx >= b.x0) & (gx < b.x1) & (gy >= b.y0) & (gy < b.y1)
    for rect in layout.obstacles:
        dx = np.maximum(np.maximum(rect.x0 - gx, gx - rect.x1), 0.0)
        dy = np.maximum(np.maximum(rect.y0 - gy, gy - rect.y1), 0.0)
        free &= np.hypot(dx, dy) >= inflate
    comp = np.full((ny, nx), -1, dtype=np.int32)
    label = 0
    for sy in range(ny):
        for sx in range(nx):
            if not free[sy, sx] or comp[sy, sx] >= 0:
                continue
            stack = [(sx, sy)]
            comp[sy, sx] = label
            while stack:
                cx, cy = stack.pop()
                for tx, ty in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if 0 <= tx < nx and 0 <= ty < ny and free[ty, tx] and comp[ty, tx] < 0:
                        comp[ty, tx] = label
                        stack.append((tx, ty))
            label += 1
    return x0, y0, free, comp


# --- reference planner ----------------------------------------------------

def reference_astar(grid: Grid, start: tuple[int, int],
                    goal: tuple[int, int]) -> list[tuple[int, int]]:
    """Tuple-keyed A*, the planner's before it ran on flat cell indices:
    the oracle `planner._astar` must equal cell for cell."""
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


def reference_segment_on_free_cells(grid: Grid, a: tuple[float, float],
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


def reference_string_pull(grid: Grid,
                          pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """One segment at a time: the oracle `planner._string_pull` must equal."""
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = i + 1
        while j + 1 < len(pts) and reference_segment_on_free_cells(grid, pts[i], pts[j + 1]):
            j += 1
        out.append(pts[j])
        i = j
    return out


# --- reference motion legs --------------------------------------------------

def reference_rotate_exact(env: Environment, heading: float,
                           deadline: float) -> bool:
    """`agent._rotate_exact` as one `world.step` call per tick."""
    rb = env.robot
    while env.clock < deadline - 1e-9:
        delta = norm_angle(heading - rb.pose.theta)
        if abs(delta) < 1e-12:
            return True
        w = max(-rb.max_angular, min(rb.max_angular, delta / DT_S))
        step(env, 0.0, w, DT_S)
    return abs(norm_angle(heading - rb.pose.theta)) < 1e-12


def reference_drive_straight(env: Environment, target: tuple[float, float],
                             deadline: float, reverse: bool = False) -> bool:
    """`agent.drive_straight` as one `world.step` call per tick, turning
    with `reference_rotate_exact`."""
    rb = env.robot
    d = dist(rb.pose.xy, target)
    if d > 1e-12:
        heading = math.atan2(target[1] - rb.pose.y, target[0] - rb.pose.x)
        if reverse:
            heading = norm_angle(heading + math.pi)
        if not reference_rotate_exact(env, heading, deadline):
            return False
    while env.clock < deadline - 1e-9:
        d = dist(rb.pose.xy, target)
        if d < 1e-12:
            return True
        v = min(rb.max_linear, d / DT_S)
        if step(env, -v if reverse else v, 0.0, DT_S):
            return False  # unexpected collision; abort the move
    return dist(rb.pose.xy, target) < 1e-12


def reference_follow_path(env: Environment, path, deadline: float) -> bool:
    """`agent._follow_path` as one `world.step` call per tick, landing with
    `reference_drive_straight`."""
    pts = path.waypoints
    goal = pts[-1]
    rb = env.robot
    if len(pts) == 1 or path.total_length <= 1e-12:
        return reference_drive_straight(env, goal, deadline)
    cum = _arc_table(pts)
    progress = mark = 0.0
    last_gain = env.clock
    while env.clock < deadline - 1e-9:
        p = rb.pose
        remaining = dist(p.xy, goal)
        if remaining <= ARRIVE_TOL_M:
            return reference_drive_straight(env, goal, deadline)
        progress = _advance(pts, cum, p.xy, progress)
        if progress > mark + PROGRESS_EPS_M:
            mark, last_gain = progress, env.clock
        elif env.clock - last_gain > STALL_LIMIT_S:
            return False
        carrot = _point_at(pts, cum, progress + LOOKAHEAD_M)
        alpha = norm_angle(math.atan2(carrot[1] - p.y, carrot[0] - p.x) - p.theta)
        if abs(alpha) > ROTATE_GATE_RAD:
            v = 0.0
            w = max(-rb.max_angular, min(rb.max_angular, 3.0 * alpha))
        else:
            v = rb.max_linear * max(0.2, math.cos(alpha))
            v = min(v, max(0.15, remaining))
            w = max(-rb.max_angular, min(rb.max_angular, 2.5 * alpha))
        step(env, v, w, DT_S)
    return False


# --- reference room lattice ----------------------------------------------

def reference_room_lattice(env: Environment, room_id: str) -> tuple[
        list[CameraPose], frozenset[str]]:
    """(cameras, surfaces) of the room's lattice as they were built before
    `agent.room_lattice` merged them, with no memo: the point loops of
    `crawl_points`, the cameras of `_lattice_cameras` and the empty-scene
    batch of `lattice_surfaces`.  The oracle `room_lattice` must equal."""
    grid = grid_for(env)
    comp = grid.component_at(env.robot.pose.x, env.robot.pose.y)
    comp = comp if comp >= 0 else None
    b = env.layout.room(room_id).bounds
    xs, ys = [], []
    k = 1
    while b.x0 + k * CRAWL_SPACING_M < b.x1:
        xs.append(b.x0 + k * CRAWL_SPACING_M)
        k += 1
    k = 1
    while b.y0 + k * CRAWL_SPACING_M < b.y1:
        ys.append(b.y0 + k * CRAWL_SPACING_M)
        k += 1

    found = []
    for row, y in enumerate(ys):
        row_xs = xs if row % 2 == 0 else list(reversed(xs))
        for x in row_xs:
            if comp is not None and grid.component_at(x, y) == comp:
                found.append((x, y))
    cams = [CameraPose(Pose(x, y, h)) for (x, y) in found for h in HEADINGS]
    views = visible_batch(Environment(env.layout, {}, env.robot), cams)
    return cams, frozenset(s.object_id for snaps in views for s in snaps)


def lattice_points(env: Environment, room_id: str) -> list[tuple[float, float]]:
    """The room's lattice points in visit order, one per `HEADINGS` run of
    `room_lattice`'s cameras."""
    cams = room_lattice(env, room_id).cameras
    return [c.pose.xy for c in cams[::len(HEADINGS)]]


# --- reference task generation --------------------------------------------

def reference_instruction(env: Environment, target: str, destination: str,
                          room: str, caps: tuple[Capture, ...],
                          rng: random.Random,
                          cfg: GenConfig) -> tuple[InstructionAst, str]:
    """`taskgen.make_instruction` spelled out from the ground truth.

    Each role gets the first of its category, + colour, + material, + both,
    that no other id of its kind in any capture of the room's lattice
    (`caps`) matches; a target with none gets the relation
    `distinguishing_descriptor` finds in the first capture that shows it.
    Unlike the generator, it also describes a role the lattice never shows,
    which only the screen then rejects."""

    def source(kind: str, sid: str):
        if kind == DYNAMIC:
            return env.objects[sid]
        owner = env.layout.surface(sid).owner
        return next(f for f in env.layout.furniture if f.id == owner)

    def shown(kind: str, sid: str) -> bool:
        return any(s.kind == kind and s.object_id == sid
                   for c in caps for s in c.snapshots)

    def unique(kind: str, sid: str) -> AttributeSet | None:
        src = source(kind, sid)
        others = [s for c in caps for s in c.snapshots
                  if s.kind == kind and s.object_id != sid]
        for a in (AttributeSet(src.category),
                  AttributeSet(src.category, src.color),
                  AttributeSet(src.category, None, src.material),
                  AttributeSet(src.category, src.color, src.material)):
            if not any(s.category == a.category
                       and a.color in (None, s.color)
                       and a.material in (None, s.material) for s in others):
                return a
        return None

    attrs, rel = unique(DYNAMIC, target), None
    if attrs is None:
        cap = next((c for c in caps if any(s.object_id == target
                                           for s in c.snapshots)), None)
        if cap is None:
            raise NoDistinguishingDescription(target)
        attrs, rel = distinguishing_descriptor(target, cap.snapshots,
                                               cap.supports, cfg.thresholds)
    d_attrs = unique(SURFACE, destination)
    if d_attrs is None:
        raise NoDistinguishingDescription(destination)
    src = None
    if rel is None and rng.random() < cfg.source_phrase_prob:
        support = env.objects[target].support
        if shown(SURFACE, support):
            src = unique(SURFACE, support)
    if src is not None:
        prep = TO
    else:
        level = env.layout.surface(destination).height_class
        prep = ONTO if level == TABLE_LEVEL else TO
    ast = InstructionAst(GotoClause(env.layout.room(room).name),
                         ManipClause(attrs, d_attrs, prep, rel, src))
    return ast, realize(ast)


def reference_generate_task(cfg: GenConfig,
                            seed: int) -> tuple[Environment, TaskSpec]:
    """`taskgen.generate_task` without the lattice check: every candidate of
    the same draw (`select_task`) is described (`reference_instruction`)
    and screened (`task_feasible`), each from the lattice of the target's
    room, computed once per scene and room.  The oracle the generator must
    equal, task for task and error for error."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    for salt in range(ENV_ATTEMPTS):
        try:
            env = build_environment(cfg, h64("gen-env", seed, salt))
        except PlacementExhausted:
            continue
        lattices = {}
        for attempt in range(salt * TASKS_PER_ENV, (salt + 1) * TASKS_PER_ENV):
            rng = substream("gen-task", seed, attempt)
            try:
                target, destination, room = select_task(env, rng)
                if room not in lattices:
                    lattices[room] = lattice_captures(env, room)
                ast, text = reference_instruction(env, target, destination,
                                                  room, lattices[room], rng,
                                                  cfg)
            except (NoFeasibleTask, NoDistinguishingDescription):
                continue
            task = TaskSpec(target, destination, room, lattices[room], ast,
                            text)
            if task_feasible(env, task, cfg):
                return env, task
    raise GenerationFailed(f"no feasible task after "
                           f"{ENV_ATTEMPTS * TASKS_PER_ENV} attempts "
                           f"(seed {seed})")


def grounding_captures(task: TaskSpec,
                       cfg: GenConfig) -> tuple[Capture, Capture]:
    """Per role, the capture of the task's lattice from which the screen's
    zero-noise grounding picks it, with `subject` set: what the exported
    captures (`capture_views`) must be."""
    caps = task.lattice
    g = ground(task.instruction, caps, [c.snapshots for c in caps],
               RELATIONAL, cfg.weights, cfg.thresholds)
    return (replace(caps[g.target.capture], subject=task.target),
            replace(caps[g.destination.capture], subject=task.destination))


# --- reading a session's facts from its event log -------------------------

def trace_bits(trace: list) -> bytes:
    """A pose trace as the bytes of its floats, so equal means bit-equal."""
    return struct.pack(f"<{3 * len(trace)}d", *chain.from_iterable(trace))


def only_event(events: list[dict], name: str) -> dict:
    """The one event of that name in a session's log."""
    (e,) = [e for e in events if e["event"] == name]
    return e


def verdicts(events: list[dict]) -> dict[str, bool]:
    """Subtask -> `succeeded`, for every subtask that ran."""
    return {e["subtask"]: e["succeeded"] for e in events
            if e["event"] == "subtask_end"}


def session_events(index: int, label: str, ends,
                   abstained: bool = False) -> list[dict]:
    """A synthetic session in the shape `run` writes: `ends` are its
    (subtask, attempted, succeeded) stage ends, each OLR end after an `olr`
    event that `abstained` or not, and the termination follows the last
    attempted end."""
    def ev(name, **fields):
        return {"event": name, "session": index, "clock_s": 0.0, **fields}

    pick, capture = (None, None) if abstained else ("x", 0)
    out = [ev("session_start", seed=1, session_seed=2,
              config={**config_echo(RunConfig()), "grounder": label}),
           ev("scene", layout="default", objects=1, digest="0" * 16),
           ev("task", target="x", destination="x", room="x", text="x.")]
    last = None
    for sub, attempted, ok in ends:
        if sub == "OLR":
            out.append(ev("olr", captures=1, digest="0" * 16, target=pick,
                          destination=pick, target_capture=capture,
                          destination_capture=capture,
                          abstained=abstained, correct=not abstained))
        out.append(ev("subtask_end", subtask=sub, attempted=attempted,
                      succeeded=ok, sim_time_s=0.0))
        last = (sub, ok) if attempted else last
    kind, failed = (("SubtaskFailed", last[0]) if last and last[1] is False
                    else ("TaskCompleted", None) if last == ("Carrying", True)
                    else ("TimeElapsed", None))
    return out + [ev("termination", kind=kind, subtask=failed),
                  ev("session_end", duration_s=0.0, collisions=0)]


# --- brute-force visibility oracle ---------------------------------------

def reference_line_of_sight(env: Environment, a: tuple[float, float],
                            b: tuple[float, float],
                            ignore: frozenset[str] | set[str] = frozenset(),
                            ) -> bool:
    """`world.line_of_sight` without its box prefilter: every wall,
    footprint and disk runs its exact test."""
    ax, ay = a
    bx, by = b
    if ax == bx and ay == by:
        return True
    for w in env.layout.walls:
        if segment_crosses_rect(ax, ay, bx, by, w):
            return False
    for f in env.layout.furniture:
        if f.id in ignore:
            continue
        if segment_crosses_rect(ax, ay, bx, by, f.footprint):
            return False
    for o in env.objects.values():
        if o.id in ignore:
            continue
        if segment_crosses_disk(ax, ay, bx, by, o.pose.x, o.pose.y, o.radius):
            return False
    return True


def _ray_clear(env: Environment, a: tuple[float, float],
               b: tuple[float, float], ignore: set[str]) -> bool:
    """Dense 1 mm march over the open segment; strict-interior hit tests."""
    ax, ay = a
    bx, by = b
    length = math.hypot(bx - ax, by - ay)
    if length == 0.0:
        return True
    n = max(2, int(length / 0.001))
    t = np.arange(1, n) / n
    xs = ax + (bx - ax) * t
    ys = ay + (by - ay) * t
    hit = np.zeros(t.shape, dtype=bool)
    for w in env.layout.walls:
        hit |= (xs > w.x0) & (xs < w.x1) & (ys > w.y0) & (ys < w.y1)
    for f in env.layout.furniture:
        if f.id in ignore:
            continue
        fp = f.footprint
        hit |= (xs > fp.x0) & (xs < fp.x1) & (ys > fp.y0) & (ys < fp.y1)
    for oid, o in env.objects.items():
        if oid in ignore:
            continue
        hit |= ((xs - o.pose.x) ** 2 + (ys - o.pose.y) ** 2) < o.radius ** 2
    return not bool(hit.any())


def brute_force_visible(env: Environment, cam: CameraPose) -> list[Snapshot]:
    """Independent cone + ray reimplementation of the capture contract."""
    cx, cy, ct = cam.pose.x, cam.pose.y, cam.pose.theta
    subjects: list[tuple] = []
    for oid in sorted(env.objects):
        o = env.objects[oid]
        ignore = {oid}
        if o.support is not None:
            ignore.add(env.layout.surface(o.support).owner)
        subjects.append((oid, DYNAMIC, o.category, o.color, o.material,
                         o.pose.x, o.pose.y, ignore))
    for f in env.layout.furniture:
        for s in f.surfaces:
            rx, ry = s.region.center
            subjects.append((s.id, SURFACE, f.category, f.color, f.material,
                             rx, ry, {f.id}))
    rows: list[Snapshot] = []
    for sid, kind, cat, col, mat, sx, sy, ignore in subjects:
        rng_m = math.hypot(sx - cx, sy - cy)
        if rng_m > cam.range:
            continue
        bearing = 0.0 if rng_m == 0.0 else norm_angle(
            math.atan2(sy - cy, sx - cx) - ct)
        if abs(bearing) > cam.fov / 2.0:
            continue
        if not _ray_clear(env, (cx, cy), (sx, sy), ignore):
            continue
        rows.append(Snapshot(object_id=sid, kind=kind, category=cat,
                             color=col, material=mat, bearing=bearing,
                             range=rng_m))
    rows.sort(key=lambda s: (s.range, s.object_id))
    return rows


# --- grammar-complete instruction sampler ---------------------------------

def reference_match_multiword(ts, tokens: tuple[str, ...], what: str) -> str:
    """`language._match_multiword` as a linear scan: every phrase split
    at every slot, the first longest match kept.  The oracle of the
    first-word index."""
    best = None
    for phrase in tokens:
        words = phrase.split()
        if all(ts.peek(k) == w for k, w in enumerate(words)):
            if best is None or len(words) > len(best.split()):
                best = phrase
    if best is None:
        raise ParseError(ts.offset(), (what,))
    for _ in best.split():
        ts.take()
    return best


def sample_ast(rng: random.Random) -> InstructionAst:
    """Uniformish draw over the whole instruction grammar, not just the
    shapes the generator happens to emit (relation and source may co-occur).
    """
    cats = sorted(DEFAULT.categories)

    def attrs(pool: list[str]) -> AttributeSet:
        return AttributeSet(
            category=rng.choice(pool),
            color=rng.choice(sorted(DEFAULT.colors)) if rng.random() < 0.5 else None,
            material=rng.choice(sorted(DEFAULT.materials)) if rng.random() < 0.5 else None,
        )

    relation = None
    if rng.random() < 0.5:
        relation = SpatialRelation(kind=rng.choice(KIND_ORDER),
                                   landmark=attrs(cats))
    source = attrs(cats) if rng.random() < 0.5 else None
    manip = ManipClause(
        target=attrs(sorted(DEFAULT.objects)),
        destination=attrs(sorted(DEFAULT.furniture)),
        prep=rng.choice((ONTO, TO)),
        relation=relation,
        source=source,
    )
    return InstructionAst(goto=GotoClause(room=rng.choice(sorted(DEFAULT.rooms))),
                          manip=manip)
