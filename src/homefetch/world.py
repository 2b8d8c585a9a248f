"""Ground-truth world model: rooms, furniture, objects, robot, camera.

The world is a 2-D top-down plane.  Furniture and walls are axis-aligned
rectangles, dynamic objects and the robot are disks, and every dynamic
object sits on a named support surface.  All mutation happens through
`run_leg`, `grasp`, and `place`; everything else is a pure query.

`run_leg` is the one tick loop of the unicycle: every motion leg of
`agent` runs in it as a per-tick control, and `step` is its one-tick
case.  It keeps the pose, clock and collision count in local floats and
writes them back when the leg ends; the held object's pose is set then
too, since nothing reads it during the leg.

`visible_objects` is the visibility contract, one camera at a time, and
`line_of_sight` the one sight test: the conjunction of its static loops
(walls, footprints) and its object loop.  `visible_batch` answers for many
cameras at once: numpy only discards the (camera, subject) pairs that
provably fail the range or cone test, and the scalar per-pair test of
`visible_objects` decides every pair it keeps.  Given the same cameras'
views of the scene without objects, it tests only the objects and asks
the object loop alone whether a surface seen there is still seen.

`Grid` is the one 0.05 m raster of the static geometry: the planner reads
its free cells, and each cell's `gap` bounds from below the distance from
any of its points to the nearest wall or footprint.

`point_blocked` is the collision contract: its exact loop over every wall
and footprint decides.  The gap is its conservative shortcut, one grid for
every clearance: in a cell whose gap is at least the clearance plus 1e-9
every point provably clears, so `point_blocked` returns False at once there
and runs the exact loop everywhere else.

Both exact loops skip what a bound rules out, and so keep every verdict.
`point_blocked` skips a rectangle when the point's gap to it along one axis
is already at least the clearance: the distance, a `hypot` of the two axis
gaps, is never below either.  `line_of_sight` skips a rectangle that misses
the segment's box widened by 1e-9, and a disk whose centre lies farther than
its radius plus 1e-9 from that box along one axis: a crossing needs a point
that the exact test computes on the segment (the clipped midpoint, the
nearest point to the centre) inside the rectangle or the disk, and that
point lies within a few ulps of the segment's box, far inside the margin
for coordinates below 1e6 m.  A NaN or infinite coordinate fails every
exact test, skipped or not.

Memos keep every result byte-identical to an uncached run, and each lives
on the object whose lifetime matches what it depends on.  A `Layout` is the
static home, shared by every scene on it and equal only to itself, so
nothing is keyed by its contents: `grid_for` finds the grid for an
inflation in the layout's own `grids`, and a layout's grids go with it.
`Grid.memo` holds one command's work on one grid, which no key restates:
plans (`("plan", start, goal)`), motion legs (`(body, bits)`, see `agent`)
and room lattices (`("lattice", room bounds, component)`, see
`agent.room_lattice`), at most `MEMO_CAP` of them together, oldest evicted
first.  A room lattice holds its cameras' `Snapshot`s of the scene without
objects, and every scene's captures of that room share them.  No code
mutates a `Snapshot`: `agent.detect` copies one with `replace` to corrupt
an attribute.  `layouts.forget_memos`, called by `cli.main` before each
command, empties the grid memos of the shipped layouts.  The raster
(`free`, `comp`, `gap`, `moves`) outlives them: a function of the geometry
alone, it costs a set-up build.  `Layout.encoded`, the canonical JSON of
the scene fields the layout fixes, is kept on the layout too, so
`scene_text` encodes only a scene's own fields.
A scene holds no memo.  Work on its objects, such as a room's
`agent.lattice_captures`, is held by its caller: the generator computes
each room's lattice once per scene and the task carries it to the crawl.
So `run_leg`, `grasp` and `place` move objects with no cache to empty.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eventlog import canonical_join, canonical_json
from .geometry import (
    TWO_PI,
    Rect,
    dist,
    norm_angle,
    segment_crosses_disk,
    segment_crosses_rect,
)

# Framework defaults (the source papers of such simulators rarely pin these;
# they are exposed through config and layout construction).
ROBOT_RADIUS_M = 0.25
REACH_M = 0.80
MAX_LINEAR_MPS = 1.0
MAX_ANGULAR_RPS = math.pi
DT_S = 0.05
CAMERA_FOV_RAD = math.pi / 2.0
CAMERA_RANGE_M = 3.5
GRIP_OFFSET_M = 0.30
MIN_SURFACE_AREA_M2 = 0.04

DYNAMIC = "dynamic"
SURFACE = "surface"


class ActionFailure(Exception):
    """A grasp/place attempt that could not be carried out."""


class GripperOccupied(ActionFailure):
    pass


class OutOfReach(ActionFailure):
    pass


class Occluded(ActionFailure):
    pass


class NoSuchObject(ActionFailure):
    pass


class NotHolding(ActionFailure):
    pass


class SurfaceOutOfReach(ActionFailure):
    pass


class NoFreePose(ActionFailure):
    pass


@dataclass
class Pose:
    x: float  # m
    y: float  # m
    theta: float = 0.0  # rad, normalized to [-pi, pi)

    def __post_init__(self) -> None:
        self.theta = norm_angle(self.theta)

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Door:
    """A gap in the wall between two rooms.

    axis "v": the wall is vertical at x == pos and span is a y-interval;
    axis "h": the wall is horizontal at y == pos and span is an x-interval.
    """
    id: str
    rooms: tuple[str, str]
    axis: str
    pos: float
    span: tuple[float, float]

    def center(self) -> tuple[float, float]:
        mid = 0.5 * (self.span[0] + self.span[1])
        return (self.pos, mid) if self.axis == "v" else (mid, self.pos)

    def anchor_in(self, room: "RoomSpec", inset: float) -> tuple[float, float]:
        """A point just inside `room`, centred on the door gap."""
        cx, cy = self.center()
        if self.axis == "v":
            sign = 1.0 if room.bounds.x0 >= self.pos else -1.0
            return (self.pos + sign * inset, cy)
        sign = 1.0 if room.bounds.y0 >= self.pos else -1.0
        return (cx, self.pos + sign * inset)


@dataclass
class RoomSpec:
    id: str
    name: str  # room-name vocabulary token
    bounds: Rect
    doors: list[Door] = field(default_factory=list)


@dataclass
class SupportSurface:
    id: str
    owner: str  # StaticObject id
    region: Rect
    height_class: str  # "floor-level" | "table-level"


@dataclass
class StaticObject:
    id: str
    category: str  # furniture token
    footprint: Rect
    surfaces: list[SupportSurface]
    color: str | None = None
    material: str | None = None


@dataclass
class DynamicObject:
    id: str
    category: str
    pose: Pose
    radius: float  # m
    support: str | None  # SupportSurface id; None while held
    color: str | None = None
    material: str | None = None


@dataclass
class RobotState:
    pose: Pose
    radius: float = ROBOT_RADIUS_M
    reach: float = REACH_M
    gripper: str | None = None
    max_linear: float = MAX_LINEAR_MPS  # m/s
    max_angular: float = MAX_ANGULAR_RPS  # rad/s


@dataclass
class CameraPose:
    pose: Pose
    fov: float = CAMERA_FOV_RAD  # full angle, rad
    range: float = CAMERA_RANGE_M  # m


@dataclass
class Snapshot:
    object_id: str
    kind: str  # DYNAMIC | SURFACE
    category: str
    color: str | None
    material: str | None
    bearing: float  # rad in camera frame, +left
    range: float  # m


@dataclass(frozen=True, eq=False)
class Layout:
    """The static home every scene of a command shares: rooms, doors,
    walls, furniture and the robot's start pose, stored as tuples.

    A layout equals only itself, so what depends on these fields alone
    lives on it: `obstacles`, the surface and room indexes, and `grids`,
    one `Grid` per inflation (see `grid_for`).  Nothing changes a layout
    after construction; `validate_layout` checks its invariants.
    """
    id: str
    rooms: tuple[RoomSpec, ...]
    doors: tuple[Door, ...]
    walls: tuple[Rect, ...]
    furniture: tuple[StaticObject, ...]
    start: Pose
    grids: dict[float, Grid] = field(default_factory=dict, init=False,
                                     repr=False)

    def __post_init__(self) -> None:
        for name in ("rooms", "doors", "walls", "furniture"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @cached_property
    def obstacles(self) -> tuple[Rect, ...]:
        """Every wall, then every furniture footprint in `furniture` order:
        the static rectangles that block motion and sight."""
        return (*self.walls, *(f.footprint for f in self.furniture))

    @cached_property
    def surfaces(self) -> tuple[SupportSurface, ...]:
        return tuple(s for f in self.furniture for s in f.surfaces)

    @cached_property
    def surface_index(self) -> dict[str, SupportSurface]:
        return {s.id: s for s in self.surfaces}

    @cached_property
    def surface_subjects(self) -> tuple[tuple, ...]:
        """The `_subjects` entry of each surface, in `surfaces` order: (id,
        `SURFACE`, the furniture holding it, region centre, that
        furniture's id as the look-past set)."""
        return tuple((s.id, SURFACE, f, s.region.center, frozenset({f.id}))
                     for f in self.furniture for s in f.surfaces)

    @cached_property
    def room_index(self) -> dict[str, RoomSpec]:
        return {r.id: r for r in self.rooms}

    @cached_property
    def room_surfaces(self) -> dict[str, tuple[SupportSurface, ...]]:
        """Room id -> the surfaces of the furniture standing in it, in
        `furniture` order (`validate_layout` puts each footprint in one
        room)."""
        return {r.id: tuple(s for f in self.furniture
                            if r.bounds.contains(*f.footprint.center)
                            for s in f.surfaces) for r in self.rooms}

    @cached_property
    def encoded(self) -> dict[str, str]:
        """The `canonical_json` text of each field of `env_record` that
        the layout fixes (`doors`, `furniture`, `layout`, `rooms`)."""
        return {k: canonical_json(v) for k, v in _layout_record(self).items()}

    def room(self, room_id: str) -> RoomSpec:
        return self.room_index[room_id]

    def surface(self, sid: str) -> SupportSurface:
        return self.surface_index[sid]


@dataclass
class Environment:
    """One scene: its `Layout` and the state that changes."""
    layout: Layout
    objects: dict[str, DynamicObject]
    robot: RobotState
    clock: float = 0.0  # simulated seconds
    collisions: int = 0
    # When set, run_leg() appends the pose after each tick: a motion audit.
    trace: list | None = None

    # `perfbench/workloads.py` reads these two of `make_environment`'s scene.
    @property
    def walls(self) -> tuple[Rect, ...]:
        return self.layout.walls

    @property
    def furniture(self) -> tuple[StaticObject, ...]:
        return self.layout.furniture


def point_in_room(env: Environment, x: float, y: float) -> str | None:
    """Id of the unique room containing (x, y), or None.

    Room bounds are half-open so a point on a shared wall belongs to
    exactly one room.
    """
    for r in env.layout.rooms:
        if r.bounds.contains(x, y):
            return r.id
    return None


# Margin of the sight prefilters.  np.hypot and np.arctan2 may differ from
# math.hypot and math.atan2 in the last bit, so `visible_batch` keeps a pair
# within this margin of its camera's range or cone for `_in_view` to decide;
# `line_of_sight` widens a segment's box by it to cover the rounding of the
# points its exact tests compute on the segment.
_SIGHT_EPS = 1e-9


def _sight_box(a: tuple[float, float], b: tuple[float, float],
               ) -> tuple[float, float, float, float] | None:
    """The box of the segment a-b widened by the margin, as (lx, hx, ly,
    hy), or None when a and b coincide and nothing can block."""
    ax, ay = a
    bx, by = b
    if ax == bx and ay == by:
        return None
    lx, hx = (ax, bx) if ax <= bx else (bx, ax)
    ly, hy = (ay, by) if ay <= by else (by, ay)
    return (lx - _SIGHT_EPS, hx + _SIGHT_EPS, ly - _SIGHT_EPS, hy + _SIGHT_EPS)


def _static_clear(layout: Layout, a: tuple[float, float],
                  b: tuple[float, float], box: tuple[float, float, float, float],
                  ignore: frozenset[str] | set[str]) -> bool:
    """No wall, and no footprint outside `ignore`, crosses the segment."""
    ax, ay = a
    bx, by = b
    lx, hx, ly, hy = box
    for w in layout.walls:
        if w.x1 < lx or w.x0 > hx or w.y1 < ly or w.y0 > hy:
            continue
        if segment_crosses_rect(ax, ay, bx, by, w):
            return False
    for f in layout.furniture:
        r = f.footprint
        if r.x1 < lx or r.x0 > hx or r.y1 < ly or r.y0 > hy or f.id in ignore:
            continue
        if segment_crosses_rect(ax, ay, bx, by, r):
            return False
    return True


def _objects_clear(env: Environment, a: tuple[float, float],
                   b: tuple[float, float], box: tuple[float, float, float, float],
                   ignore: frozenset[str] | set[str]) -> bool:
    """No dynamic-object disk outside `ignore` crosses the segment."""
    ax, ay = a
    bx, by = b
    lx, hx, ly, hy = box
    for o in env.objects.values():
        ox, oy, rad = o.pose.x, o.pose.y, o.radius
        if ox + rad < lx or ox - rad > hx or oy + rad < ly or oy - rad > hy \
                or o.id in ignore:
            continue
        if segment_crosses_disk(ax, ay, bx, by, ox, oy, rad):
            return False
    return True


def line_of_sight(env: Environment, a: tuple[float, float], b: tuple[float, float],
                  ignore: frozenset[str] | set[str] = frozenset()) -> bool:
    """True iff the open segment a-b is not blocked.

    Walls always block.  Furniture footprints and dynamic-object disks
    block unless their id is in `ignore`.  The test is the conjunction of
    the static loops (walls, footprints) and the object loop; what the
    segment's box rules out skips its exact test (see the module
    docstring).
    """
    box = _sight_box(a, b)
    return box is None or (_static_clear(env.layout, a, b, box, ignore)
                           and _objects_clear(env, a, b, box, ignore))


def sight_ignore(env: Environment, obj: DynamicObject) -> frozenset[str]:
    """What a sight line to `obj` looks past: the object itself and the
    furniture it rests on."""
    if obj.support is None:
        return frozenset({obj.id})
    return frozenset({obj.id, env.layout.surface(obj.support).owner})


def _subjects(env: Environment) -> list[
        tuple[str, str, DynamicObject | StaticObject, tuple[float, float],
              frozenset[str]]]:
    """(id, kind, source, reference point, look-past set) of everything a
    camera can report, in snapshot order: the objects, then the layout's
    `surface_subjects`.  The source carries category and attributes: the
    object itself, or the furniture that owns the surface.  The look-past
    set is what the sight line to the subject ignores (see
    `visible_objects`)."""
    return [*_object_subjects(env), *env.layout.surface_subjects]


def _object_subjects(env: Environment) -> list[tuple]:
    """The `_subjects` entries of the scene's objects, by id."""
    return [(oid, DYNAMIC, o, o.pose.xy, sight_ignore(env, o))
            for oid, o in sorted(env.objects.items())]


def _in_view(cam: CameraPose, ref: tuple[float, float]) -> tuple[float, float] | None:
    """(bearing, range) if ref passes the camera's range and cone tests."""
    dx = ref[0] - cam.pose.x
    dy = ref[1] - cam.pose.y
    rng = math.hypot(dx, dy)
    if rng > cam.range:
        return None
    bearing = norm_angle(math.atan2(dy, dx) - cam.pose.theta) if rng > 0.0 else 0.0
    if abs(bearing) > cam.fov / 2.0:
        return None
    return bearing, rng


def _sighting(env: Environment, cam: CameraPose, sub: tuple) -> Snapshot | None:
    """The snapshot of one `_subjects` entry from `cam`, or None when it
    fails the range, cone or sight test."""
    sid, kind, source, ref, past = sub
    hit = _in_view(cam, ref)
    if hit is None or not line_of_sight(env, cam.pose.xy, ref, past):
        return None
    return Snapshot(sid, kind, source.category, source.color, source.material,
                    hit[0], hit[1])


def visible_objects(env: Environment, cam: CameraPose) -> list[Snapshot]:
    """Snapshots of every dynamic object and support surface the camera sees.

    This is the visibility contract.  A subject is seen when its reference
    point (an object's centre, a surface's region centre) is within range,
    within the cone, and in clear sight.  The subject's own disk is ignored
    for its sight test, and so is the furniture piece it rests on: an object
    standing on a table must be visible over that table in this top-down
    abstraction.  Results are ordered by ascending range, ties broken by id.
    """
    snaps = (_sighting(env, cam, sub) for sub in _subjects(env))
    out = [snap for snap in snaps if snap is not None]
    out.sort(key=lambda s: (s.range, s.object_id))
    return out


def visible_batch(env: Environment, cams: list[CameraPose],
                  bare: list[list[Snapshot]] | None = None,
                  ) -> list[list[Snapshot]]:
    """`[visible_objects(env, c) for c in cams]`, with one array pass.

    numpy only discards (camera, subject) pairs whose reference point lies
    beyond the camera's range or outside its cone by more than `_SIGHT_EPS`.
    Every pair it keeps takes the per-pair test of `visible_objects`
    (`_in_view`, then `line_of_sight`), so each list equals the scalar one
    by construction.  The array pass pays off over a lattice of cameras, in
    which most pairs fail range or cone.

    `bare`, when given, is this call's result for the same cameras in the
    scene without objects, which holds surfaces only.  Then only the
    objects take the array pass and the per-pair test, and each snapshot of
    `bare` is kept unless an object disk outside its look-past set crosses
    its sight line: the same range, cone and static loops decide a surface
    with or without objects, and objects only add blockers, so the lists
    are equal on a layout whose surface ids are unique (`validate_layout`).
    The snapshots of `bare` are shared, not copied.
    """
    if bare is None:
        out: list[list[Snapshot]] = [[] for _ in cams]
        subs = _subjects(env)
    else:
        index = {sub[0]: sub for sub in env.layout.surface_subjects}
        out = [[s for s in snaps if _still_clear(env, cam, index[s.object_id])]
               for cam, snaps in zip(cams, bare)]
        subs = _object_subjects(env)
    # Each list is sorted so far: empty, or a filtered list of `bare`.
    if not cams or not subs:
        return out
    cam = np.array([(c.pose.x, c.pose.y, c.pose.theta, c.fov / 2.0, c.range)
                    for c in cams])
    ref = np.array([s[3] for s in subs])
    dx = ref[None, :, 0] - cam[:, 0:1]
    dy = ref[None, :, 1] - cam[:, 1:2]
    near = np.hypot(dx, dy) <= cam[:, 4:5] + _SIGHT_EPS
    off = np.abs(np.mod(np.arctan2(dy, dx) - cam[:, 2:3] + math.pi, TWO_PI)
                 - math.pi)
    # A camera on a reference point sees it at bearing 0 (see `_in_view`).
    cone = (off <= cam[:, 3:4] + _SIGHT_EPS) | ((dx == 0.0) & (dy == 0.0))
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(near & cone))):
        snap = _sighting(env, cams[i], subs[j])
        if snap is not None:
            out[i].append(snap)
    for snaps in out:
        snaps.sort(key=lambda s: (s.range, s.object_id))
    return out


def _still_clear(env: Environment, cam: CameraPose, sub: tuple) -> bool:
    """Whether no object disk outside its look-past set crosses the sight
    line from `cam` to a `_subjects` entry."""
    _, _, _, ref, past = sub
    a = cam.pose.xy
    box = _sight_box(a, ref)
    return box is None or _objects_clear(env, a, ref, box, past)


def capture_supports(env: Environment) -> dict[str, str]:
    """Support-surface id per dynamic object, as perceived at capture time."""
    return {oid: o.support for oid, o in sorted(env.objects.items())
            if o.support is not None}


GRID_RES_M = 0.05
INFLATE_MARGIN_M = 0.15  # beyond the robot radius
# Widening of a cell's box and margin on its gap: covers the rounding of the
# cell index and of every distance, so a cell's gap holds for each point the
# query maps into it.
_GAP_EPS = 1e-9


# The 8 grid moves (dx, dy) in bit order of `Grid.moves`: orthogonal first.
GRID_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1),
              (1, 1), (1, -1), (-1, 1), (-1, -1))

MEMO_CAP = 4096  # entries of one grid's memo, all kinds together


@dataclass
class Grid:
    """Cells of `res` from the padded origin (x0, y0).  A cell is free when
    its centre is in a room and at least the inflation from every obstacle.
    `gap[iy * nx + ix]` is the exact distance from the cell's box, widened
    by 1e-9, to the nearest obstacle; -inf unless that box lies inside one
    room's half-open bounds.  `memo` holds the per-command work on this
    geometry (see the module docstring)."""
    x0: float
    y0: float
    res: float
    free: np.ndarray  # bool [ny, nx]
    comp: np.ndarray  # int32 [ny, nx], 4-connected component, -1 if blocked
    gap: array  # float64 [ny * nx]
    nx: int = field(init=False)
    ny: int = field(init=False)
    memo: dict = field(init=False, default_factory=dict, repr=False,
                       compare=False)

    def __post_init__(self) -> None:
        self.ny, self.nx = self.free.shape

    @cached_property
    def moves(self) -> bytes:
        """Per-cell mask of legal moves, flat by `iy * nx + ix`: bit k is set
        when the k-th of `GRID_MOVES` lands on a free cell in bounds and, for
        a diagonal, both orthogonal cells beside it are free (the corner
        rule).  Built on first use, so only planning pays for it."""
        nx, ny = self.nx, self.ny
        padded = np.zeros((ny + 2, nx + 2), dtype=bool)
        padded[1:-1, 1:-1] = self.free

        def free_at(dx: int, dy: int) -> np.ndarray:
            return padded[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]

        mask = np.zeros((ny, nx), dtype=np.uint8)
        for bit, (dx, dy) in enumerate(GRID_MOVES):
            legal = free_at(dx, dy)
            if dx and dy:
                legal = legal & free_at(dx, 0) & free_at(0, dy)
            mask |= legal.astype(np.uint8) << bit
        return mask.tobytes()

    @cached_property
    def move_table(self) -> tuple[tuple[tuple[int, int, int, float], ...], ...]:
        """Per byte of `moves`, its moves as (flat offset, dx, dy, cost)."""
        steps = [(dy * self.nx + dx, dx, dy,
                  (math.sqrt(2.0) if dx and dy else 1.0) * self.res)
                 for dx, dy in GRID_MOVES]
        return tuple(tuple(m for bit, m in enumerate(steps) if mask >> bit & 1)
                     for mask in range(256))

    @cached_property
    def g_scratch(self) -> list[float]:
        """A* cost-so-far per flat cell, all inf between searches: each
        search of `planner._astar` resets the entries it set."""
        return [math.inf] * (self.nx * self.ny)

    def remember(self, key, value):
        """`memo[key] = value`, oldest evicted at `MEMO_CAP`; returns value."""
        if len(self.memo) >= MEMO_CAP:
            del self.memo[next(iter(self.memo))]
        self.memo[key] = value
        return value

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor((x - self.x0) / self.res)),
                int(math.floor((y - self.y0) / self.res)))

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.nx and 0 <= iy < self.ny

    def center(self, ix: int, iy: int) -> tuple[float, float]:
        return (self.x0 + (ix + 0.5) * self.res, self.y0 + (iy + 0.5) * self.res)

    def cell_free(self, x: float, y: float) -> bool:
        ix, iy = self.cell_of(x, y)
        return self.in_bounds(ix, iy) and bool(self.free[iy, ix])

    def component_at(self, x: float, y: float) -> int:
        ix, iy = self.cell_of(x, y)
        if not self.in_bounds(ix, iy):
            return -1
        return int(self.comp[iy, ix])


def _axis_gap(lo: np.ndarray, hi: np.ndarray, a0: float, a1: float) -> np.ndarray:
    """Distance along one axis from each interval [lo, hi] to [a0, a1]."""
    return np.maximum(np.maximum(a0 - hi, lo - a1), 0.0)


def build_grid(layout: Layout, inflate: float) -> Grid:
    """The grid of the layout's geometry, obstacles inflated by `inflate`."""
    if not layout.rooms:
        return Grid(0.0, 0.0, GRID_RES_M, np.zeros((0, 0), dtype=bool),
                    np.zeros((0, 0), dtype=np.int32), array("d"))
    pad = 2 * GRID_RES_M
    x0 = min(r.bounds.x0 for r in layout.rooms) - pad
    y0 = min(r.bounds.y0 for r in layout.rooms) - pad
    x1 = max(r.bounds.x1 for r in layout.rooms) + pad
    y1 = max(r.bounds.y1 for r in layout.rooms) + pad
    nx = int(math.ceil((x1 - x0) / GRID_RES_M))
    ny = int(math.ceil((y1 - y0) / GRID_RES_M))
    ix = np.arange(nx)
    iy = np.arange(ny)
    xs = x0 + (ix + 0.5) * GRID_RES_M
    ys = y0 + (iy + 0.5) * GRID_RES_M
    # Widened cell boxes: [xlo, xhi] per column, [ylo, yhi] per row.
    xlo = x0 + ix * GRID_RES_M - _GAP_EPS
    xhi = x0 + (ix + 1) * GRID_RES_M + _GAP_EPS
    ylo = y0 + iy * GRID_RES_M - _GAP_EPS
    yhi = y0 + (iy + 1) * GRID_RES_M + _GAP_EPS

    free = np.zeros((ny, nx), dtype=bool)
    boxed = np.zeros((ny, nx), dtype=bool)
    for r in layout.rooms:
        b = r.bounds
        free |= (((ys >= b.y0) & (ys < b.y1))[:, None]
                 & ((xs >= b.x0) & (xs < b.x1))[None, :])
        # Half-open room bounds: the box must stay below the high edges.
        boxed |= (((b.y0 <= ylo) & (yhi < b.y1))[:, None]
                  & ((b.x0 <= xlo) & (xhi < b.x1))[None, :])
    gap = np.full((ny, nx), np.inf)
    for r in layout.obstacles:
        free &= np.hypot(_axis_gap(xs, xs, r.x0, r.x1)[None, :],
                         _axis_gap(ys, ys, r.y0, r.y1)[:, None]) >= inflate
        np.minimum(gap, np.hypot(_axis_gap(xlo, xhi, r.x0, r.x1)[None, :],
                                 _axis_gap(ylo, yhi, r.y0, r.y1)[:, None]),
                   out=gap)
    gap[~boxed] = -np.inf

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
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    tx, ty = cx + dx, cy + dy
                    if 0 <= tx < nx and 0 <= ty < ny and free[ty, tx] and comp[ty, tx] < 0:
                        comp[ty, tx] = label
                        stack.append((tx, ty))
            label += 1
    return Grid(x0, y0, GRID_RES_M, free, comp, array("d", gap.tobytes()))


def grid_for(env: Environment) -> Grid:
    """The grid of env's layout for its inflation (robot radius + margin),
    built on first use and kept on the layout."""
    inflate = env.robot.radius + INFLATE_MARGIN_M
    grids = env.layout.grids
    grid = grids.get(inflate)
    if grid is None:
        grid = grids[inflate] = build_grid(env.layout, inflate)
    return grid


def point_blocked(env: Environment, x: float, y: float, clearance: float) -> bool:
    """True iff (x, y) is outside every room or nearer than `clearance` to a
    wall or a furniture footprint.

    The exact loop below is the contract.  A point in a grid cell whose gap
    is at least `clearance` plus 1e-9 provably passes it and skips the loop.
    """
    g = grid_for(env)
    u = (x - g.x0) / g.res
    v = (y - g.y0) / g.res
    # Comparisons with NaN are False, so a NaN coordinate takes the loop.
    if 0.0 <= u < g.nx and 0.0 <= v < g.ny and \
            g.gap[int(v) * g.nx + int(u)] >= clearance + _GAP_EPS:
        return False
    if point_in_room(env, x, y) is None:
        return True
    c = clearance
    for r in env.layout.obstacles:
        if r.x0 - x >= c or x - r.x1 >= c or r.y0 - y >= c or y - r.y1 >= c:
            continue
        if r.distance_to(x, y) < c:
            return True
    return False


def robot_collides(env: Environment, x: float, y: float) -> bool:
    return point_blocked(env, x, y, env.robot.radius)


def attach_pose(robot_pose: Pose, offset: float = GRIP_OFFSET_M) -> Pose:
    return Pose(robot_pose.x + offset * math.cos(robot_pose.theta),
                robot_pose.y + offset * math.sin(robot_pose.theta),
                robot_pose.theta)


def run_leg(env: Environment, control, deadline: float, halt: bool = False,
            dt: float = DT_S) -> bool | None:
    """Advance the unicycle tick by tick under `control`, until it stops.

    Each tick while the clock is below `deadline` (less 1e-9) asks
    `control(x, y, theta, clock)` for the velocities `(v, w)` of the next
    tick, or for a bool, which ends the leg and is returned.  With `halt`
    the first rejected move ends the leg with False; None means the
    deadline ended it.

    Velocities are clamped to the robot's limits.  On collision the pose
    freezes but the clock still advances.  A held object tracks the
    gripper rigidly.  The pose, clock and collision count live in local
    variables during the leg and are written back once, on every exit:
    nothing reads them, or the held object's pose, until the leg ends.
    `env.trace`, when set, gets the pose after every tick.
    """
    rb = env.robot
    vmax, wmax, radius = rb.max_linear, rb.max_angular, rb.radius
    trace = env.trace
    p = rb.pose
    x, y, th = p.x, p.y, p.theta
    clock, collisions = env.clock, env.collisions
    last = None  # the heading of the last move before `Pose`'s own wrap
    try:
        while clock < deadline - 1e-9:
            cmd = control(x, y, th, clock)
            if cmd is True or cmd is False:
                return cmd
            v, w = cmd
            v = max(-vmax, min(vmax, v))
            w = max(-wmax, min(wmax, w))
            # No tunneling: one tick never moves farther than the radius.
            assert abs(v) * dt <= radius + 1e-9, "step displacement exceeds radius"
            nx = x + v * math.cos(th) * dt
            ny = y + v * math.sin(th) * dt
            # The second wrap is the one `Pose` makes.  A wrap rounds (pi is
            # added before the fmod), so both wraps are part of the per-tick
            # trace bits, the byte contract the leg memo replays: dropping
            # either is a declared behaviour change.
            turned = norm_angle(th + w * dt)
            collided = (nx != x or ny != y) and robot_collides(env, nx, ny)
            if collided:
                collisions += 1
            else:
                x, y, th, last = nx, ny, norm_angle(turned), turned
            clock += dt
            if trace is not None:
                trace.append((x, y, th))
            if collided and halt:
                return False
        return None
    finally:
        if last is not None:
            rb.pose = Pose(x, y, last)
            if rb.gripper is not None:
                env.objects[rb.gripper].pose = attach_pose(rb.pose)
        env.clock, env.collisions = clock, collisions


def step(env: Environment, v: float, w: float, dt: float) -> bool:
    """Advance the unicycle one tick; returns True when the move was rejected.

    The one-tick case of `run_leg`: velocities `(v, w)`, then a stop.
    """
    cmds = [True, (v, w)]
    return run_leg(env, lambda *_: cmds.pop(), math.inf, True, dt) is False


def grasp(env: Environment, target: str) -> None:
    """Pick `target` up if it is reachable and in clear sight."""
    rb = env.robot
    if rb.gripper is not None:
        raise GripperOccupied(f"already holding {rb.gripper}")
    obj = env.objects.get(target)
    if obj is None:
        raise NoSuchObject(target)
    if dist(rb.pose.xy, obj.pose.xy) > rb.reach + 1e-9:
        raise OutOfReach(target)
    if not line_of_sight(env, rb.pose.xy, obj.pose.xy, sight_ignore(env, obj)):
        raise Occluded(target)
    obj.support = None
    rb.gripper = target
    obj.pose = attach_pose(rb.pose)


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_SPIRAL_STEP_M = 0.035
_SPIRAL_CANDIDATES = 512


def place_spot(env: Environment, dest: str, obj: DynamicObject,
               robot_xy: tuple[float, float]) -> tuple[float, float]:
    """Where `place` would set `obj` down on `dest` with the robot at `robot_xy`.

    Candidates spiral out from the surface point nearest the robot; the
    first that stays on the surface, within reach, and clear of every other
    object wins.  Raises NoSuchObject, NoFreePose or SurfaceOutOfReach, as
    `place` does.
    """
    surf = env.layout.surface_index.get(dest)
    if surf is None:
        raise NoSuchObject(dest)
    inset = surf.region.inset(obj.radius)
    if inset.width == 0.0 and inset.height == 0.0:
        # Region too small for this object; treat like a packed surface.
        raise NoFreePose(dest)
    reach = env.robot.reach
    if inset.distance_to(robot_xy[0], robot_xy[1]) > reach:
        raise SurfaceOutOfReach(dest)
    ax, ay = inset.clamp(robot_xy[0], robot_xy[1])
    for k in range(_SPIRAL_CANDIDATES):
        r = _SPIRAL_STEP_M * math.sqrt(float(k))
        ang = k * _GOLDEN_ANGLE
        cx = ax + r * math.cos(ang)
        cy = ay + r * math.sin(ang)
        if not inset.contains_closed(cx, cy):
            continue
        if dist(robot_xy, (cx, cy)) > reach:
            continue
        if all(o.id == obj.id
               or dist(o.pose.xy, (cx, cy)) >= o.radius + obj.radius - 1e-9
               for o in env.objects.values()):
            return (cx, cy)
    raise NoFreePose(dest)


def place(env: Environment, dest: str) -> None:
    """Set the held object down on surface `dest`.

    Candidate poses spiral out from the point of the surface nearest the
    robot; the first free pose within reach wins.
    """
    rb = env.robot
    if rb.gripper is None:
        raise NotHolding()
    obj = env.objects[rb.gripper]
    spot = place_spot(env, dest, obj, rb.pose.xy)
    obj.pose = Pose(spot[0], spot[1], 0.0)
    obj.support = dest
    rb.gripper = None


def validate_layout(layout: Layout) -> list[str]:
    """The layout's invariants; returns a list of violations (empty ==
    valid)."""
    bad: list[str] = []
    for kind, ids in (("room", [r.id for r in layout.rooms]),
                      ("furniture", [f.id for f in layout.furniture]),
                      ("surface", [s.id for s in layout.surfaces])):
        for dup in sorted({i for i in ids if ids.count(i) > 1}):
            bad.append(f"{kind} id {dup} repeated")
    rooms = layout.rooms
    for i, a in enumerate(rooms):
        for b in rooms[i + 1:]:
            if a.bounds.overlaps(b.bounds):
                bad.append(f"rooms {a.id} and {b.id} overlap")
    # Connectivity over the door graph.
    if len(rooms) > 1:
        adj: dict[str, set[str]] = {r.id: set() for r in rooms}
        for d in layout.doors:
            ra, rb_ = d.rooms
            if ra not in adj or rb_ not in adj:
                bad.append(f"door {d.id} joins an unknown room")
                continue
            adj[ra].add(rb_)
            adj[rb_].add(ra)
        seen = {rooms[0].id}
        queue = [rooms[0].id]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) != len(adj):
            bad.append("rooms not mutually reachable via doors")
    for f in layout.furniture:
        containing = [r.id for r in rooms
                      if r.bounds.x0 <= f.footprint.x0 and f.footprint.x1 <= r.bounds.x1
                      and r.bounds.y0 <= f.footprint.y0 and f.footprint.y1 <= r.bounds.y1]
        if len(containing) != 1:
            bad.append(f"furniture {f.id} not inside exactly one room")
        for s in f.surfaces:
            fp = f.footprint
            if not (fp.x0 <= s.region.x0 and s.region.x1 <= fp.x1
                    and fp.y0 <= s.region.y0 and s.region.y1 <= fp.y1):
                bad.append(f"surface {s.id} outside footprint of {f.id}")
            if s.region.area < MIN_SURFACE_AREA_M2:
                bad.append(f"surface {s.id} below minimum placeable area")
    return bad


def validate_environment(env: Environment) -> list[str]:
    """The scene's invariants (objects and robot) on its layout, which
    `validate_layout` checks; returns a list of violations (empty ==
    valid)."""
    bad: list[str] = []
    held = env.robot.gripper
    objs = sorted(env.objects.values(), key=lambda o: o.id)
    for o in objs:
        if o.id == held:
            if o.support is not None:
                bad.append(f"held object {o.id} still has a support")
            want = attach_pose(env.robot.pose)
            if dist(o.pose.xy, want.xy) > 1e-9:
                bad.append(f"held object {o.id} not at grip offset")
            continue
        if o.support is None:
            bad.append(f"object {o.id} has no support and is not held")
            continue
        surf = env.layout.surface_index.get(o.support)
        if surf is None:
            bad.append(f"object {o.id} supported by unknown surface {o.support}")
            continue
        if not surf.region.inset(o.radius).contains_closed(o.pose.x, o.pose.y):
            bad.append(f"object {o.id} disk leaves region of {o.support}")
        if abs(norm_angle(o.pose.theta) - o.pose.theta) > 1e-12:
            bad.append(f"object {o.id} theta not normalized")
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if held in (a.id, b.id):
                continue
            if dist(a.pose.xy, b.pose.xy) < a.radius + b.radius - 1e-9:
                bad.append(f"objects {a.id} and {b.id} overlap")
    if robot_collides(env, env.robot.pose.x, env.robot.pose.y):
        bad.append("robot in collision")
    return bad


def snapshot_record(s: Snapshot) -> dict:
    """Tree encoding of one snapshot, shared by datasets and episode logs."""
    return {"id": s.object_id, "kind": s.kind, "category": s.category,
            "color": s.color, "material": s.material,
            "bearing_rad": s.bearing, "range_m": s.range}


def _layout_record(layout: Layout) -> dict:
    """The fields of `env_record` that the layout fixes."""
    return {
        "layout": layout.id,
        "rooms": [
            {"id": r.id, "name": r.name, "bounds_m": list(r.bounds.as_tuple())}
            for r in layout.rooms
        ],
        "doors": [
            {"id": d.id, "rooms": list(d.rooms), "axis": d.axis,
             "pos_m": d.pos, "span_m": list(d.span)}
            for d in layout.doors
        ],
        "furniture": [
            {"id": f.id, "category": f.category, "color": f.color,
             "material": f.material, "footprint_m": list(f.footprint.as_tuple()),
             "surfaces": [
                 {"id": s.id, "region_m": list(s.region.as_tuple()),
                  "height_class": s.height_class}
                 for s in f.surfaces
             ]}
            for f in layout.furniture
        ],
    }


def _state_record(env: Environment) -> dict:
    """The fields of `env_record` that change from scene to scene."""
    return {
        "clock_s": env.clock,
        "objects": [
            {"id": o.id, "category": o.category, "color": o.color,
             "material": o.material, "x_m": o.pose.x, "y_m": o.pose.y,
             "theta_rad": o.pose.theta, "radius_m": o.radius,
             "support": o.support}
            for _, o in sorted(env.objects.items())
        ],
        "robot": {
            "x_m": env.robot.pose.x, "y_m": env.robot.pose.y,
            "theta_rad": env.robot.pose.theta, "radius_m": env.robot.radius,
            "reach_m": env.robot.reach, "gripper": env.robot.gripper,
        },
    }


def env_record(env: Environment) -> dict:
    """Stable tree encoding of the scene with explicit units in key names."""
    return {**_layout_record(env.layout), **_state_record(env)}


def scene_text(env: Environment) -> str:
    """`canonical_json(env_record(env))`: the layout's fields are encoded
    once per layout (`Layout.encoded`) and joined with the scene's own."""
    state = {k: canonical_json(v) for k, v in _state_record(env).items()}
    return canonical_join({**env.layout.encoded, **state})
