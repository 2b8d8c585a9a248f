"""Ground-truth world model: rooms, furniture, objects, robot, camera.

The world is a 2-D top-down plane.  Furniture and walls are axis-aligned
rectangles, dynamic objects and the robot are disks, and every dynamic
object sits on a named support surface.  All mutation happens through
`step`, `grasp`, and `place`; everything else is a pure query.

`visible_objects` is the visibility contract, one camera at a time.
`visible_batch` answers for many cameras at once and must return exactly
what `visible_objects` returns for each, bit for bit.

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
first.  `layouts.forget_memos`, called by `cli.main` before each command,
empties the grid memos of the shipped layouts.  The raster (`free`, `comp`,
`gap`, `moves`) outlives them: a function of the geometry alone, it costs a
set-up build.
A scene holds no memo.  Work on its objects, such as a room's
`agent.lattice_captures`, is held by its caller: the generator computes
each room's lattice once per scene and the task carries it to the crawl.
So `step`, `grasp` and `place` move objects with no cache to empty.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    lives on it: `obstacles`, `sight_rects`, the surface and room indexes,
    and `grids`, one `Grid` per inflation (see `grid_for`).  Nothing changes
    a layout after construction; `validate_layout` checks its invariants.
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
    def sight_rects(self) -> np.ndarray:
        """(x0, y0, x1, y1) rows of `obstacles`."""
        return np.array([r.as_tuple() for r in self.obstacles],
                        dtype=np.float64).reshape(-1, 4)

    @cached_property
    def furniture_columns(self) -> dict[str, list[int]]:
        """Furniture id -> its columns of `sight_rects`, every piece that
        bears the id (`validate_layout` refuses a repeated one)."""
        cols: dict[str, list[int]] = {}
        for k, f in enumerate(self.furniture):
            cols.setdefault(f.id, []).append(len(self.walls) + k)
        return cols

    @cached_property
    def surfaces(self) -> tuple[SupportSurface, ...]:
        return tuple(s for f in self.furniture for s in f.surfaces)

    @cached_property
    def surface_index(self) -> dict[str, SupportSurface]:
        return {s.id: s for s in self.surfaces}

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
    # When set, step() appends the post-step pose: an external motion audit.
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
# math.hypot and math.atan2 in the last bit, so `visible_batch` hands a pair
# within this margin of a threshold to the scalar test; `line_of_sight`
# widens a segment's box by it to cover the rounding of the points its exact
# tests compute on the segment.
_SIGHT_EPS = 1e-9


def line_of_sight(env: Environment, a: tuple[float, float], b: tuple[float, float],
                  ignore: frozenset[str] | set[str] = frozenset()) -> bool:
    """True iff the open segment a-b is not blocked.

    Walls always block.  Furniture footprints and dynamic-object disks
    block unless their id is in `ignore`.  What the segment's box rules out
    skips its exact test (see the module docstring).
    """
    ax, ay = a
    bx, by = b
    if ax == bx and ay == by:
        return True
    # The segment's box, widened by the margin: what misses it is skipped.
    lx, hx = (ax, bx) if ax <= bx else (bx, ax)
    ly, hy = (ay, by) if ay <= by else (by, ay)
    lx -= _SIGHT_EPS
    hx += _SIGHT_EPS
    ly -= _SIGHT_EPS
    hy += _SIGHT_EPS
    for w in env.layout.walls:
        if w.x1 < lx or w.x0 > hx or w.y1 < ly or w.y0 > hy:
            continue
        if segment_crosses_rect(ax, ay, bx, by, w):
            return False
    for f in env.layout.furniture:
        r = f.footprint
        if r.x1 < lx or r.x0 > hx or r.y1 < ly or r.y0 > hy or f.id in ignore:
            continue
        if segment_crosses_rect(ax, ay, bx, by, r):
            return False
    for o in env.objects.values():
        ox, oy, rad = o.pose.x, o.pose.y, o.radius
        if ox + rad < lx or ox - rad > hx or oy + rad < ly or oy - rad > hy \
                or o.id in ignore:
            continue
        if segment_crosses_disk(ax, ay, bx, by, ox, oy, rad):
            return False
    return True


def sight_ignore(env: Environment, obj: DynamicObject) -> frozenset[str]:
    """What a sight line to `obj` looks past: the object itself and the
    furniture it rests on."""
    if obj.support is None:
        return frozenset({obj.id})
    return frozenset({obj.id, env.layout.surface(obj.support).owner})


def _subjects(env: Environment) -> list[
        tuple[str, str, DynamicObject | StaticObject, tuple[float, float]]]:
    """(id, kind, source, reference point) of everything a camera can
    report, in snapshot order.  The source carries category and attributes:
    the object itself, or the furniture that owns the surface."""
    subs: list = [(oid, DYNAMIC, o, o.pose.xy)
                  for oid, o in sorted(env.objects.items())]
    subs += [(s.id, SURFACE, f, s.region.center)
             for f in env.layout.furniture for s in f.surfaces]
    return subs


def _looks_past(env: Environment, kind: str,
                source: DynamicObject | StaticObject) -> frozenset[str]:
    """What the sight line to a subject looks past: see `visible_objects`."""
    return sight_ignore(env, source) if kind == DYNAMIC else frozenset({source.id})


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


def _snapshot(sid: str, kind: str, source: DynamicObject | StaticObject,
              hit: tuple[float, float]) -> Snapshot:
    return Snapshot(sid, kind, source.category, source.color, source.material,
                    hit[0], hit[1])


def visible_objects(env: Environment, cam: CameraPose) -> list[Snapshot]:
    """Snapshots of every dynamic object and support surface the camera sees.

    This is the visibility contract; `visible_batch` must equal it.  A
    subject is seen when its reference point (an object's centre, a
    surface's region centre) is within range, within the cone, and in clear
    sight.  The subject's own disk is ignored for its sight test, and so is
    the furniture piece it rests on: an object standing on a table must be
    visible over that table in this top-down abstraction.  Results are
    ordered by ascending range, ties broken by id.
    """
    out: list[Snapshot] = []
    for sid, kind, source, ref in _subjects(env):
        hit = _in_view(cam, ref)
        if hit is not None and line_of_sight(env, cam.pose.xy, ref,
                                             _looks_past(env, kind, source)):
            out.append(_snapshot(sid, kind, source, hit))
    out.sort(key=lambda s: (s.range, s.object_id))
    return out


def visible_batch(env: Environment, cams: list[CameraPose]) -> list[list[Snapshot]]:
    """`[visible_objects(env, c) for c in cams]`, in a few array passes.

    numpy only discards (camera, subject) pairs that provably fail the
    cone, range or sight test, or decides a pair with the same IEEE
    operations as the scalar test.  Every pair it keeps is re-tested by
    `_in_view`, which also gives each snapshot's bearing and range, so the
    result is bit-identical to the scalar contract.  The array set-up pays
    off over a whole lattice of cameras, not over one.
    """
    out: list[list[Snapshot]] = [[] for _ in cams]
    subs = _subjects(env)
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
    cone = (off <= cam[:, 3:4] + _SIGHT_EPS) | ((dx == 0.0) & (dy == 0.0))
    ci, sj = np.nonzero(near & cone)
    clear = _sight_clear(env, subs, sj, cam[ci, 0], cam[ci, 1],
                         ref[sj, 0], ref[sj, 1])
    for i, j in zip(ci[clear].tolist(), sj[clear].tolist()):
        hit = _in_view(cams[i], subs[j][3])
        if hit is not None:
            out[i].append(_snapshot(*subs[j][:3], hit))
    for snaps in out:
        snaps.sort(key=lambda s: (s.range, s.object_id))
    return out


def _sight_clear(env: Environment, subs: list, sj: np.ndarray,
                 ax: np.ndarray, ay: np.ndarray,
                 bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """`line_of_sight` of each segment a-b toward subject `subs[sj]`.

    Rectangles run the clip of `segment_crosses_rect` in closed form, on
    (K, M) arrays of pairs by rectangles: t0 is the largest entry (at least
    0) and t1 the smallest exit (at most 1) over the two axes, each axis
    entering at the smaller of its two slab crossings and leaving at the
    larger.  The scalar loop returns early exactly where its final t0
    would exceed t1 (each bound it keeps is a running max or min, and it
    stops at the first that crosses the other), and the `t1 - t0 <= 1e-12`
    test rejects those pairs; elsewhere its t0 and t1 are the same max and
    min.  The midpoint test is the scalar one, and elementwise float64
    arithmetic and comparisons are IEEE-identical to Python's, so each
    verdict is too.  Disks use the distance formula of
    `segment_point_distance` but decide only outside a band around the
    radius, since np.hypot may differ from math.hypot in the last bit;
    inside the band the scalar test decides.
    """
    layout = env.layout
    fcol = layout.furniture_columns
    objs = [source for _, kind, source, _ in subs if kind == DYNAMIC]
    ocol = {o.id: k for k, o in enumerate(objs)}
    # (subject, column) of each rectangle and disk a subject looks past.
    rect_past: tuple[list[int], list[int]] = ([], [])
    disk_past: tuple[list[int], list[int]] = ([], [])
    for s, (_, kind, source, _) in enumerate(subs):
        for name in _looks_past(env, kind, source):
            for col in fcol.get(name, ()):
                rect_past[0].append(s)
                rect_past[1].append(col)
            if name in ocol:
                disk_past[0].append(s)
                disk_past[1].append(ocol[name])
    skip_rect = np.zeros((len(subs), len(layout.obstacles)), dtype=bool)
    skip_rect[rect_past] = True
    skip_disk = np.zeros((len(subs), len(objs)), dtype=bool)
    skip_disk[disk_past] = True

    same = (ax == bx) & (ay == by)
    ax, ay, bx, by = ax[:, None], ay[:, None], bx[:, None], by[:, None]
    dx = bx - ax
    dy = by - ay
    x0, y0, x1, y1 = layout.sight_rects.T
    with np.errstate(divide="ignore", invalid="ignore"):
        # Where an axis has d != 0, its two t are the scalar loop's q / p of
        # that axis (negating q and p changes no quotient), the smaller one
        # entering and the larger leaving.  Where d == 0 the scalar skips
        # the axis unless q < 0: here both t are infinite, -inf and +inf
        # (no bound) or, for a point outside the slab, the same sign, which
        # pushes t0 past t1.  A point on the slab's edge (q == 0) gives a
        # NaN, which fails every test below, as the scalar's midpoint, on
        # that edge, fails its strict one.  The signs of zeros differ from
        # the scalar's, but a zero t1 fails the 1e-12 test and past it
        # t1 > 0, so t0 + t1 == t1 for either zero t0.
        tx0 = (x0 - ax) / dx
        tx1 = (x1 - ax) / dx
        ty0 = (y0 - ay) / dy
        ty1 = (y1 - ay) / dy
        t0 = np.maximum(np.maximum(np.minimum(tx0, tx1),
                                   np.minimum(ty0, ty1)), 0.0)
        t1 = np.minimum(np.minimum(np.maximum(tx0, tx1),
                                   np.maximum(ty0, ty1)), 1.0)
        alive = ~(skip_rect[sj] | (t1 - t0 <= 1e-12))
        # The clipped midpoint a + tm * d, in place: + and * commute exactly.
        tm = t0
        tm += t1
        tm *= 0.5
        for a, da, lo_edge, hi_edge in ((ax, dx, x0, x1), (ay, dy, y0, y1)):
            mid = tm * da
            mid += a
            alive &= (lo_edge < mid) & (mid < hi_edge)
        blocked = alive.any(axis=1)
        if objs:
            px = np.array([o.pose.x for o in objs])
            py = np.array([o.pose.y for o in objs])
            rad = np.array([o.radius for o in objs])
            # A NaN from a zero-length segment falls into the band.
            t = np.minimum(1.0, np.maximum(
                0.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
            d = np.hypot(px - (ax + t * dx), py - (ay + t * dy))
            live = ~skip_disk[sj]
            blocked |= (live & (d < rad - _SIGHT_EPS)).any(axis=1)
            band = live & ~(d < rad - _SIGHT_EPS) & ~(d > rad + _SIGHT_EPS)
            for k, n in zip(*(ix.tolist() for ix in np.nonzero(band))):
                o = objs[n]
                if not blocked[k] and segment_crosses_disk(
                        ax[k, 0], ay[k, 0], bx[k, 0], by[k, 0],
                        o.pose.x, o.pose.y, o.radius):
                    blocked[k] = True
    return same | ~blocked


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


def step(env: Environment, v: float, w: float, dt: float) -> bool:
    """Advance the unicycle one tick; returns True when the move was rejected.

    Velocities are clamped to the robot's limits.  On collision the pose
    freezes but the clock still advances.  A held object tracks the
    gripper rigidly.
    """
    rb = env.robot
    v = max(-rb.max_linear, min(rb.max_linear, v))
    w = max(-rb.max_angular, min(rb.max_angular, w))
    # No tunneling: one step never moves farther than the robot radius.
    assert abs(v) * dt <= rb.radius + 1e-9, "step displacement exceeds radius"
    p = rb.pose
    nx = p.x + v * math.cos(p.theta) * dt
    ny = p.y + v * math.sin(p.theta) * dt
    # `Pose` wraps again.  A wrap rounds (pi is added before the fmod), so
    # both wraps are part of the per-tick trace bits, the byte contract the
    # leg memo replays: dropping either is a declared behaviour change.
    nth = norm_angle(p.theta + w * dt)
    collided = (nx != p.x or ny != p.y) and robot_collides(env, nx, ny)
    if collided:
        env.collisions += 1
    else:
        rb.pose = Pose(nx, ny, nth)
        if rb.gripper is not None:
            env.objects[rb.gripper].pose = attach_pose(rb.pose)
    env.clock += dt
    if env.trace is not None:
        env.trace.append((rb.pose.x, rb.pose.y, rb.pose.theta))
    return collided


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


def env_record(env: Environment) -> dict:
    """Stable tree encoding of the scene with explicit units in key names."""
    return {
        "layout": env.layout.id,
        "clock_s": env.clock,
        "rooms": [
            {"id": r.id, "name": r.name, "bounds_m": list(r.bounds.as_tuple())}
            for r in env.layout.rooms
        ],
        "doors": [
            {"id": d.id, "rooms": list(d.rooms), "axis": d.axis,
             "pos_m": d.pos, "span_m": list(d.span)}
            for d in env.layout.doors
        ],
        "furniture": [
            {"id": f.id, "category": f.category, "color": f.color,
             "material": f.material, "footprint_m": list(f.footprint.as_tuple()),
             "surfaces": [
                 {"id": s.id, "region_m": list(s.region.as_tuple()),
                  "height_class": s.height_class}
                 for s in f.surfaces
             ]}
            for f in env.layout.furniture
        ],
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
