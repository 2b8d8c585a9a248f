"""Ground-truth world model: rooms, furniture, objects, robot, camera.

The world is a 2-D top-down plane.  Furniture and walls are axis-aligned
rectangles, dynamic objects and the robot are disks, and every dynamic
object sits on a named support surface.  All mutation happens through
`step`, `grasp`, and `place`; everything else is a pure query.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

from .geometry import (
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


@dataclass
class Environment:
    layout_id: str
    rooms: list[RoomSpec]
    doors: list[Door]
    walls: list[Rect]
    furniture: list[StaticObject]
    objects: dict[str, DynamicObject]
    robot: RobotState
    clock: float = 0.0  # simulated seconds
    collisions: int = 0
    # Bumped whenever an object re-parents; lets callers cache per-scene work.
    scene_version: int = 0
    # When set, step() appends the post-step pose: an external motion audit.
    trace: list | None = None

    def __post_init__(self) -> None:
        self._surfaces = {s.id: s for f in self.furniture for s in f.surfaces}
        self._rooms = {r.id: r for r in self.rooms}
        self._vis_memo: dict = {}

    def room(self, room_id: str) -> RoomSpec:
        return self._rooms[room_id]

    def surface(self, sid: str) -> SupportSurface:
        return self._surfaces[sid]

    @cached_property
    def geometry_digest(self) -> str:
        """Digest of the static geometry: room bounds, walls and furniture
        footprints.  Read once; the geometry is fixed after construction."""
        static = ([r.bounds for r in self.rooms], self.walls,
                  [f.footprint for f in self.furniture])
        return hashlib.sha256(repr(static).encode("ascii")).hexdigest()

    @property
    def surfaces(self) -> list[SupportSurface]:
        return [s for f in self.furniture for s in f.surfaces]

    def support_owner(self, obj: DynamicObject) -> str | None:
        if obj.support is None:
            return None
        return self.surface(obj.support).owner


def point_in_room(env: Environment, x: float, y: float) -> str | None:
    """Id of the unique room containing (x, y), or None.

    Room bounds are half-open so a point on a shared wall belongs to
    exactly one room.
    """
    for r in env.rooms:
        if r.bounds.contains(x, y):
            return r.id
    return None


def line_of_sight(env: Environment, a: tuple[float, float], b: tuple[float, float],
                  ignore: frozenset[str] | set[str] = frozenset()) -> bool:
    """True iff the open segment a-b is not blocked.

    Walls always block.  Furniture footprints and dynamic-object disks
    block unless their id is in `ignore`.
    """
    ax, ay = a
    bx, by = b
    if ax == bx and ay == by:
        return True
    for w in env.walls:
        if segment_crosses_rect(ax, ay, bx, by, w):
            return False
    for f in env.furniture:
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


def sight_ignore(env: Environment, obj: DynamicObject) -> frozenset[str]:
    """What a sight line to `obj` looks past: the object itself and the
    furniture it rests on."""
    owner = env.support_owner(obj)
    return frozenset({obj.id} if owner is None else {obj.id, owner})


def _subject_visible(env: Environment, cam: CameraPose, ref: tuple[float, float],
                     ignore: frozenset[str]) -> tuple[float, float] | None:
    """(bearing, range) if ref passes the cone, range, and sight tests."""
    dx = ref[0] - cam.pose.x
    dy = ref[1] - cam.pose.y
    rng = math.hypot(dx, dy)
    if rng > cam.range:
        return None
    bearing = norm_angle(math.atan2(dy, dx) - cam.pose.theta) if rng > 0.0 else 0.0
    if abs(bearing) > cam.fov / 2.0:
        return None
    if not line_of_sight(env, cam.pose.xy, ref, ignore):
        return None
    return bearing, rng


def visible_objects(env: Environment, cam: CameraPose) -> list[Snapshot]:
    """Snapshots of every dynamic object and support surface the camera sees.

    The subject's own disk is ignored for its sight test, and so is the
    furniture piece it rests on: an object standing on a table must be
    visible over that table in this top-down abstraction.  Results are
    ordered by ascending range, ties broken by id.
    """
    out: list[Snapshot] = []
    for oid in sorted(env.objects):
        o = env.objects[oid]
        hit = _subject_visible(env, cam, o.pose.xy, sight_ignore(env, o))
        if hit is not None:
            out.append(Snapshot(oid, DYNAMIC, o.category, o.color, o.material,
                                hit[0], hit[1]))
    for f in env.furniture:
        for s in f.surfaces:
            hit = _subject_visible(env, cam, s.region.center, frozenset({f.id}))
            if hit is not None:
                out.append(Snapshot(s.id, SURFACE, f.category, f.color, f.material,
                                    hit[0], hit[1]))
    out.sort(key=lambda s: (s.range, s.object_id))
    return out


def capture_supports(env: Environment) -> dict[str, str]:
    """Support-surface id per dynamic object, as perceived at capture time."""
    return {oid: o.support for oid, o in sorted(env.objects.items())
            if o.support is not None}


def point_blocked(env: Environment, x: float, y: float, clearance: float) -> bool:
    """True iff (x, y) is outside every room or nearer than `clearance` to a
    wall or a furniture footprint."""
    if point_in_room(env, x, y) is None:
        return True
    for w in env.walls:
        if w.distance_to(x, y) < clearance:
            return True
    for f in env.furniture:
        if f.footprint.distance_to(x, y) < clearance:
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
    env.scene_version += 1


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_SPIRAL_STEP_M = 0.035
_SPIRAL_CANDIDATES = 512


def find_place_pose(env: Environment, dest: str, obj_radius: float,
                    robot_xy: tuple[float, float], reach: float,
                    exclude: frozenset[str]) -> tuple[float, float] | None:
    """First free set-down point on `dest` for a disk of `obj_radius`.

    Candidates spiral out from the surface point nearest the robot; each must
    stay on the surface, stay within reach, and clear every object not in
    `exclude`.  None when the surface is packed or entirely out of reach.
    """
    surf = env._surfaces.get(dest)
    if surf is None:
        return None
    inset = surf.region.inset(obj_radius)
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
        ok = True
        for o in env.objects.values():
            if o.id in exclude:
                continue
            if dist(o.pose.xy, (cx, cy)) < o.radius + obj_radius - 1e-9:
                ok = False
                break
        if ok:
            return (cx, cy)
    return None


def place_spot(env: Environment, dest: str, obj: DynamicObject,
               robot_xy: tuple[float, float]) -> tuple[float, float]:
    """Where `place` would set `obj` down on `dest` with the robot at `robot_xy`.

    Raises NoSuchObject, NoFreePose or SurfaceOutOfReach, as `place` does.
    """
    surf = env._surfaces.get(dest)
    if surf is None:
        raise NoSuchObject(dest)
    inset = surf.region.inset(obj.radius)
    if inset.width == 0.0 and inset.height == 0.0:
        # Region too small for this object; treat like a packed surface.
        raise NoFreePose(dest)
    reach = env.robot.reach
    if inset.distance_to(robot_xy[0], robot_xy[1]) > reach:
        raise SurfaceOutOfReach(dest)
    spot = find_place_pose(env, dest, obj.radius, robot_xy, reach,
                           frozenset({obj.id}))
    if spot is None:
        raise NoFreePose(dest)
    return spot


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
    env.scene_version += 1


def validate_environment(env: Environment) -> list[str]:
    """Full invariant check; returns a list of violations (empty == valid)."""
    bad: list[str] = []
    for i, a in enumerate(env.rooms):
        for b in env.rooms[i + 1:]:
            if a.bounds.overlaps(b.bounds):
                bad.append(f"rooms {a.id} and {b.id} overlap")
    # Connectivity over the door graph.
    if len(env.rooms) > 1:
        adj: dict[str, set[str]] = {r.id: set() for r in env.rooms}
        for d in env.doors:
            ra, rb_ = d.rooms
            adj[ra].add(rb_)
            adj[rb_].add(ra)
        seen = {env.rooms[0].id}
        queue = [env.rooms[0].id]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) != len(env.rooms):
            bad.append("rooms not mutually reachable via doors")
    for f in env.furniture:
        containing = [r.id for r in env.rooms
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
        surf = env._surfaces.get(o.support)
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
        "layout": env.layout_id,
        "clock_s": env.clock,
        "rooms": [
            {"id": r.id, "name": r.name, "bounds_m": list(r.bounds.as_tuple())}
            for r in env.rooms
        ],
        "doors": [
            {"id": d.id, "rooms": list(d.rooms), "axis": d.axis,
             "pos_m": d.pos, "span_m": list(d.span)}
            for d in env.doors
        ],
        "furniture": [
            {"id": f.id, "category": f.category, "color": f.color,
             "material": f.material, "footprint_m": list(f.footprint.as_tuple()),
             "surfaces": [
                 {"id": s.id, "region_m": list(s.region.as_tuple()),
                  "height_class": s.height_class}
                 for s in f.surfaces
             ]}
            for f in env.furniture
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
