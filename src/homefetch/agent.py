"""Task-execution system: navigation, the three-step OLR pipeline, fetch, carry.

Motion is layered so that every executed trajectory is provably safe:

* long legs run A* on the inflated grid and a pure-pursuit follower, then
  land exactly on the goal point with a short settle move;
* close approaches to furniture ("docking") leave the grid: a dock point is
  chosen on a ring around the estimated subject with verified point and
  segment clearance, and the robot drives the staging-to-dock segment as an
  exact straight line, then retreats along it.

Every leg's ticks run in `world.run_leg`, the one tick loop, which asks a
per-tick control for the next velocities: the pursuit law of
`_follow_path`, the turn rate of `_rotate_exact` and the straight-line
speed of `drive_straight`.

`follow_path` and `rotate_exact` are memoized legs, on the grid's memo
(see the `world` module docstring).  With an empty gripper a leg reads
nothing but the static geometry, the robot's radius and speed limits, its
exact pose and clock at the start, the deadline, and the path's waypoints
and length (or the heading).  The key holds the floats by their bits, so a
signed zero is a key of its own.  Dynamic objects are not in the key:
`run_leg` collides only with `env.layout.obstacles`, and an empty gripper
moves no object.  A hit restores the return value, the final `Pose` object
itself, the final clock and the collisions added, and extends `env.trace`
with the stored segment, whose tuples it shares.  A leg with a held object,
or with no trace to extend, runs uncached.  `drive_straight` turns through the
memoized `rotate_exact`.  No code mutates a `Pose` in place, which is what
lets entries share them.

`room_lattice` states once per room the cameras the crawl stops at, the
surfaces they can ever see and what each camera sees of them with no
object in the scene: one grid-memo entry, which every scene of a command
shares with the generator's checks.  `lattice_captures` then tests only a
scene's objects.

Perception is geometric visibility plus parametric noise.  Detection noise
is drawn from a keyed stream: a miss is keyed by object (one fate per object
per session), attribute corruption by (capture, object).  Keyed draws give
common random numbers across noise sweeps, which is what makes accuracy
degrade monotonically in the miss rate instead of jittering.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from itertools import chain
from typing import TYPE_CHECKING

from .geometry import dist, norm_angle
from .language import InstructionAst, AttributeSet, SpatialRelation
from .planner import NoPath, Path, plan_path, reachable, segment_clear_exact
from .relations import (
    RelationThresholds, attrs_match, n_specified, relation_holds,
)
from .seeds import KeyedStream
from .vocab import DEFAULT
from .world import (
    DT_S, DYNAMIC, SURFACE, ActionFailure, CameraPose, Environment, Pose,
    Snapshot, capture_supports, grasp as world_grasp, grid_for,
    line_of_sight, place as world_place, point_blocked, point_in_room,
    run_leg, sight_ignore, visible_batch, visible_objects,
)

if TYPE_CHECKING:
    from .taskgen import TaskSpec

ANCHOR_INSET_M = 0.7
LOOKAHEAD_M = 0.3
ARRIVE_TOL_M = 0.07
STALL_LIMIT_S = 3.0
PROGRESS_EPS_M = 0.02
ROTATE_GATE_RAD = 1.0

CRAWL_SPACING_M = 1.0
HEADINGS = (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)

STANDOFF_RADII_M = (0.55, 0.61, 0.67, 0.73)
RING_POSES = 16
DOCK_CLEARANCE_M = 0.30
DOCK_SEGMENT_CLEARANCE_M = 0.29
GRASP_MARGIN_M = 0.05
PLACE_MARGIN_M = 0.10
NOMINAL_OBJECT_R_M = 0.09

RELATIONAL = "relational"
KEYWORD_BASELINE = "keyword-baseline"
ORACLE = "oracle"
GROUNDERS = (RELATIONAL, KEYWORD_BASELINE, ORACLE)


@dataclass(frozen=True)
class NoiseConfig:
    p_miss: float = 0.0
    p_attr: float = 0.0
    p_hallucinate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_miss", "p_attr", "p_hallucinate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class ScoreWeights:
    attribute: int = 1
    relation: int = 2


@dataclass(frozen=True)
class Capture:
    """One view of the crawl.  Frozen: one lattice's captures are shared by
    the screen, the crawl, the `olr` digest and the export."""
    camera: CameraPose
    snapshots: list[Snapshot]
    supports: dict[str, str]
    subject: str | None = None


@dataclass(frozen=True)
class Pick:
    """One grounded role: the chosen detection and the capture it came from.

    `capture` indexes the crawl's captures, `camera` is that capture's pose
    (where Fetching and Carrying return to), and `strict` is False when
    another id tied the top score.
    """
    detection: Snapshot
    capture: int
    camera: CameraPose
    strict: bool = True

    @property
    def id(self) -> str:
        return self.detection.object_id


@dataclass(frozen=True)
class Grounding:
    """What OLR hands on: one Pick per role, None where that role abstained."""
    target: Pick | None
    destination: Pick | None

    @property
    def resolved(self) -> bool:
        return self.target is not None and self.destination is not None


# --- perception ------------------------------------------------------------

# `visible_objects` under the name the benchmark's tracer
# (`perfbench/tracer.py`) times; nothing in `src/` calls it.
captured = visible_objects


def _robot_component(env: Environment) -> int | None:
    """The robot's component of free grid cells, or None off every free cell."""
    comp = grid_for(env).component_at(env.robot.pose.x, env.robot.pose.y)
    return comp if comp >= 0 else None


@dataclass(frozen=True)
class RoomLattice:
    """The cameras (`HEADINGS` at each point, serpentine visit order), the
    ids of the surfaces they see in the scene without objects, and each
    camera's snapshots of that scene (`views`, surfaces only)."""
    cameras: tuple[CameraPose, ...]
    surfaces: frozenset[str]
    views: tuple[tuple[Snapshot, ...], ...]


def room_lattice(env: Environment, room_id: str) -> RoomLattice:
    """The room's lattice, memoized on the layout's grid by room bounds
    and the robot's grid component.

    Points sit strictly inside the room at 1 m spacing, free on the
    inflated grid in the robot's component, which is all the robot ever
    occupies, so the runtime crawl and any static replay agree.  Objects
    only add disk blockers and a surface's sight line looks past no object,
    so `surfaces` holds every surface any `lattice_captures` can show, and
    `views` is the `bare` argument of `visible_batch` for every scene on
    the layout.
    """
    grid = grid_for(env)
    comp = _robot_component(env)
    b = env.layout.room(room_id).bounds
    key = ("lattice", b.as_tuple(), comp)
    lattice = grid.memo.get(key)
    if lattice is None:
        xs, ys = [], []
        k = 1
        while b.x0 + k * CRAWL_SPACING_M < b.x1:
            xs.append(b.x0 + k * CRAWL_SPACING_M)
            k += 1
        k = 1
        while b.y0 + k * CRAWL_SPACING_M < b.y1:
            ys.append(b.y0 + k * CRAWL_SPACING_M)
            k += 1

        cams = []
        for row, y in enumerate(ys):
            for x in xs if row % 2 == 0 else reversed(xs):
                if comp is not None and grid.component_at(x, y) == comp:
                    cams += [CameraPose(Pose(x, y, h)) for h in HEADINGS]
        views = visible_batch(Environment(env.layout, {}, env.robot), cams)
        lattice = grid.remember(key, RoomLattice(
            tuple(cams),
            frozenset(s.object_id for snaps in views for s in snaps),
            tuple(map(tuple, views))))
    return lattice


def lattice_captures(env: Environment, room_id: str) -> tuple[Capture, ...]:
    """The captures a full undisturbed crawl of the room would produce in
    this scene, from the robot's grid component.

    A pure function of the scene, computed anew on each call: the
    generator computes it once per scene and room, and the task carries it
    to the crawl (`TaskSpec.lattice`).  Only the scene's objects take the
    sight tests here; each surface snapshot is the room lattice's own
    (`RoomLattice.views`), kept unless an object blocks its sight line, so
    every capture equals `visible_objects` of its camera.
    """
    supports = capture_supports(env)
    lattice = room_lattice(env, room_id)
    cams = list(lattice.cameras)
    return tuple(Capture(cam, snaps, supports) for cam, snaps
                 in zip(cams, visible_batch(env, cams, lattice.views)))


# --- low-level motion -------------------------------------------------------

def _memo_leg(env: Environment, body, deadline: float,
              floats: list[float], arg) -> bool:
    """`body(env, arg, deadline)`, or its stored outcome replayed on `env`.

    The grid's memo maps (body, float bits) to (return value, final pose,
    final clock, collisions added, trace segment).
    """
    rb = env.robot
    trace = env.trace
    if rb.gripper is not None or trace is None:
        return body(env, arg, deadline)
    p = rb.pose
    bits = struct.pack(f"<{8 + len(floats)}d", rb.radius, rb.max_linear,
                       rb.max_angular, p.x, p.y, p.theta, env.clock,
                       deadline, *floats)
    grid = grid_for(env)
    key = (body, bits)
    hit = grid.memo.get(key)
    if hit is None:
        start, collisions = len(trace), env.collisions
        ok = body(env, arg, deadline)
        grid.remember(key, (ok, rb.pose, env.clock,
                            env.collisions - collisions, trace[start:]))
        return ok
    ok, rb.pose, env.clock, collisions, segment = hit
    env.collisions += collisions
    trace.extend(segment)
    return ok


def rotate_exact(env: Environment, heading: float, deadline: float) -> bool:
    """Turn in place to an exact heading; False only on deadline.

    A memoized leg (see the module docstring).
    """
    return _memo_leg(env, _rotate_exact, deadline, [heading], heading)


def _rotate_exact(env: Environment, heading: float, deadline: float) -> bool:
    """The uncached turn behind `rotate_exact`: `run_leg` at the turn rate
    that lands on the heading, until it is exact."""
    wmax = env.robot.max_angular

    def turn(x, y, theta, clock):
        delta = norm_angle(heading - theta)
        if abs(delta) < 1e-12:
            return True
        return 0.0, max(-wmax, min(wmax, delta / DT_S))

    done = run_leg(env, turn, deadline)
    if done is None:
        return abs(norm_angle(heading - env.robot.pose.theta)) < 1e-12
    return done


def drive_straight(env: Environment, target: tuple[float, float],
                   deadline: float, reverse: bool = False) -> bool:
    """Exact straight-line translation to `target` along the current ray.

    Heading is fixed first, so every intermediate pose lies on the segment
    robot-to-target; then `run_leg` drives at full speed, scaled on the
    final tick to land exactly.  False on the first collided tick.
    """
    rb = env.robot
    d = dist(rb.pose.xy, target)
    if d > 1e-12:
        heading = math.atan2(target[1] - rb.pose.y, target[0] - rb.pose.x)
        if reverse:
            heading = norm_angle(heading + math.pi)
        if not rotate_exact(env, heading, deadline):
            return False
    vmax = rb.max_linear

    def straight(x, y, theta, clock):
        d = dist((x, y), target)
        if d < 1e-12:
            return True
        v = min(vmax, d / DT_S)
        return -v if reverse else v, 0.0

    done = run_leg(env, straight, deadline, halt=True)
    if done is None:
        return dist(rb.pose.xy, target) < 1e-12
    return done


def _arc_table(pts: list[tuple[float, float]]) -> list[float]:
    cum = [0.0]
    for i in range(len(pts) - 1):
        cum.append(cum[-1] + dist(pts[i], pts[i + 1]))
    return cum


def _point_at(pts: list[tuple[float, float]], cum: list[float], s: float) -> tuple[float, float]:
    if s <= 0.0:
        return pts[0]
    if s >= cum[-1]:
        return pts[-1]
    for i in range(len(cum) - 1):
        if cum[i + 1] >= s:
            seg = cum[i + 1] - cum[i]
            t = (s - cum[i]) / seg if seg > 0 else 0.0
            return (pts[i][0] + t * (pts[i + 1][0] - pts[i][0]),
                    pts[i][1] + t * (pts[i + 1][1] - pts[i][1]))
    return pts[-1]


def _advance(pts, cum, p: tuple[float, float], progress: float) -> float:
    """Arc position of the nearest path point, searched forward of progress."""
    best_s = progress
    best_d = math.inf
    for i in range(len(pts) - 1):
        if cum[i + 1] < progress - 1e-9:
            continue
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        vx, vy = bx - ax, by - ay
        seg2 = vx * vx + vy * vy
        t = 0.0 if seg2 == 0 else max(0.0, min(1.0, ((p[0] - ax) * vx + (p[1] - ay) * vy) / seg2))
        s = cum[i] + t * math.sqrt(seg2)
        if s < progress:
            continue
        if s > progress + 0.8:
            break
        d = math.hypot(p[0] - (ax + t * vx), p[1] - (ay + t * vy))
        if d < best_d - 1e-12:
            best_d = d
            best_s = s
    return best_s


def follow_path(env: Environment, path: Path, deadline: float) -> bool:
    """Pure pursuit along the waypoint polyline, then an exact landing.

    A memoized leg (see the module docstring).
    """
    return _memo_leg(env, _follow_path, deadline,
                     [*chain.from_iterable(path.waypoints), path.total_length],
                     path)


def _follow_path(env: Environment, path: Path, deadline: float) -> bool:
    """The uncached pure pursuit behind `follow_path`: `run_leg` under the
    pursuit law until the robot is within `ARRIVE_TOL_M` of the goal, then
    `drive_straight` onto it."""
    pts = path.waypoints
    goal = pts[-1]
    if len(pts) == 1 or path.total_length <= 1e-12:
        return drive_straight(env, goal, deadline)
    cum = _arc_table(pts)
    vmax, wmax = env.robot.max_linear, env.robot.max_angular
    # Stalled: the arc position has not gained PROGRESS_EPS_M for
    # STALL_LIMIT_S.  A planned detour away from the goal still gains arc.
    progress = mark = 0.0
    last_gain = env.clock

    def pursue(x, y, theta, clock):
        nonlocal progress, mark, last_gain
        remaining = dist((x, y), goal)
        if remaining <= ARRIVE_TOL_M:
            return True
        progress = _advance(pts, cum, (x, y), progress)
        if progress > mark + PROGRESS_EPS_M:
            mark, last_gain = progress, clock
        elif clock - last_gain > STALL_LIMIT_S:
            return False
        carrot = _point_at(pts, cum, progress + LOOKAHEAD_M)
        alpha = norm_angle(math.atan2(carrot[1] - y, carrot[0] - x) - theta)
        if abs(alpha) > ROTATE_GATE_RAD:
            return 0.0, max(-wmax, min(wmax, 3.0 * alpha))
        v = vmax * max(0.2, math.cos(alpha))
        return min(v, max(0.15, remaining)), max(-wmax, min(wmax, 2.5 * alpha))

    return run_leg(env, pursue, deadline) is True and \
        drive_straight(env, goal, deadline)


def _drive(env: Environment, goal: tuple[float, float], deadline: float,
           events: list, purpose: str) -> bool:
    """One leg: plan from the robot to `goal`, log the path, follow it.

    False when no path exists or the follower gives up.
    """
    try:
        path = plan_path(env, env.robot.pose.xy, goal)
    except NoPath:
        return False
    _emit_path(events, env, purpose, path)
    return follow_path(env, path, deadline)


# --- navigation subtask -----------------------------------------------------

def navigate_to_room(env: Environment, room_id: str, deadline: float,
                     events: list) -> bool:
    """Drive to a door-side anchor of the room; success is room membership."""
    if point_in_room(env, env.robot.pose.x, env.robot.pose.y) == room_id:
        return True
    path = room_entry_path(env, room_id)
    if path is None:
        return False
    _emit_path(events, env, f"navigate:{room_id}", path)
    return (follow_path(env, path, deadline)
            and point_in_room(env, env.robot.pose.x, env.robot.pose.y) == room_id)


def room_entry(env: Environment, room_id: str) -> tuple[float, float] | None:
    """The first door anchor of the room, by door id, that the planner can
    reach from the robot (`reachable`, no search); None when there is
    none."""
    room = env.layout.room(room_id)
    for door in sorted(room.doors, key=lambda d: d.id):
        anchor = door.anchor_in(room, ANCHOR_INSET_M)
        if reachable(env, env.robot.pose.xy, anchor):
            return anchor
    return None


def room_entry_path(env: Environment, room_id: str) -> Path | None:
    """Path from the robot to the room's `room_entry` anchor; None when no
    anchor is reachable.  The first door anchor that the planner can reach
    is the first whose plan returns, so this is the path the robot drives
    whenever the screen's `room_entry` finds an anchor."""
    anchor = room_entry(env, room_id)
    return None if anchor is None else plan_path(env, env.robot.pose.xy,
                                                 anchor)


def crawl(env: Environment, lattice: tuple[Capture, ...], deadline: float,
          events: list) -> list[Capture]:
    """Visit a room's viewpoint lattice, capturing 4 headings per point.

    `lattice` is the room's `lattice_captures` in the current scene.  Each
    stop yields the lattice's own captures for the headings the robot
    turned to, so a completed crawl returns the lattice it was given.
    """
    caps: list[Capture] = []
    for k in range(0, len(lattice), len(HEADINGS)):
        if env.clock >= deadline:
            break
        stop = lattice[k:k + len(HEADINGS)]
        if not _drive(env, stop[0].camera.pose.xy, deadline, events, "crawl"):
            continue
        # Turn to the HEADINGS value: the pose stores pi as -pi.
        for h, cap in zip(HEADINGS, stop):
            if not rotate_exact(env, h, deadline):
                break
            caps.append(cap)
    return caps


# --- detection --------------------------------------------------------------

def detect(capture: Capture, capture_index: int, noise: NoiseConfig,
           stream: KeyedStream) -> list[Snapshot]:
    """Apply the parametric detector model to one capture.

    A missed object stays missed for the whole session (the draw is keyed by
    object id alone); attribute corruption varies per capture.
    """
    out: list[Snapshot] = []
    for s in capture.snapshots:
        if noise.p_miss > 0.0 and stream.u01("miss", s.object_id) < noise.p_miss:
            continue
        if noise.p_attr > 0.0:
            if s.color is not None and stream.u01("color", capture_index, s.object_id) < noise.p_attr:
                rest = [c for c in DEFAULT.colors if c != s.color]
                s = replace(s, color=rest[stream.pick(
                    len(rest), "color-sub", capture_index, s.object_id)])
            if s.material is not None and stream.u01("material", capture_index, s.object_id) < noise.p_attr:
                rest = [m for m in DEFAULT.materials if m != s.material]
                s = replace(s, material=rest[stream.pick(
                    len(rest), "material-sub", capture_index, s.object_id)])
        out.append(s)
    if noise.p_hallucinate > 0.0 and stream.u01("hallucinate", capture_index) < noise.p_hallucinate:
        cam = capture.camera
        cat = DEFAULT.objects[stream.pick(len(DEFAULT.objects), "hal-cat", capture_index)]
        col = DEFAULT.colors[stream.pick(len(DEFAULT.colors), "hal-col", capture_index)]
        mat = DEFAULT.materials[stream.pick(len(DEFAULT.materials), "hal-mat", capture_index)]
        bearing = (stream.u01("hal-bearing", capture_index) - 0.5) * cam.fov
        rng = stream.u01("hal-range", capture_index) * cam.range
        out.append(Snapshot(f"phantom_{capture_index}", DYNAMIC, cat, col, mat,
                            bearing, rng))
    return out


# --- grounding --------------------------------------------------------------

def _relation_bonus(det: Snapshot, rel: SpatialRelation, dets: list[Snapshot],
                    supports: dict[str, str], th: RelationThresholds) -> bool:
    """True iff some landmark-matching detection in the capture satisfies rel."""
    for lm in dets:
        if lm.object_id == det.object_id:
            continue
        if not attrs_match(rel.landmark, lm):
            continue
        if relation_holds(rel.kind, det, lm, supports, th):
            return True
    return False


def _ground_descriptor(attrs: AttributeSet, rel: SpatialRelation | None,
                       captures: list[Capture],
                       detections: list[list[Snapshot]], want_kind: str,
                       weights: ScoreWeights,
                       th: RelationThresholds) -> Pick | None:
    """Best-scoring detection for one descriptor; None below the threshold.

    Each id keeps its first highest-scoring sighting; a tie at the top
    picks the lowest id, non-strict.
    """
    threshold = n_specified(attrs) * weights.attribute + (1 if rel is not None else 0)
    best: dict[str, tuple[float, int, Snapshot]] = {}
    for ci, dets in enumerate(detections):
        supports = captures[ci].supports
        for d in dets:
            if d.kind != want_kind:
                continue
            s = 0.0
            if d.category == attrs.category:
                s += weights.attribute
            if attrs.color is not None and d.color == attrs.color:
                s += weights.attribute
            if attrs.material is not None and d.material == attrs.material:
                s += weights.attribute
            if rel is not None and _relation_bonus(d, rel, dets, supports, th):
                s += weights.relation
            cur = best.get(d.object_id)
            if cur is None or s > cur[0]:
                best[d.object_id] = (s, ci, d)
    viable = [(rec[0], oid) for oid, rec in best.items() if rec[0] >= threshold]
    if not viable:
        return None
    top = max(v[0] for v in viable)
    winners = sorted(oid for v, oid in viable if v == top)
    _, ci, d = best[winners[0]]
    return Pick(d, ci, captures[ci].camera, strict=len(winners) == 1)


def _ground_keyword(category: str, captures: list[Capture],
                    detections: list[list[Snapshot]],
                    want_kind: str) -> Pick | None:
    """Exactly one category-token occurrence across all captures, else abstain.

    Occurrences are counted per detection, not per distinct object, which is
    what makes the baseline blind to scenes it has seen from several poses.
    """
    hits = [(ci, d) for ci, dets in enumerate(detections)
            for d in dets if d.kind == want_kind and d.category == category]
    if len(hits) != 1:
        return None
    ci, d = hits[0]
    return Pick(d, ci, captures[ci].camera)


def _first_sighting(oid: str, captures: list[Capture]) -> Pick | None:
    for ci, cap in enumerate(captures):
        for s in cap.snapshots:
            if s.object_id == oid:
                return Pick(s, ci, cap.camera)
    return None


def ground(instr: InstructionAst, captures: list[Capture],
           detections: list[list[Snapshot]], kind: str,
           weights: ScoreWeights = ScoreWeights(),
           th: RelationThresholds = RelationThresholds(),
           truth: tuple[str, str] | None = None) -> Grounding:
    """Multimodal comprehension: map the instruction to detected ids.

    Each role of the returned Grounding is a Pick, or None where that role
    abstained; an abstention is an outcome, not an error.  The oracle picks
    the first raw sighting of the `truth` ids.  Raises ValueError for an
    unknown kind or an oracle call without `truth`.
    """
    m = instr.manip
    if kind == RELATIONAL:
        return Grounding(
            _ground_descriptor(m.target, m.relation, captures, detections,
                               DYNAMIC, weights, th),
            _ground_descriptor(m.destination, None, captures, detections,
                               SURFACE, weights, th))
    if kind == KEYWORD_BASELINE:
        return Grounding(
            _ground_keyword(m.target.category, captures, detections, DYNAMIC),
            _ground_keyword(m.destination.category, captures, detections,
                            SURFACE))
    if kind == ORACLE:
        if truth is None:
            raise ValueError("oracle grounding needs ground-truth ids")
        return Grounding(_first_sighting(truth[0], captures),
                         _first_sighting(truth[1], captures))
    raise ValueError(f"unknown grounder kind {kind!r}")


# --- approach / docking -----------------------------------------------------

@dataclass(frozen=True)
class Approach:
    staging: tuple[float, float]
    dock: tuple[float, float]


def find_approach(env: Environment, est: tuple[float, float], max_dist: float,
                  los_ignore: frozenset[str] | None,
                  component: int | None = None) -> Approach | None:
    """Deterministic standoff next to `est`: first valid ring candidate.

    A dock point needs verified clearance, reach, optional sight of `est`,
    and a grid-free staging point whose straight connection to the dock is
    itself clearance-checked.  `component` restricts staging points to one
    connected region of the grid, so a planning-time check from anywhere in
    the room agrees with what the robot can actually drive to.  The ring
    order (radius, then angle) is fixed for the same reason.
    """
    grid = grid_for(env)

    def _usable(x: float, y: float) -> bool:
        if not grid.cell_free(x, y):
            return False
        return component is None or grid.component_at(x, y) == component

    for r in STANDOFF_RADII_M:
        if r > max_dist:
            break
        for k in range(RING_POSES):
            ang = 2.0 * math.pi * k / RING_POSES
            dx = est[0] + r * math.cos(ang)
            dy = est[1] + r * math.sin(ang)
            if point_blocked(env, dx, dy, DOCK_CLEARANCE_M):
                continue
            if los_ignore is not None and not line_of_sight(env, (dx, dy), est, los_ignore):
                continue
            if _usable(dx, dy):
                return Approach((dx, dy), (dx, dy))
            ux = (dx - est[0]) / r
            uy = (dy - est[1]) / r
            t = 0.05
            while t <= 0.8:
                sx, sy = dx + t * ux, dy + t * uy
                if _usable(sx, sy):
                    if segment_clear_exact(env, (sx, sy), (dx, dy),
                                           DOCK_SEGMENT_CLEARANCE_M):
                        return Approach((sx, sy), (dx, dy))
                    break
                t += 0.05
    return None


def _goto_and_dock(env: Environment, app: Approach, deadline: float,
                   events: list, purpose: str) -> bool:
    if not _drive(env, app.staging, deadline, events, purpose):
        return False
    if app.dock == app.staging:
        return True
    emit_event(events, env, "dock", frm=list(app.staging), to=list(app.dock))
    return drive_straight(env, app.dock, deadline)


def _undock(env: Environment, app: Approach, deadline: float) -> None:
    if app.dock != app.staging:
        drive_straight(env, app.staging, deadline, reverse=True)


def estimated_position(cam: CameraPose, det: Snapshot) -> tuple[float, float]:
    a = cam.pose.theta + det.bearing
    return (cam.pose.x + det.range * math.cos(a),
            cam.pose.y + det.range * math.sin(a))


def grasp_approach(env: Environment, target: Pick) -> Approach | None:
    """Standoff for grasping the grounded target, estimated from its view.

    The sight test looks past what the grasp's own sight test does; a
    phantom id has no support to look past.
    """
    est = estimated_position(target.camera, target.detection)
    obj = env.objects.get(target.id)
    ignore = (sight_ignore(env, obj) if obj is not None
              else frozenset({target.id}))
    return find_approach(env, est, env.robot.reach - GRASP_MARGIN_M, ignore,
                         _robot_component(env))


def place_approach(env: Environment, destination: Pick) -> Approach | None:
    """Standoff for setting down on the grounded destination surface.

    Aims at the point of the surface, inset by a nominal object radius,
    nearest the destination's camera; None when the surface is unknown.
    """
    surf = env.layout.surface_index.get(destination.id)
    if surf is None:
        return None
    pose = destination.camera.pose
    est = surf.region.inset(NOMINAL_OBJECT_R_M).clamp(pose.x, pose.y)
    return find_approach(env, est, env.robot.reach - PLACE_MARGIN_M, None,
                         _robot_component(env))


# --- fetch / carry ----------------------------------------------------------

def fetch(env: Environment, target: Pick, task: "TaskSpec", deadline: float,
          events: list) -> bool:
    """Return to the target's camera, approach, grasp, and undock.

    Succeeds only when the grasped object is the task's true target.
    """
    if not _drive(env, target.camera.pose.xy, deadline, events,
                  "fetch:viewpoint"):
        return False
    app = grasp_approach(env, target)
    if app is None or not _goto_and_dock(env, app, deadline, events,
                                         "fetch:approach"):
        return False
    try:
        world_grasp(env, target.id)
    except ActionFailure as e:
        emit_event(events, env, "grasp", object=target.id,
                   ok=False, reason=type(e).__name__)
        grabbed = False
    else:
        emit_event(events, env, "grasp", object=target.id, ok=True)
        grabbed = True
    _undock(env, app, deadline)
    return grabbed and target.id == task.target


def carry(env: Environment, destination: Pick, task: "TaskSpec",
          deadline: float, events: list) -> bool:
    """Return to the destination's camera, approach the surface, and set down.

    The robot stays docked after the set-down.
    """
    if not _drive(env, destination.camera.pose.xy, deadline, events,
                  "carry:viewpoint"):
        return False
    app = place_approach(env, destination)
    if app is None or not _goto_and_dock(env, app, deadline, events,
                                         "carry:approach"):
        return False
    try:
        world_place(env, destination.id)
    except ActionFailure as e:
        emit_event(events, env, "place", surface=destination.id,
                   ok=False, reason=type(e).__name__)
        return False
    obj = env.objects[task.target]
    emit_event(events, env, "place", surface=destination.id,
               ok=True, xy=[obj.pose.x, obj.pose.y])
    return (obj.support == task.destination
            and env.layout.surface(task.destination).region.inset(obj.radius)
            .contains_closed(obj.pose.x, obj.pose.y))


def _emit_path(events: list, env: Environment, purpose: str,
               path: Path) -> None:
    emit_event(events, env, "path", purpose=purpose,
               waypoints=[list(p) for p in path.waypoints],
               length_m=path.total_length)


def emit_event(events: list, env: Environment, name: str, **fields) -> None:
    """Append one `{event, clock_s, **fields}` record; the one event shape."""
    rec = {"event": name, "clock_s": round(env.clock, 6)}
    rec.update(fields)
    events.append(rec)
