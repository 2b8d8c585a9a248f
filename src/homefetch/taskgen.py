"""Task generation: build a scene, pick a task, describe it from the lattice.

A generated task is only emitted after a feasibility screen that runs the
real grounding code on the deterministic viewpoint lattice and checks that
an approach pose exists for both the grasp and the set-down.  The screen
uses exactly the code paths the executor will run, so a zero-noise session
on an emitted task cannot fail for geometric reasons.

Each candidate goes through, in order: the draw (`select_task`), whose
destination is one of the surfaces the crawl lattice of the target's room
can see in the scene without objects (the `surfaces` of `room_lattice`,
computed once per room, not per scene); the lattice check, which drops it
unless some capture of that room's lattice (`lattice_captures`, computed
once per scene and room) sees both the target and the destination; the
description (`make_instruction`), made from those same captures; and the
screen (`task_feasible`).  The accepted task carries its room's lattice
(`TaskSpec.lattice`) to the crawl.

The screen grounds only on detections in the lattice captures, so a
destination no lattice camera can see could never pass it, and the
lattice check drops only candidates the screen would reject; each attempt
draws from its own substream, so skipping a candidate's later steps moves
no other draw.  Each role is described by the smallest attribute set that
no other id of its kind in the lattice captures matches, which the
zero-noise grounder picks strictly by construction; a target with no such
set gets a relation instead, found in the first capture that shows it,
and only the screen can tell whether that one holds over the lattice.
The exported captures (`capture_views`, made at export) are, per role,
the first lattice capture that shows it: the capture the grounder picks
whenever the screen passes.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .agent import (
    RELATIONAL, Capture, ScoreWeights, grasp_approach, ground,
    lattice_captures, place_approach, room_entry_path, room_lattice,
)
from .eventlog import INT, NULL, NUMBER, STR, canonical_json, problems
from .geometry import dist
from .language import (
    GotoClause, InstructionAst, ManipClause, ONTO, TO, parse, realize,
)
from .layouts import TABLE_LEVEL, layout_ids, make_environment
from .relations import (
    NoDistinguishingDescription, RelationThresholds, distinguishing_descriptor,
    minimal_attr_descriptor,
)
from .seeds import h64, substream
from .vocab import DEFAULT
from .world import (
    DYNAMIC, SURFACE, ActionFailure, DynamicObject, Environment, Pose,
    Snapshot, env_record, place_spot, point_in_room, snapshot_record,
    validate_environment,
)

ENV_ATTEMPTS = 5
TASKS_PER_ENV = 10

PLACEMENT_REJECTION_LIMIT = 10_000


class PlacementExhausted(Exception):
    """Rejection sampling could not fit the requested objects."""


class NoFeasibleTask(Exception):
    """The environment offers no (target, destination) pair at all."""


class GenerationFailed(Exception):
    """All generation attempts were rejected; the session cannot start."""


@dataclass(frozen=True)
class GenConfig:
    layout_id: str = "default"
    objects_per_room: float = 5.0
    min_objects: int = 1
    max_objects: int = 8
    distractor_guarantee: bool = True
    color_presence: float = 0.8
    material_presence: float = 0.6
    source_phrase_prob: float = 0.3
    thresholds: RelationThresholds = RelationThresholds()
    weights: ScoreWeights = ScoreWeights()

    def __post_init__(self) -> None:
        if self.layout_id not in layout_ids():
            raise ValueError(f"unknown layout_id {self.layout_id!r}; "
                             f"known: {', '.join(layout_ids())}")
        if self.min_objects < 0 or self.max_objects < self.min_objects:
            raise ValueError("need 0 <= min_objects <= max_objects")
        if self.min_objects > 0 and self.objects_per_room < 1.0:
            raise ValueError("objects_per_room must be >= 1")
        if self.objects_per_room < 0.0:
            raise ValueError("objects_per_room must be >= 0")
        for name in ("color_presence", "material_presence", "source_phrase_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class TaskSpec:
    target: str
    destination: str
    room: str  # room id containing the target
    lattice: tuple[Capture, ...]  # `lattice_captures` of `room` in the scene
    instruction: InstructionAst
    text: str


def _clamped_poisson(rng: random.Random, lam: float, lo: int, hi: int) -> int:
    if lam <= 0.0:
        k = 0
    else:
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= limit:
                break
            k += 1
    return max(lo, min(hi, k))


def build_environment(cfg: GenConfig, seed: int) -> Environment:
    """Instantiate the static layout and scatter dynamic objects.

    Per-room counts are Poisson around the configured mean, clamped to
    [min_objects, max_objects].  Each object rejection-samples a (surface,
    position) pair until collision-free.  With the distractor guarantee on,
    one room gets two objects of the same category so bare-category
    reference never suffices everywhere.
    """
    rng = substream("homefetch-env", seed, cfg.layout_id)
    env = make_environment(cfg.layout_id)
    rooms, room_surfaces = env.layout.rooms, env.layout.room_surfaces

    counts = {r.id: _clamped_poisson(rng, cfg.objects_per_room,
                                     cfg.min_objects, cfg.max_objects)
              for r in rooms}

    dup_room = None
    if cfg.distractor_guarantee and cfg.max_objects >= 2:
        furnished = [r.id for r in rooms if room_surfaces[r.id]]
        with_pair = [rid for rid in furnished if counts[rid] >= 2]
        if with_pair:
            dup_room = with_pair[0]
        elif furnished:
            dup_room = furnished[0]
            counts[dup_room] = max(counts[dup_room], 2)

    rejections = 0
    k = 0
    for r in rooms:
        n = counts[r.id]
        if n == 0:
            continue
        surfs = room_surfaces[r.id]
        if not surfs:
            raise PlacementExhausted(f"room {r.id} has objects but no surfaces")
        dup_cat = rng.choice(DEFAULT.objects) if r.id == dup_room else None
        for j in range(n):
            if dup_cat is not None and j < 2:
                cat = dup_cat
            else:
                cat = rng.choice(DEFAULT.objects)
            color = rng.choice(DEFAULT.colors) if rng.random() < cfg.color_presence else None
            material = (rng.choice(DEFAULT.materials)
                        if rng.random() < cfg.material_presence else None)
            radius = DEFAULT.radius_of(cat)
            oid = f"obj_{k:03d}"
            while True:
                surf = rng.choice(surfs)
                inset = surf.region.inset(radius)
                x = rng.uniform(inset.x0, inset.x1)
                y = rng.uniform(inset.y0, inset.y1)
                clear = all(dist(o.pose.xy, (x, y)) >= o.radius + radius + 0.01
                            for o in env.objects.values())
                if clear:
                    env.objects[oid] = DynamicObject(oid, cat, Pose(x, y, 0.0),
                                                     radius, surf.id, color,
                                                     material)
                    break
                rejections += 1
                if rejections > PLACEMENT_REJECTION_LIMIT:
                    raise PlacementExhausted(
                        f"gave up after {rejections} placement rejections")
            k += 1

    issues = validate_environment(env)
    assert not issues, f"generated environment is invalid: {issues}"
    return env


def select_task(env: Environment,
                rng: random.Random) -> tuple[str, str, str]:
    """(target, destination, the target's room): a uniform target over
    objects, then a uniform destination over the surfaces the lattice of
    the target's room can see, other than the target's own."""
    objs = sorted(env.objects)
    if not objs:
        raise NoFeasibleTask("no dynamic objects")
    target = rng.choice(objs)
    obj = env.objects[target]
    room = point_in_room(env, obj.pose.x, obj.pose.y)
    dests = sorted(room_lattice(env, room).surfaces - {obj.support})
    if not dests:
        raise NoFeasibleTask("no surface other than the target's own "
                             "in sight of its room's lattice")
    return target, rng.choice(dests), room


def _first_showing(caps: tuple[Capture, ...], subject: str) -> Capture:
    """The first capture that shows `subject`."""
    for cap in caps:
        if any(s.object_id == subject for s in cap.snapshots):
            return cap
    raise ValueError(f"no capture shows {subject}")


def _sightings(caps: tuple[Capture, ...], kind: str) -> dict[str, Snapshot]:
    """The first sighting of each id of `kind` across the captures."""
    first: dict[str, Snapshot] = {}
    for cap in caps:
        for s in cap.snapshots:
            if s.kind == kind:
                first.setdefault(s.object_id, s)
    return first


def capture_views(task: TaskSpec) -> tuple[Capture, Capture]:
    """For each role, the first capture of the task's lattice that shows
    it: the capture the grounder picks when the screen passes.  Each is a
    copy with `subject` set.  Raises ValueError for a role that no capture
    of the lattice shows."""
    return tuple(replace(_first_showing(task.lattice, sid), subject=sid)
                 for sid in (task.target, task.destination))


def make_instruction(env: Environment, target: str, destination: str,
                     room: str, lattice: tuple[Capture, ...],
                     rng: random.Random,
                     cfg: GenConfig) -> tuple[InstructionAst, str]:
    """Synthesize the combined go-and-move instruction for a task whose
    target stands in `room`, from `lattice`, the captures of that room's
    lattice.

    Each role gets the smallest attribute set that no other id of its kind
    in those captures matches.  A target with none gets a relation, found
    in the first capture that shows it (`distinguishing_descriptor`); a
    destination with none raises NoDistinguishingDescription.  A target
    with no relation names its support surface as the source, with
    probability `source_phrase_prob`, when the lattice shows that surface
    and some attribute set singles it out among the surfaces there.
    """
    objects = _sightings(lattice, DYNAMIC)
    surfaces = _sightings(lattice, SURFACE)

    attrs = minimal_attr_descriptor(objects[target], objects.values())
    rel = None
    if attrs is None:
        cap = _first_showing(lattice, target)
        attrs, rel = distinguishing_descriptor(target, cap.snapshots,
                                               cap.supports, cfg.thresholds)
    d_attrs = minimal_attr_descriptor(surfaces[destination], surfaces.values())
    if d_attrs is None:
        raise NoDistinguishingDescription(destination)

    source = None
    if rel is None and rng.random() < cfg.source_phrase_prob:
        support = surfaces.get(env.objects[target].support)
        if support is not None:
            source = minimal_attr_descriptor(support, surfaces.values())

    if source is not None:
        prep = TO
    else:
        height = env.layout.surface(destination).height_class
        prep = ONTO if height == TABLE_LEVEL else TO
    ast = InstructionAst(GotoClause(env.layout.room(room).name),
                         ManipClause(attrs, d_attrs, prep, rel, source))
    return ast, realize(ast)


def task_feasible(env: Environment, task: TaskSpec, cfg: GenConfig) -> bool:
    """Screen a candidate task with the executor's own machinery, noise-free.

    Requires: grounding from the task's lattice is strictly unique and lands
    on the ground truth for both roles; a grasp approach exists near the
    target; a set-down approach with at least one free spiral slot exists
    at the destination; the text parses back to the instruction.  The
    grounding reads `task.instruction`, not the parsed text, and no check
    has an effect beyond its memos, so the order changes no verdict: the
    parse, which realized text always passes, goes last, after the checks
    that reject.
    """
    caps = task.lattice
    g = ground(task.instruction, caps, [c.snapshots for c in caps],
               RELATIONAL, cfg.weights, cfg.thresholds)
    if not (g.resolved and g.target.strict and g.destination.strict
            and g.target.id == task.target
            and g.destination.id == task.destination):
        return False

    if room_entry_path(env, task.room) is None:
        return False
    if grasp_approach(env, g.target) is None:
        return False
    place_app = place_approach(env, g.destination)
    if place_app is None:
        return False
    try:
        place_spot(env, task.destination, env.objects[task.target],
                   place_app.dock)
    except ActionFailure:
        return False
    return parse(task.text) == task.instruction


def generate_task(cfg: GenConfig, seed: int) -> tuple[Environment, TaskSpec]:
    """Rejection-sample (environment, task) until the feasibility screen passes.

    Up to ENV_ATTEMPTS scenes are tried, TASKS_PER_ENV task draws each; a
    full strike-out is a hard error so batch automation stays total.  Both
    roles of each draw are checked against the captures of the lattice of
    the target's room, computed once per scene and room, before the
    description is made from them; then it is screened.  The check only
    drops draws the screen would reject (see the module docstring).
    """
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    # Each call below names a module global, which the tracer may rebind.
    for salt in range(ENV_ATTEMPTS):
        try:
            env = build_environment(cfg, h64("gen-env", seed, salt))
        except PlacementExhausted:
            continue
        lattices: dict[str, tuple[Capture, ...]] = {}
        for attempt in range(salt * TASKS_PER_ENV, (salt + 1) * TASKS_PER_ENV):
            rng = substream("gen-task", seed, attempt)
            try:
                target, destination, room = select_task(env, rng)
            except NoFeasibleTask:
                continue
            lattice = lattices.get(room)
            if lattice is None:
                lattice = lattices[room] = lattice_captures(env, room)
            seen = {s.object_id for c in lattice for s in c.snapshots}
            if target not in seen or destination not in seen:
                continue
            try:
                ast, text = make_instruction(env, target, destination, room,
                                             lattice, rng, cfg)
            except NoDistinguishingDescription:
                continue
            task = TaskSpec(target, destination, room, lattice, ast, text)
            if task_feasible(env, task, cfg):
                return env, task
    raise GenerationFailed(f"no feasible task after "
                           f"{ENV_ATTEMPTS * TASKS_PER_ENV} attempts "
                           f"(seed {seed})")


# --- dataset export ----------------------------------------------------------

def capture_record(cap: Capture) -> dict:
    return {
        "camera": {"x_m": cap.camera.pose.x, "y_m": cap.camera.pose.y,
                   "theta_rad": cap.camera.pose.theta,
                   "fov_rad": cap.camera.fov, "range_m": cap.camera.range},
        "subject": cap.subject,
        "supports": dict(sorted(cap.supports.items())),
        "snapshots": [snapshot_record(s) for s in cap.snapshots],
    }


def episode_record(index: int, env: Environment, task: TaskSpec) -> dict:
    t_cap, d_cap = capture_views(task)
    return {
        "format": "homefetch-episode/1",
        "index": index,
        "scene": env_record(env),
        "task": {
            "target": {"id": task.target,
                       "xy_m": list(env.objects[task.target].pose.xy)},
            "destination": {"id": task.destination,
                            "xy_m": list(env.layout.surface(task.destination)
                                         .region.center)},
            "room": task.room,
        },
        "instruction": {"text": task.text, "ast": asdict(task.instruction)},
        "captures": {"target": capture_record(t_cap),
                     "destination": capture_record(d_cap)},
    }


# The shape of `episode_record` (docs/dataset.md).
_XY, _RECT = [NUMBER] * 2, [NUMBER] * 4
_ATTRS = {"category": STR, "color": (str, NULL), "material": (str, NULL)}
_POSE = dict.fromkeys(("x_m", "y_m", "theta_rad"), NUMBER)
_CAPTURE = {"camera": {**_POSE, "fov_rad": NUMBER, "range_m": NUMBER},
            "subject": STR, "supports": (dict,),
            "snapshots": [{"id": STR, "kind": STR, **_ATTRS,
                           "bearing_rad": NUMBER, "range_m": NUMBER}]}
EPISODE = {
    "format": STR, "index": INT,
    "scene": {"layout": STR, "clock_s": NUMBER,
              "rooms": [{"id": STR, "name": STR, "bounds_m": _RECT}],
              "doors": [{"id": STR, "rooms": [STR, STR], "axis": STR,
                         "pos_m": NUMBER, "span_m": _XY}],
              "furniture": [{"id": STR, **_ATTRS, "footprint_m": _RECT,
                             "surfaces": [{"id": STR, "region_m": _RECT,
                                           "height_class": STR}]}],
              "objects": [{"id": STR, **_ATTRS, **_POSE, "radius_m": NUMBER,
                           "support": STR}],
              "robot": {**_POSE, "radius_m": NUMBER, "reach_m": NUMBER,
                        "gripper": (str, NULL)}},
    "task": {"target": {"id": STR, "xy_m": _XY},
             "destination": {"id": STR, "xy_m": _XY}, "room": STR},
    "instruction": {"text": STR, "ast": {
        "goto": {"room": STR},
        "manip": {"target": _ATTRS, "destination": _ATTRS, "prep": STR,
                  "relation": (NULL, {"kind": STR, "landmark": _ATTRS}),
                  "source": (NULL, _ATTRS)}}},
    "captures": {"target": _CAPTURE, "destination": _CAPTURE},
}


def validate_episode(rec) -> list[str]:
    """Schema check of one exported episode record, for any JSON value: its
    problems against `EPISODE`, then what a table cannot state (the format
    tag, a non-negative index, the roles among the scene's ids, each
    capture aimed at and showing its role, the text's closing period).
    Empty for a well-formed record."""
    bad = problems(rec, EPISODE, "episode")
    if bad:
        return bad
    scene, task, caps = rec["scene"], rec["task"], rec["captures"]
    ids = {"objects": {o["id"] for o in scene["objects"]},
           "surfaces": {s["id"] for f in scene["furniture"]
                        for s in f["surfaces"]}}
    for role, kind in (("target", "objects"), ("destination", "surfaces")):
        want = task[role]["id"]
        if want not in ids[kind]:
            bad.append(f"task.{role} not among scene {kind}")
        if caps[role]["subject"] != want:
            bad.append(f"captures.{role}.subject != task.{role}.id")
        if all(s["id"] != want for s in caps[role]["snapshots"]):
            bad.append(f"captures.{role} does not show its subject")
    if rec["format"] != "homefetch-episode/1" or rec["index"] < 0:
        bad.append("format tag unknown or index negative")
    if not rec["instruction"]["text"].endswith("."):
        bad.append("instruction.text must end with a period")
    return bad


def export_dataset(records: list[dict], out_dir,
                   meta: dict | None = None) -> dict:
    """Write one canonical-JSON file per `episode_record` plus a manifest;
    returns the manifest.  Record i is written as episode i."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    for i, rec in enumerate(records):
        issues = validate_episode(rec)
        assert not issues, f"episode {i} fails schema: {issues}"
        name = f"episode_{i:04d}.json"
        (out / name).write_text(canonical_json(rec) + "\n", encoding="ascii")
        names.append(name)
    manifest = {"format": "homefetch-manifest/1", "count": len(names),
                "episodes": names, "meta": meta or {}}
    (out / "manifest.json").write_text(canonical_json(manifest) + "\n",
                                       encoding="ascii")
    return manifest
