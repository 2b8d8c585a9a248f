"""Task generation: build a scene, pick a task, photograph it, describe it.

A generated task is only emitted after a feasibility screen that runs the
real grounding code on the deterministic viewpoint lattice and checks that
an approach pose exists for both the grasp and the set-down.  The screen
uses exactly the code paths the executor will run, so a zero-noise session
on an emitted task cannot fail for geometric reasons.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .agent import (
    RELATIONAL, Capture, ScoreWeights, captured,
    grasp_approach, ground, lattice_captures, place_approach, room_entry_path,
)
from .eventlog import canonical_json
from .geometry import dist, norm_angle
from .language import (
    GotoClause, InstructionAst, ManipClause, ONTO, TO, parse, realize,
)
from .layouts import TABLE_LEVEL, layout_ids, make_environment
from .relations import (
    NoDistinguishingDescription, RelationThresholds, distinguishing_descriptor,
    minimal_attr_descriptor,
)
from .seeds import h64, substream
from .vocab import DEFAULT, Vocabulary
from .world import (
    SURFACE, ActionFailure, CameraPose, DynamicObject, Environment, Pose,
    capture_supports, env_record, place_spot, point_in_room, snapshot_record,
    validate_environment,
)

CAPTURE_RING_RADIUS_M = 1.5
CAPTURE_RING_POSES = 16

ENV_ATTEMPTS = 5
TASKS_PER_ENV = 10

PLACEMENT_REJECTION_LIMIT = 10_000


class PlacementExhausted(Exception):
    """Rejection sampling could not fit the requested objects."""


class NoFeasibleTask(Exception):
    """The environment offers no (target, destination) pair at all."""


class NoViewpoint(Exception):
    """No ring camera pose can see the subject."""


class GenerationFailed(Exception):
    """All generation attempts were rejected; the session cannot start."""


@dataclass(frozen=True)
class GenConfig:
    seed: int
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
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
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
    target_capture: Capture
    destination_capture: Capture
    instruction: InstructionAst
    text: str
    target_xy: tuple[float, float]
    destination_xy: tuple[float, float]


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


def _room_of_rect(env: Environment, rect) -> str:
    for r in env.rooms:
        b = r.bounds
        if b.x0 <= rect.x0 and rect.x1 <= b.x1 and b.y0 <= rect.y0 and rect.y1 <= b.y1:
            return r.id
    raise ValueError("rectangle not contained in any room")


def build_environment(cfg: GenConfig, vocab: Vocabulary = DEFAULT) -> Environment:
    """Instantiate the static layout and scatter dynamic objects.

    Per-room counts are Poisson around the configured mean, clamped to
    [min_objects, max_objects].  Each object rejection-samples a (surface,
    position) pair until collision-free.  With the distractor guarantee on,
    one room gets two objects of the same category so bare-category
    reference never suffices everywhere.
    """
    rng = substream("homefetch-env", cfg.seed, cfg.layout_id)
    env = make_environment(cfg.layout_id)

    room_surfaces: dict[str, list] = {r.id: [] for r in env.rooms}
    for f in env.furniture:
        rid = _room_of_rect(env, f.footprint)
        room_surfaces[rid].extend(f.surfaces)

    counts = {r.id: _clamped_poisson(rng, cfg.objects_per_room,
                                     cfg.min_objects, cfg.max_objects)
              for r in env.rooms}

    dup_room = None
    if cfg.distractor_guarantee and cfg.max_objects >= 2:
        furnished = [r.id for r in env.rooms if room_surfaces[r.id]]
        with_pair = [rid for rid in furnished if counts[rid] >= 2]
        if with_pair:
            dup_room = with_pair[0]
        elif furnished:
            dup_room = furnished[0]
            counts[dup_room] = max(counts[dup_room], 2)

    rejections = 0
    k = 0
    for r in env.rooms:
        n = counts[r.id]
        if n == 0:
            continue
        surfs = room_surfaces[r.id]
        if not surfs:
            raise PlacementExhausted(f"room {r.id} has objects but no surfaces")
        dup_cat = rng.choice(vocab.objects) if r.id == dup_room else None
        for j in range(n):
            if dup_cat is not None and j < 2:
                cat = dup_cat
            else:
                cat = rng.choice(vocab.objects)
            color = rng.choice(vocab.colors) if rng.random() < cfg.color_presence else None
            material = (rng.choice(vocab.materials)
                        if rng.random() < cfg.material_presence else None)
            radius = vocab.radius_of(cat)
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


def select_task(env: Environment, rng: random.Random) -> tuple[str, str]:
    """Uniform target over objects; uniform destination over other surfaces."""
    objs = sorted(env.objects)
    if not objs:
        raise NoFeasibleTask("no dynamic objects")
    target = rng.choice(objs)
    current = env.objects[target].support
    dests = sorted(s.id for s in env.surfaces if s.id != current)
    if not dests:
        raise NoFeasibleTask("no surface other than the target's own")
    return target, rng.choice(dests)


def _capture_for(env: Environment, subject_id: str,
                 ref: tuple[float, float]) -> Capture:
    supports = capture_supports(env)
    for k in range(CAPTURE_RING_POSES):
        ang = 2.0 * math.pi * k / CAPTURE_RING_POSES
        cx = ref[0] + CAPTURE_RING_RADIUS_M * math.cos(ang)
        cy = ref[1] + CAPTURE_RING_RADIUS_M * math.sin(ang)
        cam = CameraPose(Pose(cx, cy, norm_angle(ang + math.pi)))
        snaps = captured(env, cam)
        if any(s.object_id == subject_id for s in snaps):
            return Capture(cam, snaps, supports, subject=subject_id)
    raise NoViewpoint(subject_id)


def capture_views(env: Environment, target: str,
                  destination: str) -> tuple[Capture, Capture]:
    """One validated camera view of the target and one of the destination."""
    t_cap = _capture_for(env, target, env.objects[target].pose.xy)
    d_cap = _capture_for(env, destination, env.surface(destination).region.center)
    return t_cap, d_cap


def make_instruction(env: Environment, target: str, destination: str,
                     t_cap: Capture, d_cap: Capture, rng: random.Random,
                     th: RelationThresholds = RelationThresholds(),
                     source_prob: float = 0.3) -> tuple[InstructionAst, str]:
    """Synthesize the combined go-and-move instruction for a task."""
    obj = env.objects[target]
    rid = point_in_room(env, obj.pose.x, obj.pose.y)
    room_name = env.room(rid).name

    attrs, rel = distinguishing_descriptor(target, t_cap.snapshots,
                                           t_cap.supports, th)
    d_context = [s for s in d_cap.snapshots if s.kind == SURFACE]
    d_subject = next((s for s in d_context if s.object_id == destination), None)
    d_attrs = (minimal_attr_descriptor(d_subject, d_context)
               if d_subject is not None else None)
    if d_attrs is None:
        raise NoDistinguishingDescription(destination)

    source = None
    if rel is None and rng.random() < source_prob:
        sup = obj.support
        t_context = [s for s in t_cap.snapshots if s.kind == SURFACE]
        s_subject = next((s for s in t_context if s.object_id == sup), None)
        if s_subject is not None:
            source = minimal_attr_descriptor(s_subject, t_context)

    if source is not None:
        prep = TO
    else:
        height = env.surface(destination).height_class
        prep = ONTO if height == TABLE_LEVEL else TO
    ast = InstructionAst(GotoClause(room_name),
                         ManipClause(attrs, d_attrs, prep, rel, source))
    return ast, realize(ast)


def task_feasible(env: Environment, task: TaskSpec, cfg: GenConfig) -> bool:
    """Screen a candidate task with the executor's own machinery, noise-free.

    Requires: grounding from the crawl lattice is strictly unique and lands
    on the ground truth for both roles; a grasp approach exists near the
    target; a set-down approach with at least one free spiral slot exists
    at the destination.
    """
    if parse(task.text) != task.instruction:
        return False
    caps = lattice_captures(env, task.room)
    if not caps:
        return False
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
    return True


def generate_task(cfg: GenConfig,
                  vocab: Vocabulary = DEFAULT) -> tuple[Environment, TaskSpec]:
    """Rejection-sample (environment, task) until the feasibility screen passes.

    Up to ENV_ATTEMPTS scenes are tried, TASKS_PER_ENV task draws each; a
    full strike-out is a hard error so batch automation stays total.
    """
    envs: dict[int, Environment | None] = {}
    for attempt in range(ENV_ATTEMPTS * TASKS_PER_ENV):
        salt = attempt // TASKS_PER_ENV
        if salt not in envs:
            env_cfg = replace(cfg, seed=h64("gen-env", cfg.seed, salt))
            try:
                envs[salt] = build_environment(env_cfg, vocab)
            except PlacementExhausted:
                envs[salt] = None
        env = envs[salt]
        if env is None:
            continue
        rng = substream("gen-task", cfg.seed, attempt)
        try:
            target, destination = select_task(env, rng)
            t_cap, d_cap = capture_views(env, target, destination)
            ast, text = make_instruction(env, target, destination, t_cap, d_cap,
                                         rng, cfg.thresholds,
                                         cfg.source_phrase_prob)
        except (NoFeasibleTask, NoViewpoint, NoDistinguishingDescription):
            continue
        obj = env.objects[target]
        task = TaskSpec(target, destination,
                        point_in_room(env, obj.pose.x, obj.pose.y),
                        t_cap, d_cap, ast, text, obj.pose.xy,
                        env.surface(destination).region.center)
        if task_feasible(env, task, cfg):
            return env, task
    raise GenerationFailed(f"no feasible task after "
                           f"{ENV_ATTEMPTS * TASKS_PER_ENV} attempts "
                           f"(seed {cfg.seed})")


# --- dataset export ----------------------------------------------------------

def _attrs_record(a) -> dict:
    return {"category": a.category, "color": a.color, "material": a.material}


def ast_record(ast: InstructionAst) -> dict:
    m = ast.manip
    return {
        "goto": {"room": ast.goto.room},
        "manip": {
            "target": _attrs_record(m.target),
            "relation": None if m.relation is None else {
                "kind": m.relation.kind,
                "landmark": _attrs_record(m.relation.landmark),
            },
            "source": None if m.source is None else _attrs_record(m.source),
            "prep": m.prep,
            "destination": _attrs_record(m.destination),
        },
    }


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
    return {
        "format": "homefetch-episode/1",
        "index": index,
        "scene": env_record(env),
        "task": {
            "target": {"id": task.target, "xy_m": list(task.target_xy)},
            "destination": {"id": task.destination,
                            "xy_m": list(task.destination_xy)},
            "room": task.room,
        },
        "instruction": {"text": task.text, "ast": ast_record(task.instruction)},
        "captures": {"target": capture_record(task.target_capture),
                     "destination": capture_record(task.destination_capture)},
    }


def validate_episode(rec) -> list[str]:
    """Structural schema check for one exported episode record."""
    bad: list[str] = []
    if not isinstance(rec, dict):
        return ["episode is not an object"]
    if rec.get("format") != "homefetch-episode/1":
        bad.append("format tag missing or unknown")
    if not isinstance(rec.get("index"), int) or rec.get("index", -1) < 0:
        bad.append("index must be a non-negative integer")
    scene = rec.get("scene")
    if not isinstance(scene, dict):
        bad.append("scene missing")
        return bad
    for key in ("rooms", "doors", "furniture", "objects", "robot"):
        if key not in scene:
            bad.append(f"scene.{key} missing")
    task = rec.get("task")
    if not isinstance(task, dict):
        bad.append("task missing")
        return bad
    object_ids = {o.get("id") for o in scene.get("objects", [])}
    surface_ids = {s.get("id") for f in scene.get("furniture", [])
                   for s in f.get("surfaces", [])}
    t = task.get("target", {})
    d = task.get("destination", {})
    if t.get("id") not in object_ids:
        bad.append("task.target not among scene objects")
    if d.get("id") not in surface_ids:
        bad.append("task.destination not among scene surfaces")
    for role in ("target", "destination"):
        xy = task.get(role, {}).get("xy_m")
        if (not isinstance(xy, list) or len(xy) != 2
                or not all(isinstance(v, (int, float)) for v in xy)):
            bad.append(f"task.{role}.xy_m must be [x, y]")
    instr = rec.get("instruction")
    if not isinstance(instr, dict) or not isinstance(instr.get("text"), str):
        bad.append("instruction.text missing")
    elif not instr["text"].endswith("."):
        bad.append("instruction.text must end with a period")
    if not isinstance((instr or {}).get("ast"), dict):
        bad.append("instruction.ast missing")
    caps = rec.get("captures")
    if not isinstance(caps, dict):
        bad.append("captures missing")
        return bad
    for role, want in (("target", t.get("id")), ("destination", d.get("id"))):
        cap = caps.get(role)
        if not isinstance(cap, dict):
            bad.append(f"captures.{role} missing")
            continue
        if cap.get("subject") != want:
            bad.append(f"captures.{role}.subject != task.{role}.id")
        snaps = cap.get("snapshots")
        if not isinstance(snaps, list):
            bad.append(f"captures.{role}.snapshots missing")
        elif want is not None and all(s.get("id") != want for s in snaps):
            bad.append(f"captures.{role} does not show its subject")
    return bad


def export_dataset(tasks: list[tuple[Environment, TaskSpec]], out_dir,
                   meta: dict | None = None) -> dict:
    """Write one canonical-JSON file per episode plus a manifest; returns it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    for i, (env, task) in enumerate(tasks):
        rec = episode_record(i, env, task)
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
