"""homefetch: a deterministic 2-D fetch-and-carry benchmark harness.

Scenes, natural-language tasks, a gated execution pipeline, and Table-style
evaluation reports, all reproducible from a single seed.
"""
from .agent import (
    Capture, Grounding, KEYWORD_BASELINE,
    NoiseConfig, ORACLE, RELATIONAL, ScoreWeights, crawl, detect, ground,
    navigate_to_room,
)
from .config import ConfigError, RunConfig, load_config
from .language import (
    AttributeSet, GotoClause, InstructionAst, ManipClause, ParseError,
    SpatialRelation, parse, realize,
)
from .planner import NoPath, Path, plan_path
from .relations import (
    NoDistinguishingDescription, RelationThresholds, distinguishing_descriptor,
    relation_holds,
)
from .session import (
    MismatchDetected, SessionRecord, Tally, aggregate, format_report, replay,
    run_batch, run_session,
)
from .taskgen import (
    GenConfig, GenerationFailed, NoFeasibleTask, NoViewpoint,
    PlacementExhausted, TaskSpec, build_environment, capture_views,
    export_dataset, generate_task, make_instruction, select_task,
)
from .world import (
    ActionFailure, CameraPose, DynamicObject, Environment, Pose, RobotState,
    Snapshot, grasp, place, step, validate_environment, visible_objects,
)

__version__ = "0.1.0"

__all__ = [
    "ActionFailure", "AttributeSet", "CameraPose", "Capture", "ConfigError",
    "DynamicObject", "Environment", "GenConfig", "GenerationFailed",
    "GotoClause", "Grounding", "InstructionAst",
    "KEYWORD_BASELINE", "ManipClause", "MismatchDetected",
    "NoDistinguishingDescription", "NoFeasibleTask", "NoPath", "NoViewpoint",
    "NoiseConfig", "ORACLE", "ParseError", "Path", "PlacementExhausted",
    "Pose", "RELATIONAL", "RelationThresholds", "RobotState", "RunConfig",
    "ScoreWeights", "SessionRecord", "Snapshot", "SpatialRelation",
    "Tally", "TaskSpec", "aggregate", "build_environment", "capture_views",
    "crawl",
    "detect", "distinguishing_descriptor", "export_dataset", "format_report",
    "generate_task", "grasp", "ground", "load_config", "make_instruction",
    "navigate_to_room", "parse", "place", "plan_path", "realize",
    "relation_holds", "replay", "run_batch", "run_session", "select_task",
    "step", "validate_environment", "visible_objects",
]
