"""Spatial-relation semantics and referring-expression generation.

Relations are judged in view space: every snapshot carries (bearing, range)
in the camera frame of one capture, so two snapshots from the same capture
are enough to decide Near/InFrontOf/LeftOf/RightOf; On additionally needs
the object-to-surface support map.

`distinguishing_descriptor` produces the minimal attribute set (plus at most
one relation) that matches its subject and nothing else in view.  Matching
is monotone in the attribute set, which is what makes the greedy prune at
the end sound: any subset of an ambiguous set is still ambiguous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .language import (
    ON, IN_FRONT_OF, NEAR, LEFT_OF, RIGHT_OF, KIND_ORDER,
    AttributeSet, SpatialRelation,
)
from .world import SURFACE, Snapshot


class NoDistinguishingDescription(Exception):
    """No attribute/relation combination singles the subject out."""


@dataclass(frozen=True)
class RelationThresholds:
    near_m: float = 1.0
    band_m: float = 0.5  # lateral/depth tolerance for InFrontOf and LeftOf/RightOf
    min_bearing_rad: float = 0.1


def view_distance(a: Snapshot, b: Snapshot) -> float:
    """World distance between two snapshots of the same capture."""
    return math.sqrt(max(0.0, a.range * a.range + b.range * b.range
                         - 2.0 * a.range * b.range * math.cos(a.bearing - b.bearing)))


def relation_holds(kind: str, subject: Snapshot, landmark: Snapshot,
                   supports: Mapping[str, str],
                   th: RelationThresholds = RelationThresholds()) -> bool:
    if subject.object_id == landmark.object_id:
        return False
    if kind == ON:
        return (landmark.kind == SURFACE
                and supports.get(subject.object_id) == landmark.object_id)
    if kind == NEAR:
        return view_distance(subject, landmark) <= th.near_m
    if kind == IN_FRONT_OF:
        lateral = subject.range * math.sin(subject.bearing - landmark.bearing)
        return subject.range < landmark.range and abs(lateral) <= th.band_m
    if kind == LEFT_OF:
        return (subject.bearing - landmark.bearing >= th.min_bearing_rad
                and abs(subject.range - landmark.range) <= th.band_m)
    if kind == RIGHT_OF:
        return (landmark.bearing - subject.bearing >= th.min_bearing_rad
                and abs(subject.range - landmark.range) <= th.band_m)
    raise ValueError(f"unknown relation kind {kind!r}")


def attrs_match(attrs: AttributeSet, s: Snapshot) -> bool:
    return (s.category == attrs.category
            and (attrs.color is None or s.color == attrs.color)
            and (attrs.material is None or s.material == attrs.material))


def n_specified(attrs: AttributeSet) -> int:
    return 1 + (attrs.color is not None) + (attrs.material is not None)


def minimal_attr_descriptor(subject: Snapshot,
                            context: Sequence[Snapshot]) -> AttributeSet | None:
    """Smallest attribute-only description unique to `subject` in `context`.

    Tries category, + color, + material, + both, and returns the first that
    no other snapshot matches; None when even the full set is ambiguous.
    """
    others = [s for s in context if s.object_id != subject.object_id]
    cat, color, material = subject.category, subject.color, subject.material
    for attrs in (AttributeSet(cat), AttributeSet(cat, color),
                  AttributeSet(cat, None, material),
                  AttributeSet(cat, color, material)):
        if not any(attrs_match(attrs, s) for s in others):
            return attrs
    return None


def distinguishing_descriptor(
    subject_id: str,
    context: Sequence[Snapshot],
    supports: Mapping[str, str],
    th: RelationThresholds = RelationThresholds(),
) -> tuple[AttributeSet, SpatialRelation | None]:
    """Minimal referring expression for one subject of a capture.

    Attribute escalation first; if the full attribute set stays ambiguous,
    try relations in KIND_ORDER against landmarks that themselves have a
    unique attribute-only description, then prune attributes the relation
    made redundant.
    """
    subject = next(s for s in context if s.object_id == subject_id)
    others = [s for s in context if s.object_id != subject_id]

    def blockers(attrs: AttributeSet) -> list[Snapshot]:
        return [s for s in others if attrs_match(attrs, s)]

    attrs = minimal_attr_descriptor(subject, context)
    if attrs is not None:
        return attrs, None
    attrs = AttributeSet(subject.category, subject.color, subject.material)

    def rel_unique(a: AttributeSet, kind: str, lm: Snapshot) -> bool:
        if not relation_holds(kind, subject, lm, supports, th):
            return False
        return not any(
            s.object_id != lm.object_id and relation_holds(kind, s, lm, supports, th)
            for s in blockers(a)
        )

    for kind in KIND_ORDER:
        for lm in sorted(others, key=lambda s: s.object_id):
            lm_desc = minimal_attr_descriptor(lm, context)
            if lm_desc is None:
                continue
            if not rel_unique(attrs, kind, lm):
                continue
            # The relation carries weight now; drop attributes it covers.
            if attrs.color is not None:
                slim = AttributeSet(attrs.category, None, attrs.material)
                if rel_unique(slim, kind, lm):
                    attrs = slim
            if attrs.material is not None:
                slim = AttributeSet(attrs.category, attrs.color, None)
                if rel_unique(slim, kind, lm):
                    attrs = slim
            return attrs, SpatialRelation(kind, lm_desc)
    raise NoDistinguishingDescription(subject_id)
