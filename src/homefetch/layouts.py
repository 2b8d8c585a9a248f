"""Shipped static layouts.

A layout fixes everything except the dynamic objects: room geometry, doors,
walls, furniture (with support surfaces), and the robot start pose.  Walls
are thin rectangles straddling room boundaries, carved around door gaps, so
movement and sight between rooms funnel through doors.

Each shipped layout is built once per process, and the tests check it with
`validate_layout`; every scene `make_environment` starts shares it, and
with it its grids and their memos.
"""
from __future__ import annotations

import math
from copy import copy

from .geometry import Rect
from .world import (
    Door, Environment, Layout, Pose, RobotState, RoomSpec, StaticObject,
    SupportSurface,
)

WALL_HALF_M = 0.05

FLOOR_LEVEL = "floor-level"
TABLE_LEVEL = "table-level"


def _carve(lo: float, hi: float, gaps: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Interval [lo, hi] minus the gap intervals, in ascending order."""
    out = []
    cur = lo
    for g0, g1 in sorted(gaps):
        if g0 > cur:
            out.append((cur, g0))
        cur = max(cur, g1)
    if cur < hi:
        out.append((cur, hi))
    return out


def _v_walls(x: float, y0: float, y1: float, gaps: list[tuple[float, float]]) -> list[Rect]:
    return [Rect(x - WALL_HALF_M, a, x + WALL_HALF_M, b) for a, b in _carve(y0, y1, gaps)]


def _h_walls(y: float, x0: float, x1: float, gaps: list[tuple[float, float]]) -> list[Rect]:
    return [Rect(a, y - WALL_HALF_M, b, y + WALL_HALF_M) for a, b in _carve(x0, x1, gaps)]


def _furn(fid: str, category: str, rect: Rect, height: str,
          color: str | None, material: str | None,
          region: Rect | None = None) -> StaticObject:
    if region is None:
        region = rect.inset(0.05)
    surface = SupportSurface(id=f"{fid}/top", owner=fid, region=region, height_class=height)
    return StaticObject(id=fid, category=category, footprint=rect,
                        surfaces=[surface], color=color, material=material)


def _default_layout() -> Layout:
    rooms = [
        RoomSpec("living_room", "living room", Rect(0.0, 0.0, 6.0, 5.0)),
        RoomSpec("kitchen", "kitchen", Rect(6.0, 0.0, 10.0, 5.0)),
        RoomSpec("bedroom", "bedroom", Rect(0.0, 5.0, 6.0, 8.0)),
        RoomSpec("study", "study", Rect(6.0, 5.0, 10.0, 8.0)),
    ]
    doors = [
        Door("door_lk", ("living_room", "kitchen"), "v", 6.0, (2.0, 3.2)),
        Door("door_lb", ("living_room", "bedroom"), "h", 5.0, (2.0, 3.2)),
        Door("door_ks", ("kitchen", "study"), "h", 5.0, (7.5, 8.7)),
        Door("door_bs", ("bedroom", "study"), "v", 6.0, (6.0, 7.2)),
    ]
    by_id = {r.id: r for r in rooms}
    for d in doors:
        by_id[d.rooms[0]].doors.append(d)
        by_id[d.rooms[1]].doors.append(d)

    walls = [
        # Exterior ring sits just outside the house bounds.
        Rect(-2 * WALL_HALF_M, -2 * WALL_HALF_M, 10.0 + 2 * WALL_HALF_M, 0.0),
        Rect(-2 * WALL_HALF_M, 8.0, 10.0 + 2 * WALL_HALF_M, 8.0 + 2 * WALL_HALF_M),
        Rect(-2 * WALL_HALF_M, 0.0, 0.0, 8.0),
        Rect(10.0, 0.0, 10.0 + 2 * WALL_HALF_M, 8.0),
    ]
    walls += _v_walls(6.0, 0.0, 5.0, [(2.0, 3.2)])     # living | kitchen
    walls += _v_walls(6.0, 5.0, 8.0, [(6.0, 7.2)])     # bedroom | study
    walls += _h_walls(5.0, 0.0, 6.0, [(2.0, 3.2)])     # living | bedroom
    walls += _h_walls(5.0, 6.0, 10.0, [(7.5, 8.7)])    # kitchen | study

    furniture = [
        # living room
        _furn("lr_sofa", "sofa", Rect(0.2, 2.0, 1.1, 4.0), FLOOR_LEVEL,
              "blue", None, region=Rect(0.65, 2.1, 1.05, 3.9)),
        _furn("lr_table", "table", Rect(2.8, 2.2, 4.0, 3.0), TABLE_LEVEL,
              "brown", "wooden"),
        _furn("lr_shelf", "shelf", Rect(4.6, 0.15, 5.9, 0.55), TABLE_LEVEL,
              "white", "wooden"),
        # kitchen
        _furn("k_table", "table", Rect(7.3, 2.0, 8.7, 2.8), TABLE_LEVEL,
              "white", "plastic"),
        _furn("k_cabinet", "cabinet", Rect(9.5, 0.2, 9.9, 1.8), TABLE_LEVEL,
              "black", "metal"),
        _furn("k_shelf", "shelf", Rect(6.15, 4.5, 7.35, 4.9), TABLE_LEVEL,
              "brown", "wooden"),
        # bedroom
        _furn("b_desk", "desk", Rect(0.2, 6.2, 0.7, 7.6), TABLE_LEVEL,
              "brown", "wooden"),
        _furn("b_dresser", "dresser", Rect(3.0, 7.5, 4.6, 7.95), TABLE_LEVEL,
              "white", "wooden"),
        _furn("b_shelf", "shelf", Rect(5.6, 5.15, 5.95, 5.9), TABLE_LEVEL,
              "black", "metal"),
        # study
        _furn("s_desk", "desk", Rect(9.4, 5.3, 9.9, 6.7), TABLE_LEVEL,
              "black", "metal"),
        _furn("s_table", "table", Rect(7.0, 6.4, 8.2, 7.2), TABLE_LEVEL,
              "green", "plastic"),
        _furn("s_cabinet", "cabinet", Rect(6.1, 7.5, 7.7, 7.95), TABLE_LEVEL,
              "brown", "wooden"),
    ]
    return Layout("default", rooms, doors, walls, furniture,
                  Pose(5.0, 1.3, math.pi / 2.0))


_BUILDERS = {"default": _default_layout}


_LAYOUTS = {lid: build() for lid, build in _BUILDERS.items()}


def layout_ids() -> list[str]:
    return sorted(_LAYOUTS)


def make_environment(layout_id: str) -> Environment:
    """A fresh scene on a shipped layout, without dynamic objects.

    Raises KeyError for an unknown layout id.
    """
    layout = _LAYOUTS[layout_id]
    return Environment(layout, {}, RobotState(pose=copy(layout.start)))


def forget_memos() -> None:
    """Empty the memo of every grid of the shipped layouts; the rasters
    stay."""
    for layout in _LAYOUTS.values():
        for grid in layout.grids.values():
            grid.memo.clear()
