import gc
import math
import weakref

import pytest

from helpers import lattice_points, make_env, room_layout, scene, table
from homefetch import cli, layouts, taskgen
from homefetch.geometry import Rect
from homefetch.layouts import layout_ids, make_environment
from homefetch.planner import grid_for
from homefetch.vocab import DEFAULT
from homefetch.world import (
    line_of_sight, point_in_room, validate_environment, validate_layout,
)


def test_layout_registry():
    assert "default" in layout_ids()
    with pytest.raises(KeyError):
        make_environment("no-such-layout")


def _fields(layout) -> tuple:
    """Everything a layout is built from, compared by value."""
    return (layout.id, layout.rooms, layout.doors, layout.walls,
            layout.furniture, layout.start)


class TestRegistry:
    """Each shipped layout is built once per process and shared by every
    scene on it, with its grids."""

    def test_one_layout_per_id(self):
        assert sorted(layouts._LAYOUTS) == layout_ids()
        for lid in layout_ids():
            a, b = make_environment(lid), make_environment(lid)
            assert a.layout is b.layout is layouts._LAYOUTS[lid]
            assert a is not b and a.robot is not b.robot
            assert a.robot.pose is not a.layout.start
            assert a.robot.pose == a.layout.start

    def test_one_shipped_layout_never_rebuilds_its_grid(self):
        grid = grid_for(make_environment("default"))
        for _ in range(24):
            assert grid_for(make_environment("default")) is grid
        assert list(make_environment("default").layout.grids.values()) == \
            [grid]

    def test_generated_scenes_share_one_layout_and_grid(self, tmp_path,
                                                        monkeypatch):
        scenes = []
        build = taskgen.build_environment

        def kept(cfg, seed):
            scenes.append(build(cfg, seed))
            return scenes[-1]

        monkeypatch.setattr(taskgen, "build_environment", kept)
        assert cli.main(["generate", "--seed", "4", "--sessions", "5",
                         "--out", str(tmp_path / "gen")]) == 0
        assert len(scenes) >= 5
        assert {id(env.layout) for env in scenes} == \
            {id(layouts._LAYOUTS["default"])}
        assert len({id(grid_for(env)) for env in scenes}) == 1

    def test_no_command_mutates_the_shared_home(self, tmp_path, capsys):
        assert cli.main(["run", "--seed", "7", "--sessions", "3",
                         "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["generate", "--seed", "4", "--sessions", "3",
                         "--out", str(tmp_path / "gen")]) == 0
        shared = make_environment("default").layout
        fresh = layouts._BUILDERS["default"]()
        assert fresh is not shared
        assert _fields(shared) == _fields(fresh)
        assert validate_layout(shared) == []


class TestHandBuiltLayouts:
    def test_equal_geometry_gets_separate_grids(self):
        a, b = make_env(), make_env()
        assert _fields(a.layout) == _fields(b.layout)
        assert grid_for(a) is not grid_for(b)
        assert grid_for(scene(a.layout, robot_xy=(2.0, 2.0))) is grid_for(a)

    def test_grid_is_collected_with_its_layout(self):
        env = make_env(furniture=(table("t0", Rect(2.0, 2.0, 3.0, 3.0)),))
        grid = weakref.ref(grid_for(env))
        layout = weakref.ref(env.layout)
        del env
        gc.collect()
        assert layout() is None
        assert grid() is None

    def test_fields_are_tuples(self):
        layout = room_layout(furniture=[table()])
        assert isinstance(layout.furniture, tuple)
        assert isinstance(layout.rooms, tuple)
        assert isinstance(layout.walls, tuple)
        with pytest.raises(AttributeError):
            layout.walls = ()


class TestDefaultLayout:
    def test_validator_clean(self):
        """The default layout, and the empty scene on it, is valid; nothing
        checks it at import."""
        env = make_environment("default")
        assert validate_layout(env.layout) == []
        assert validate_environment(env) == []

    def test_construction_deterministic(self):
        a, b = make_environment("default"), make_environment("default")
        assert a.robot.pose == b.robot.pose
        assert _fields(a.layout) == _fields(layouts._BUILDERS["default"]())

    def test_fixed_start_pose(self):
        env = make_environment("default")
        assert (env.robot.pose.x, env.robot.pose.y) == (5.0, 1.3)
        assert env.robot.pose.theta == pytest.approx(math.pi / 2)
        assert point_in_room(env, 5.0, 1.3) == "living_room"

    def test_room_names_in_vocabulary(self):
        env = make_environment("default")
        for room in env.layout.rooms:
            assert room.name in DEFAULT.rooms

    def test_furniture_categories_in_vocabulary(self):
        env = make_environment("default")
        for f in env.layout.furniture:
            assert f.category in DEFAULT.furniture
            assert f.footprint.area > 0

    def test_furniture_inside_own_room(self):
        env = make_environment("default")
        for f in env.layout.furniture:
            rooms = {point_in_room(env, *f.footprint.center)}
            corners = [
                (f.footprint.x0, f.footprint.y0),
                (f.footprint.x1 - 1e-9, f.footprint.y1 - 1e-9),
            ]
            for c in corners:
                rooms.add(point_in_room(env, *c))
            assert len(rooms) == 1 and None not in rooms

    def test_surfaces_sit_inside_footprints(self):
        env = make_environment("default")
        for f in env.layout.furniture:
            assert len(f.surfaces) == 1
            s = f.surfaces[0]
            assert s.owner == f.id
            assert s.id == f"{f.id}/top"
            fp = f.footprint
            assert fp.x0 <= s.region.x0 <= s.region.x1 <= fp.x1
            assert fp.y0 <= s.region.y0 <= s.region.y1 <= fp.y1
            assert s.region.area >= 0.04
        # plain furniture uses the 5 cm default inset; the sofa has a seat strip
        furniture = {f.id: f for f in env.layout.furniture}
        k_table = furniture["k_table"]
        assert k_table.surfaces[0].region.as_tuple() == \
            pytest.approx(k_table.footprint.inset(0.05).as_tuple())
        sofa = furniture["lr_sofa"]
        assert sofa.surfaces[0].region.as_tuple() == (0.65, 2.1, 1.05, 3.9)

    def test_doors_connect_adjacent_rooms(self):
        env = make_environment("default")
        ids = {r.id for r in env.layout.rooms}
        for d in env.layout.doors:
            assert set(d.rooms) <= ids
            a, b = (env.layout.room(r) for r in d.rooms)
            # door sits on the shared boundary of its two rooms
            if d.axis == "v":
                assert d.pos in (a.bounds.x1, a.bounds.x0)
                assert d.pos in (b.bounds.x1, b.bounds.x0)
            else:
                assert d.pos in (a.bounds.y1, a.bounds.y0)
                assert d.pos in (b.bounds.y1, b.bounds.y0)

    def test_door_gaps_passable(self):
        env = make_environment("default")
        # straight sight through each door, blocked off-door
        assert line_of_sight(env, (5.5, 2.6), (6.5, 2.6))   # door_lk
        assert not line_of_sight(env, (5.5, 0.8), (6.5, 0.8))
        assert line_of_sight(env, (2.6, 4.5), (2.6, 5.5))   # door_lb
        assert not line_of_sight(env, (0.8, 4.5), (0.8, 5.5))

    def test_single_navigable_component(self):
        grid = grid_for(make_environment("default"))
        assert set(grid.comp[grid.free].tolist()) == {0}

    def test_every_room_has_lattice_points(self):
        # a room with no reachable survey pose would be a dead zone
        env = make_environment("default")
        for room in env.layout.rooms:
            pts = lattice_points(env, room.id)
            assert pts, room.id
            for x, y in pts:
                assert room.bounds.contains(x, y)

    def test_lattice_is_metre_spaced_serpentine(self):
        env = make_environment("default")
        pts = lattice_points(env, "kitchen")
        for x, y in pts:
            assert x == pytest.approx(round(x)) and y == pytest.approx(round(y))
        ys = [y for _, y in pts]
        assert ys == sorted(ys)
