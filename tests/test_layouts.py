import math

import pytest

from homefetch.agent import crawl_points
from homefetch.layouts import layout_ids, make_environment
from homefetch.planner import grid_for
from homefetch.vocab import DEFAULT
from homefetch.world import line_of_sight, point_in_room, validate_environment


def test_layout_registry():
    assert "default" in layout_ids()
    with pytest.raises(KeyError):
        make_environment("no-such-layout")


class TestDefaultLayout:
    def test_validator_clean(self):
        assert validate_environment(make_environment("default")) == []

    def test_construction_deterministic(self):
        a, b = make_environment("default"), make_environment("default")
        assert a.robot.pose == b.robot.pose
        assert [f.id for f in a.furniture] == [f.id for f in b.furniture]
        assert [(r.id, r.bounds.as_tuple()) for r in a.rooms] == \
               [(r.id, r.bounds.as_tuple()) for r in b.rooms]

    def test_fixed_start_pose(self):
        env = make_environment("default")
        assert (env.robot.pose.x, env.robot.pose.y) == (5.0, 1.3)
        assert env.robot.pose.theta == pytest.approx(math.pi / 2)
        assert point_in_room(env, 5.0, 1.3) == "living_room"

    def test_room_names_in_vocabulary(self):
        env = make_environment("default")
        for room in env.rooms:
            assert room.name in DEFAULT.rooms

    def test_furniture_categories_in_vocabulary(self):
        env = make_environment("default")
        for f in env.furniture:
            assert f.category in DEFAULT.furniture
            assert f.footprint.area > 0

    def test_furniture_inside_own_room(self):
        env = make_environment("default")
        for f in env.furniture:
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
        for f in env.furniture:
            assert len(f.surfaces) == 1
            s = f.surfaces[0]
            assert s.owner == f.id
            assert s.id == f"{f.id}/top"
            fp = f.footprint
            assert fp.x0 <= s.region.x0 <= s.region.x1 <= fp.x1
            assert fp.y0 <= s.region.y0 <= s.region.y1 <= fp.y1
            assert s.region.area >= 0.04
        # plain furniture uses the 5 cm default inset; the sofa has a seat strip
        furniture = {f.id: f for f in env.furniture}
        k_table = furniture["k_table"]
        assert k_table.surfaces[0].region.as_tuple() == \
            pytest.approx(k_table.footprint.inset(0.05).as_tuple())
        sofa = furniture["lr_sofa"]
        assert sofa.surfaces[0].region.as_tuple() == (0.65, 2.1, 1.05, 3.9)

    def test_doors_connect_adjacent_rooms(self):
        env = make_environment("default")
        ids = {r.id for r in env.rooms}
        for d in env.doors:
            assert set(d.rooms) <= ids
            a, b = (env.room(r) for r in d.rooms)
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
        for room in env.rooms:
            pts = crawl_points(env, room.id)
            assert pts, room.id
            for x, y in pts:
                assert room.bounds.contains(x, y)

    def test_lattice_is_metre_spaced_serpentine(self):
        env = make_environment("default")
        pts = crawl_points(env, "kitchen")
        for x, y in pts:
            assert x == pytest.approx(round(x)) and y == pytest.approx(round(y))
        ys = [y for _, y in pts]
        assert ys == sorted(ys)
