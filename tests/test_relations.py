import itertools
import math
import random

import pytest

from helpers import sighting
from homefetch.language import (
    IN_FRONT_OF,
    LEFT_OF,
    NEAR,
    ON,
    RIGHT_OF,
    AttributeSet,
    SpatialRelation,
)
from homefetch.relations import (
    NoDistinguishingDescription,
    RelationThresholds,
    attrs_match,
    distinguishing_descriptor,
    minimal_attr_descriptor,
    n_specified,
    relation_holds,
    view_distance,
)
from homefetch.world import SURFACE

TH = RelationThresholds()


def test_thresholds_pinned():
    assert TH.near_m == 1.0
    assert TH.band_m == 0.5
    assert TH.min_bearing_rad == 0.1


class TestViewDistance:
    def test_law_of_cosines_frozen(self):
        a = sighting("a", bearing=0.0, rng=1.0)
        b = sighting("b", bearing=math.pi / 2, rng=1.0)
        assert view_distance(a, b) == pytest.approx(math.sqrt(2.0))
        assert view_distance(a, a) == 0.0

    def test_matches_cartesian_distance(self):
        rng = random.Random(3)
        for _ in range(200):
            b1, r1 = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3.5)
            b2, r2 = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 3.5)
            p1 = (r1 * math.cos(b1), r1 * math.sin(b1))
            p2 = (r2 * math.cos(b2), r2 * math.sin(b2))
            want = math.hypot(p1[0] - p2[0], p1[1] - p2[1])
            got = view_distance(sighting("a", bearing=b1, rng=r1),
                                sighting("b", bearing=b2, rng=r2))
            assert got == pytest.approx(want, abs=1e-9)


class TestRelationHolds:
    def test_on_requires_surface_and_support(self):
        subj = sighting("o0")
        surf = sighting("t0/top", kind=SURFACE, category="table")
        other = sighting("o1")
        supports = {"o0": "t0/top"}
        assert relation_holds(ON, subj, surf, supports, TH)
        assert not relation_holds(ON, subj, other, supports, TH)  # not a surface
        assert not relation_holds(ON, sighting("o2"), surf, supports, TH)

    def test_near_boundary_inclusive(self):
        # ranges 2 and 3 on the same bearing: view distance exactly 1.0
        a = sighting("a", bearing=0.0, rng=2.0)
        b = sighting("b", bearing=0.0, rng=3.0)
        assert relation_holds(NEAR, a, b, {}, TH)
        c = sighting("c", bearing=0.0, rng=3.001)
        assert not relation_holds(NEAR, a, c, {}, TH)

    def test_in_front_of(self):
        lm = sighting("lm", bearing=0.0, rng=2.6)
        assert relation_holds(IN_FRONT_OF, sighting("s", bearing=0.0, rng=2.0), lm, {}, TH)
        # lateral offset 2*sin(0.3) = 0.59 exceeds the band
        assert not relation_holds(IN_FRONT_OF, sighting("s", bearing=0.3, rng=2.0), lm, {}, TH)
        # subject must be strictly nearer
        assert not relation_holds(IN_FRONT_OF, sighting("s", bearing=0.0, rng=2.6), lm, {}, TH)
        assert not relation_holds(IN_FRONT_OF, sighting("s", bearing=0.0, rng=3.0), lm, {}, TH)

    def test_left_right_frozen(self):
        lm = sighting("lm", bearing=0.0, rng=2.0)
        left = sighting("s", bearing=0.15, rng=2.2)
        assert relation_holds(LEFT_OF, left, lm, {}, TH)
        assert not relation_holds(RIGHT_OF, left, lm, {}, TH)
        # bearing separation below the minimum
        assert not relation_holds(LEFT_OF, sighting("s", bearing=0.05, rng=2.0), lm, {}, TH)
        # depth separation beyond the band
        assert not relation_holds(LEFT_OF, sighting("s", bearing=0.15, rng=2.6), lm, {}, TH)
        right = sighting("s", bearing=-0.15, rng=2.2)
        assert relation_holds(RIGHT_OF, right, lm, {}, TH)

    def test_left_right_antisymmetric_pair(self):
        rng = random.Random(11)
        for _ in range(200):
            s = sighting("s", bearing=rng.uniform(-1, 1), rng=rng.uniform(0.5, 3.5))
            l = sighting("l", bearing=rng.uniform(-1, 1), rng=rng.uniform(0.5, 3.5))
            assert relation_holds(LEFT_OF, s, l, {}, TH) == \
                relation_holds(RIGHT_OF, l, s, {}, TH)

    def test_self_relation_false(self):
        a = sighting("a", bearing=0.0, rng=2.0)
        for kind in (NEAR, IN_FRONT_OF, LEFT_OF, RIGHT_OF, ON):
            assert not relation_holds(kind, a, a, {"a": "a"}, TH)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            relation_holds("behind", sighting("a"), sighting("b"), {}, TH)


class TestAttrsMatch:
    def test_category_required(self):
        s = sighting("x", category="mug", color="red", material="ceramic")
        assert attrs_match(AttributeSet("mug"), s)
        assert not attrs_match(AttributeSet("cup"), s)

    def test_specified_attrs_must_agree(self):
        s = sighting("x", category="mug", color="red", material="ceramic")
        assert attrs_match(AttributeSet("mug", "red"), s)
        assert not attrs_match(AttributeSet("mug", "blue"), s)
        assert attrs_match(AttributeSet("mug", "red", "ceramic"), s)
        assert not attrs_match(AttributeSet("mug", "red", "glass"), s)

    def test_unspecified_is_wildcard(self):
        bare = sighting("x", category="mug")
        assert attrs_match(AttributeSet("mug"), bare)
        assert not attrs_match(AttributeSet("mug", "red"), bare)


def test_n_specified():
    assert n_specified(AttributeSet("mug")) == 1
    assert n_specified(AttributeSet("mug", "red")) == 2
    assert n_specified(AttributeSet("mug", None, "ceramic")) == 2
    assert n_specified(AttributeSet("mug", "red", "ceramic")) == 3


class TestMinimalAttrDescriptor:
    def test_unique_category(self):
        ctx = [sighting("a", category="mug", color="red"),
               sighting("b", category="ball", color="red")]
        assert minimal_attr_descriptor(ctx[0], ctx) == AttributeSet("mug")

    def test_color_narrows(self):
        ctx = [sighting("a", category="bottle", color="white"),
               sighting("b", category="bottle", color="green")]
        assert minimal_attr_descriptor(ctx[0], ctx) == AttributeSet("bottle", "white")

    def test_material_without_color(self):
        # both white, so color cannot help and gets dropped again
        ctx = [sighting("a", category="bottle", color="white", material="glass"),
               sighting("b", category="bottle", color="white", material="plastic")]
        got = minimal_attr_descriptor(ctx[0], ctx)
        assert got == AttributeSet("bottle", None, "glass")

    def test_identical_twins_unresolvable(self):
        ctx = [sighting("a", category="bottle", color="white", material="glass"),
               sighting("b", category="bottle", color="white", material="glass")]
        assert minimal_attr_descriptor(ctx[0], ctx) is None

    def test_minimality_against_exhaustive_search(self):
        rng = random.Random(77)
        cats = ["mug", "ball", "bottle"]
        cols = ["red", "white", None]
        mats = ["glass", "plastic", None]
        for trial in range(300):
            ctx = [
                sighting(f"o{i}", category=rng.choice(cats),
                         color=rng.choice(cols), material=rng.choice(mats))
                for i in range(rng.randint(1, 5))
            ]
            subj = ctx[0]
            got = minimal_attr_descriptor(subj, ctx)
            candidates = []
            for use_c, use_m in itertools.product((False, True), repeat=2):
                if use_c and subj.color is None:
                    continue
                if use_m and subj.material is None:
                    continue
                a = AttributeSet(subj.category,
                                 subj.color if use_c else None,
                                 subj.material if use_m else None)
                if not any(attrs_match(a, s) for s in ctx
                           if s.object_id != subj.object_id):
                    candidates.append(a)
            if not candidates:
                assert got is None
            else:
                best = min(n_specified(a) for a in candidates)
                assert got is not None
                assert n_specified(got) == best
                assert attrs_match(got, subj)
                assert not any(attrs_match(got, s) for s in ctx
                               if s.object_id != subj.object_id)


class TestDistinguishingDescriptor:
    def test_relation_even_where_attributes_suffice(self):
        """The search always returns a relation: a mug that its category
        alone singles out still gets one, or none at all."""
        ball = sighting("b", category="ball", bearing=0.05, rng=2.3)
        ctx = [sighting("a", category="mug", bearing=0.0, rng=2.0), ball]
        attrs, rel = distinguishing_descriptor("a", ctx, {}, TH)
        assert attrs == AttributeSet("mug")
        assert rel == SpatialRelation(IN_FRONT_OF, AttributeSet("ball"))
        far = sighting("b", category="ball", bearing=0.7, rng=3.0)
        with pytest.raises(NoDistinguishingDescription):
            distinguishing_descriptor("a", [ctx[0], far], {}, TH)

    def test_relation_rescues_twins(self):
        ctx = [
            sighting("b1", category="bottle", color="white", material="glass",
                     bearing=0.0, rng=2.0),
            sighting("b2", category="bottle", color="white", material="glass",
                     bearing=1.0, rng=2.0),
            sighting("m1", category="mug", bearing=0.1, rng=2.1),
        ]
        supports = {"b1": "t0/top", "b2": "t0/top", "m1": "t0/top"}
        attrs, rel = distinguishing_descriptor("b1", ctx, supports, TH)
        # the relation makes every attribute redundant against the twin
        assert attrs == AttributeSet("bottle")
        assert rel == SpatialRelation(IN_FRONT_OF, AttributeSet("mug"))

    def test_faithful_to_subject(self):
        ctx = [
            sighting("b1", category="bottle", color="white", material="glass",
                     bearing=0.0, rng=2.0),
            sighting("b2", category="bottle", color="white", material="glass",
                     bearing=1.0, rng=2.0),
            sighting("m1", category="mug", bearing=0.1, rng=2.1),
        ]
        supports = {}
        attrs, rel = distinguishing_descriptor("b1", ctx, supports, TH)
        subj = ctx[0]
        assert attrs_match(attrs, subj)
        assert rel is not None
        lm = next(s for s in ctx if attrs_match(rel.landmark, s))
        assert relation_holds(rel.kind, subj, lm, supports, TH)
        for other in ctx[1:]:
            assert not (attrs_match(attrs, other)
                        and relation_holds(rel.kind, other, lm, supports, TH))

    def test_unresolvable_raises(self):
        ctx = [
            sighting("b1", category="bottle", bearing=0.0, rng=2.0),
            sighting("b2", category="bottle", bearing=0.0, rng=2.2),
        ]
        with pytest.raises(NoDistinguishingDescription):
            distinguishing_descriptor("b1", ctx, {}, TH)
