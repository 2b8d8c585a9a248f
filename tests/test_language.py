import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_match_multiword, sample_ast
from homefetch import language
from homefetch.language import (
    IN_FRONT_OF,
    KIND_ORDER,
    LEFT_OF,
    NEAR,
    ON,
    ONTO,
    RIGHT_OF,
    TO,
    AttributeSet,
    GotoClause,
    InstructionAst,
    ManipClause,
    ParseError,
    SpatialRelation,
    parse,
    realize,
)
from homefetch.vocab import DEFAULT


def _ast(target, destination, room="living room", prep=ONTO,
         relation=None, source=None):
    return InstructionAst(
        goto=GotoClause(room=room),
        manip=ManipClause(target=target, destination=destination,
                          prep=prep, relation=relation, source=source),
    )


FLAGSHIP = _ast(
    target=AttributeSet(category="toy car", material="wooden"),
    destination=AttributeSet(category="table"),
    relation=SpatialRelation(kind=IN_FRONT_OF,
                             landmark=AttributeSet(category="bottle", color="white")),
)


class TestRealize:
    def test_flagship_sentence(self):
        assert realize(FLAGSHIP) == (
            "Go to the living room, move the wooden toy car "
            "in front of the white bottle onto the table."
        )

    def test_source_sentence(self):
        ast = _ast(AttributeSet(category="mug"), AttributeSet(category="desk"),
                   room="bedroom", prep=TO, source=AttributeSet(category="shelf"))
        assert realize(ast) == (
            "Go to the bedroom, move the mug from the shelf to the desk."
        )

    def test_np_order_material_color_category(self):
        ast = _ast(AttributeSet(category="bottle", color="white", material="glass"),
                   AttributeSet(category="table"))
        assert "the glass white bottle" in realize(ast)

    def test_single_sentence_single_period(self):
        text = realize(FLAGSHIP)
        assert text.count(".") == 1 and text.endswith(".")


class TestParse:
    def test_flagship_roundtrip(self):
        assert parse(realize(FLAGSHIP)) == FLAGSHIP

    def test_case_insensitive(self):
        up = realize(FLAGSHIP).upper()
        assert parse(up) == FLAGSHIP

    def test_article_variants(self):
        ast = _ast(AttributeSet(category="ball"), AttributeSet(category="table"),
                   room="kitchen")
        assert parse("Go to the kitchen, move a ball onto a table.") == ast
        assert parse("go to the kitchen, move an ball onto the table.") == ast

    def test_relation_and_source_together(self):
        ast = _ast(
            AttributeSet(category="ball", color="red"),
            AttributeSet(category="table"),
            room="study",
            relation=SpatialRelation(kind=NEAR, landmark=AttributeSet(category="lamp")),
            source=AttributeSet(category="shelf"),
        )
        text = realize(ast)
        assert "near the lamp from the shelf onto the table" in text
        assert parse(text) == ast

    def test_all_relation_kinds(self):
        assert KIND_ORDER == (ON, IN_FRONT_OF, NEAR, LEFT_OF, RIGHT_OF)
        for kind in KIND_ORDER:
            ast = _ast(AttributeSet(category="book"), AttributeSet(category="desk"),
                       relation=SpatialRelation(kind=kind,
                                                landmark=AttributeSet(category="vase")))
            assert parse(realize(ast)) == ast

    def test_multiword_tokens(self):
        ast = _ast(AttributeSet(category="teddy bear"),
                   AttributeSet(category="table"), room="living room")
        assert parse(realize(ast)) == ast


class TestParseErrors:
    def test_wrong_opening(self):
        with pytest.raises(ParseError) as ei:
            parse("Fly to the moon, move the ball onto the table.")
        assert ei.value.offset == 0

    def test_unknown_category_offset(self):
        text = "Go to the kitchen, move the blorp onto the table."
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.offset == text.index("blorp")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError) as ei:
            parse("Go to the kitchen, move the ball onto the table. extra")
        assert "<end of input>" in ei.value.expected

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse("Go to the kitchen, move the ball onto the table")

    def test_empty_input(self):
        with pytest.raises(ParseError) as ei:
            parse("")
        assert ei.value.offset == 0

    def test_message_format(self):
        with pytest.raises(ParseError) as ei:
            parse("nope.")
        msg = str(ei.value)
        assert msg.startswith("at byte 0: expected ")

    def test_expected_sorted_deduped(self):
        e = ParseError(4, ("b", "a", "b"))
        assert e.expected == ("a", "b")


def test_sampled_roundtrip():
    rng = random.Random(424242)
    for _ in range(300):
        ast = sample_ast(rng)
        assert parse(realize(ast)) == ast


# Every word and mark the grammar knows, and words it does not.
_WORDS = sorted({w for phrase in (*DEFAULT.categories, *DEFAULT.rooms,
                                  *DEFAULT.colors, *DEFAULT.materials)
                 for w in phrase.split()}
                | {"go", "to", "the", "a", "an", "move", "on", "near", "in",
                   "front", "of", "left", "right", "from", "onto", ",", "."})
_JUNK = ["toys", "teddybear", "living", "room", "xyzzy", "car", "bear", "!"]


def _outcome(text: str):
    try:
        return parse(text)
    except ParseError as e:
        return ("ParseError", str(e))


@st.composite
def _token_texts(draw):
    """A realized instruction with some tokens replaced, inserted or
    dropped, or "go to the" and a free sequence of known and junk words."""
    pool = st.sampled_from(_WORDS + _JUNK)
    if draw(st.integers(0, 3)) == 0:
        return " ".join(["go", "to", "the", *draw(st.lists(pool, max_size=25))])
    text = realize(sample_ast(random.Random(draw(st.integers(0, 2 ** 32)))))
    toks = text.replace(",", " ,").replace(".", " .").split()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(toks)))
        edit = draw(st.sampled_from(("replace", "insert", "drop")))
        if edit == "insert" or not toks:
            toks.insert(i, draw(pool))
        elif edit == "replace":
            toks[min(i, len(toks) - 1)] = draw(pool)
        else:
            del toks[min(i, len(toks) - 1)]
    return " ".join(toks)


@settings(max_examples=400, deadline=None)
@given(text=_token_texts())
def test_first_word_index_matches_the_linear_scan(text):
    """`parse` with the first-word index gives the AST, or the error
    message (byte offset and expected set), that the linear scan of every
    phrase gives."""
    got = _outcome(text)
    with mock.patch.object(language, "_match_multiword",
                           reference_match_multiword):
        assert got == _outcome(text)


_PIECES = ("toy", "car", "bear")


@settings(max_examples=300, deadline=None)
@given(vocab=st.lists(st.lists(st.sampled_from(_PIECES), min_size=1,
                               max_size=3).map(" ".join),
                      min_size=1, max_size=8).map(tuple),
       pick=st.integers(0, 7),
       tail=st.lists(st.sampled_from(_PIECES + (",",)), max_size=3))
def test_first_word_index_on_overlapping_phrases(vocab, pick, tail):
    """On vocabularies whose phrases share first words, the index takes
    the longest match, the first of equal ones in vocabulary order, and
    consumes what the linear scan consumes.  The tokens start with one of
    the phrases (or with a word no phrase starts with, when `pick` is past
    the vocabulary)."""
    head = vocab[pick].split() if pick < len(vocab) else [","]
    text = " ".join(head + tail)

    def run(match):
        ts = language._Tokens(text)
        try:
            return match(ts, vocab, "<phrase>"), ts.pos
        except ParseError as e:
            return ("ParseError", str(e))

    assert run(language._match_multiword) == run(reference_match_multiword)
