"""Instruction language: AST types, the realizer, and the parser.

The grammar (docs/grammar.bnf) is shared by both directions.  The realizer
emits one fixed surface form per AST; the parser additionally accepts
"a"/"an" articles and "." as the clause joiner, so natural variants of the
same command still parse.  Round trip is exact: parse(realize(ast)) == ast.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .vocab import DEFAULT

ON = "On"
IN_FRONT_OF = "InFrontOf"
NEAR = "Near"
LEFT_OF = "LeftOf"
RIGHT_OF = "RightOf"
# Escalation order used when a relation is needed to single out the target.
KIND_ORDER = (ON, IN_FRONT_OF, NEAR, LEFT_OF, RIGHT_OF)

_KIND_PHRASE = {
    ON: "on",
    IN_FRONT_OF: "in front of",
    NEAR: "near",
    LEFT_OF: "left of",
    RIGHT_OF: "right of",
}

ONTO = "onto"
TO = "to"


@dataclass(frozen=True)
class AttributeSet:
    category: str
    color: str | None = None
    material: str | None = None


@dataclass(frozen=True)
class SpatialRelation:
    kind: str
    landmark: AttributeSet


@dataclass(frozen=True)
class GotoClause:
    room: str


@dataclass(frozen=True)
class ManipClause:
    target: AttributeSet
    destination: AttributeSet
    prep: str = ONTO
    relation: SpatialRelation | None = None
    source: AttributeSet | None = None


@dataclass(frozen=True)
class InstructionAst:
    goto: GotoClause
    manip: ManipClause


def _np(attrs: AttributeSet) -> str:
    words = []
    if attrs.material is not None:
        words.append(attrs.material)
    if attrs.color is not None:
        words.append(attrs.color)
    words.append(attrs.category)
    return " ".join(words)


def realize(ast: InstructionAst) -> str:
    """Deterministic surface form; exactly one sentence ending in a period."""
    m = ast.manip
    parts = [f"Go to the {ast.goto.room}, move the {_np(m.target)}"]
    if m.relation is not None:
        parts.append(f"{_KIND_PHRASE[m.relation.kind]} the {_np(m.relation.landmark)}")
    if m.source is not None:
        parts.append(f"from the {_np(m.source)}")
    parts.append(f"{m.prep} the {_np(m.destination)}")
    return " ".join(parts) + "."


class ParseError(ValueError):
    """Rejection with the byte offset of the offending token and what was expected."""

    def __init__(self, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = tuple(sorted(set(expected)))
        super().__init__(f"at byte {offset}: expected {' | '.join(self.expected)}")


_ARTICLES = ("a", "an", "the")


class _Tokens:
    """Lowercased word/punctuation tokens with byte offsets into the input."""

    def __init__(self, text: str):
        self.toks: list[tuple[str, int]] = []
        self.end = len(text.encode("utf-8"))
        byte = 0
        i = 0
        while i < len(text):
            ch = text[i]
            n = len(ch.encode("utf-8"))
            if ch.isspace():
                byte += n
                i += 1
                continue
            if ch.isalpha():
                start = byte
                word = []
                while i < len(text) and text[i].isalpha():
                    word.append(text[i].lower())
                    byte += len(text[i].encode("utf-8"))
                    i += 1
                self.toks.append(("".join(word), start))
            else:
                self.toks.append((ch, byte))
                byte += n
                i += 1
        self.pos = 0

    def peek(self, ahead: int = 0) -> str | None:
        idx = self.pos + ahead
        return self.toks[idx][0] if idx < len(self.toks) else None

    def offset(self) -> int:
        return self.toks[self.pos][1] if self.pos < len(self.toks) else self.end

    def take(self) -> str:
        tok = self.toks[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, *options: str) -> str:
        if self.peek() in options:
            return self.take()
        raise ParseError(self.offset(), options)


@cache
def _by_first_word(tokens: tuple[str, ...],
                   ) -> dict[str, tuple[tuple[str, tuple[str, ...]], ...]]:
    """First word -> the (phrase, words) of each vocabulary phrase that
    starts with it, in `tokens` order; built once per vocabulary tuple."""
    index: dict[str, list] = {}
    for phrase in tokens:
        words = tuple(phrase.split())
        index.setdefault(words[0], []).append((phrase, words))
    return {w: tuple(entries) for w, entries in index.items()}


def _match_multiword(ts: _Tokens, tokens: tuple[str, ...], what: str) -> str:
    """Consume the longest vocabulary phrase starting at the cursor; of
    equally long ones, the first in `tokens` order."""
    best = None
    for phrase, words in _by_first_word(tokens).get(ts.peek(), ()):
        if (best is None or len(words) > len(best[1])) and \
                all(ts.peek(k) == w for k, w in enumerate(words[1:], 1)):
            best = (phrase, words)
    if best is None:
        raise ParseError(ts.offset(), (what,))
    ts.pos += len(best[1])
    return best[0]


def _parse_np(ts: _Tokens) -> AttributeSet:
    material = None
    color = None
    if ts.peek() in DEFAULT.materials:
        material = ts.take()
    if ts.peek() in DEFAULT.colors:
        color = ts.take()
    category = _match_multiword(ts, DEFAULT.categories, "<category>")
    return AttributeSet(category, color, material)


def parse(text: str) -> InstructionAst:
    """Parse one instruction sentence; raises ParseError on anything else."""
    ts = _Tokens(text)
    ts.expect("go")
    ts.expect("to")
    ts.expect(*_ARTICLES)
    room = _match_multiword(ts, DEFAULT.rooms, "<room>")
    ts.expect(",", ".")
    ts.expect("move")
    ts.expect(*_ARTICLES)
    target = _parse_np(ts)

    relation = None
    head = ts.peek()
    if head == "on" or head == "near":
        kind = ON if ts.take() == "on" else NEAR
        ts.expect(*_ARTICLES)
        relation = SpatialRelation(kind, _parse_np(ts))
    elif head == "in":
        ts.take()
        ts.expect("front")
        ts.expect("of")
        ts.expect(*_ARTICLES)
        relation = SpatialRelation(IN_FRONT_OF, _parse_np(ts))
    elif head in ("left", "right"):
        kind = LEFT_OF if ts.take() == "left" else RIGHT_OF
        ts.expect("of")
        ts.expect(*_ARTICLES)
        relation = SpatialRelation(kind, _parse_np(ts))

    source = None
    if ts.peek() == "from":
        ts.take()
        ts.expect(*_ARTICLES)
        source = _parse_np(ts)

    prep = ts.expect(ONTO, TO)
    ts.expect(*_ARTICLES)
    destination = _parse_np(ts)
    ts.expect(".")
    if ts.peek() is not None:
        raise ParseError(ts.offset(), ("<end of input>",))
    return InstructionAst(GotoClause(room),
                          ManipClause(target, destination, prep, relation, source))
