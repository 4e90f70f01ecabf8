"""Concrete syntax for formulas and actions.

Formulas:  variables p0, p1, ...; constants #k (element index) and the
named aliases #bot, #top, #one, #zero (plus algebra element names);
the prefix operators !, [A], <A> bind tightest, then the formula
operators of `syntax.INFIX`: * (fusion), then the right-grouping tier
\\, ->, <->, then &, then | (loosest).

Actions: atoms a0, a1, ...; postfix + and * bind tighter than the action
operators of `syntax.INFIX`: ; then u (choice). The Kleene star is
surface syntax allowed only as the outermost operator of a box or
diamond index, where [A*]f becomes [A+]f & f; anywhere deeper it is
rejected.

Indices are ASCII digits. One regular expression splits the text into
tokens, and one precedence-climbing loop (Pratt 1973, "Top down operator
precedence") reads `syntax.INFIX` for both tiers, so the binding levels
are stated only there.

Parsing requires the ambient algebra: constants are resolved and
range-checked against it, and negation desugars to -> #bot.

Nesting is capped at MAX_NESTING levels, counted twice: nested parses
(bracketed text, prefix bodies and right operands of right-grouping
operators) and the height of every node built, desugared forms included.
That keeps the recursive printing, hashing and equality of a tree well
inside Python's recursion limit; past the cap parsing stops with a
FormulaSyntaxError at the token that crosses it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .algebra import FLAlgebra, is_integral
from .errors import FormulaSyntaxError, UnknownConstant
from .syntax import (INFIX, ActionExp, Atom, Box, Choice, Const, Formula, Plus,
                     Seq, Var, children, neg, star_box, walk)

MAX_NESTING = 64

# one group per kind of token, after any whitespace; "bad" takes any other character
_TOKEN = re.compile(r"\s*(?:(?P<var>p[0-9]*)|(?P<atom>a[0-9]*)|(?P<const>#\w*)"
                    r"|(?P<op><->|->|[u&|*\\!;+\[\]<>()])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text)).

    An operator's kind is its own text; the others are var, atom and const.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {word!r}", pos)
        if kind == "op":
            kind = word
        elif kind == "const":
            word = word[1:]
            if not word:
                raise FormulaSyntaxError("empty constant after '#'", pos)
        elif len(word) == 1:
            word += "0"  # bare "a" and "p" abbreviate a0 and p0
        tokens.append((kind, word, pos))
    return tokens + [("end", "", len(text))]


def _index(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads
        raise FormulaSyntaxError(f"index of {len(digits)} digits is too long", pos) from None


def _too_deep(pos: int) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)


@dataclass(frozen=True)
class _Star:
    body: object
    pos: int


def _reject_inner_star(raw) -> None:
    for node in walk(raw, into=(Choice, Seq, Plus)):
        if isinstance(node, _Star):
            raise FormulaSyntaxError("Kleene star is only allowed as the outermost action operator", node.pos)


class _Parser:
    def __init__(self, text: str, algebra: FLAlgebra | None):
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # nested parses in progress
        # every node built, by id, with its height; holding the node keeps the id unique
        self.heights: dict[int, tuple[object, int]] = {}
        self.starred = False  # some box or diamond index was starred

    def take(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, op: str) -> None:
        kind, _, pos = self.take()
        if kind != op:
            raise FormulaSyntaxError(f"expected {op!r}", pos)

    def nested(self, pos: int, parse, *args):
        """Run one nested parse, refusing to pass MAX_NESTING at pos."""
        self.open += 1
        if self.open > MAX_NESTING:
            raise _too_deep(pos)
        out = parse(*args)
        self.open -= 1
        return out

    def height(self, node) -> int:
        built = self.heights.get(id(node))
        if built is not None:
            return built[1]
        if type(node) in (Var, Const, Atom):
            return 0
        kids = (node.body,) if type(node) is _Star else children(node)
        return 1 + max(map(self.height, kids))

    def built(self, pos: int, node):
        """node, built at pos; refused if its tree is higher than MAX_NESTING."""
        height = self.height(node)
        if height > MAX_NESTING:
            raise _too_deep(pos)
        self.heights[id(node)] = node, height
        return node

    def parse(self, tier: str):
        node = self.expr(tier, 0)
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing {text!r}", pos)
        return node

    def expr(self, tier: str, min_level: int):
        """Operands of tier joined by its operators that bind at min_level or tighter."""
        node = self.operand(tier)
        ops = INFIX[tier]
        while (op := ops.get(self.tokens[self.i][0])) and op[1] >= min_level:
            build, level, right = op
            _, _, pos = self.take()
            if right:
                other = self.nested(pos, self.expr, tier, level)
            else:
                other = self.expr(tier, level + 1)
            node = self.built(pos, build(node, other))
        return node

    def operand(self, tier: str):
        """A bracketed or prefix form or a primary; for actions, then postfix + and *."""
        kind, text, pos = self.take()
        if kind == "(":
            node = self.nested(pos, self.expr, tier, 0)
            self.expect(")")
        elif tier == "action":
            if kind != "atom":
                raise FormulaSyntaxError(f"expected an action, found {text or 'end of input'!r}", pos)
            node = Atom(_index(text[1:], pos))
        elif kind == "var":
            return Var(_index(text[1:], pos))
        elif kind == "const":
            return Const(self.constant(text, pos))
        elif kind == "!":
            return self.built(pos, neg(self.nested(pos, self.operand, tier), self.algebra))
        elif kind in ("[", "<"):
            # desugared: [A*]f is [A+]f & f, <A>f is !([A]!f)
            action, starred = self.box_action("]" if kind == "[" else ">")
            body = self.nested(pos, self.operand, tier)
            if kind == "<":
                body = neg(body, self.algebra)
            node = star_box(action, body) if starred else Box(action, body)
            return self.built(pos, node if kind == "[" else neg(node, self.algebra))
        else:
            raise FormulaSyntaxError(f"expected a formula, found {text or 'end of input'!r}", pos)
        while tier == "action" and self.tokens[self.i][0] in ("+", "*"):
            kind, _, pos = self.take()
            node = self.built(pos, Plus(node) if kind == "+" else _Star(node, pos))
        return node

    def constant(self, name: str, pos: int) -> int:
        A = self.algebra
        if name.isascii() and name.isdigit():
            idx = _index(name, pos)
            if idx >= A.size:
                raise UnknownConstant(f"#{name} is no element of a {A.size}-element algebra")
            return idx
        named = {"bot": A.bottom, "top": A.top, "one": A.one, "zero": A.zero}
        if name in named:
            return named[name]
        if A.names is not None and name in A.names:
            return A.names.index(name)
        raise UnknownConstant(f"#{name} names no element of the ambient algebra")

    def box_action(self, closer: str) -> tuple[ActionExp, bool]:
        raw = self.expr("action", 0)
        self.expect(closer)
        starred = isinstance(raw, _Star)
        if starred:
            raw = raw.body
            self.starred = True
        _reject_inner_star(raw)
        return raw, starred


def parse_formula(text: str, algebra: FLAlgebra) -> Formula:
    """Parse surface syntax to a core formula over the given algebra."""
    parser = _Parser(text, algebra)
    formula = parser.parse("formula")
    if parser.starred and not is_integral(algebra):
        warnings.warn("starred boxes decompose as [A+]f & f, which reads as "
                      "reflexive-transitive closure only over integral algebras", stacklevel=2)
    return formula


def parse_action(text: str) -> ActionExp:
    """Parse a standalone action expression; the star is not allowed here."""
    # actions hold no constants, so no algebra is needed
    raw = _Parser(text, None).parse("action")
    if isinstance(raw, _Star):
        raise FormulaSyntaxError("Kleene star is only allowed inside a box", raw.pos)
    _reject_inner_star(raw)
    return raw
