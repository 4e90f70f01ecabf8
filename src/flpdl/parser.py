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
tokens, and one loop reads them left to right and builds bottom-up on an
explicit stack of the forms still open (Dijkstra's shunting yard, 1961):
an operator is reduced once the one after its right operand binds more
loosely, or as tightly if it groups to the left. The loop reads
`syntax.INFIX` for both tiers, so the binding levels are stated only
there, and it does not recurse.

Parsing requires the ambient algebra: constants are resolved and
range-checked against it, and negation desugars to -> #bot.

Nesting is capped at MAX_NESTING levels, counted twice: nested parses
(bracketed text, prefix bodies and right operands of right-grouping
operators) and the height of every node built, desugared forms included,
which the stack carries beside each node. Parsing, printing, hashing,
equality and the reference evaluator do not recurse; the cap stays because
the pinned parse outcomes and the bench's cli inputs are built around it.
Past the cap parsing stops with a FormulaSyntaxError at the token that
crosses it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .algebra import FLAlgebra, is_integral
from .errors import FormulaSyntaxError, UnknownConstant
from .syntax import INFIX, ActionExp, Atom, Box, Const, Formula, Plus, Var, iff, neg, star_box

MAX_NESTING = 64

# a variable, an atom, a constant, an operator, or any other non-space
# character, which is refused; what lies between two tokens is whitespace
_TOKEN = re.compile(r"(p[0-9]*|a[0-9]*|#\w*|<->|->|[u&|*\\!;+\[\]<>()]|\S)")
_OPERATORS = frozenset(("<->", "->", *"u&|*\\!;+[]<>()"))
_NAMED = {"p": "var", "a": "atom"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text)).

    An operator's kind is its own text; the others are var, atom and const.
    """
    parts = _TOKEN.split(text)  # whitespace, token, whitespace, ..., token, whitespace
    tokens = []
    pos = len(parts[0])
    for k in range(1, len(parts), 2):
        word = parts[k]
        if word[0] in _NAMED:   # bare "a" and "p" abbreviate a0 and p0
            tokens.append((_NAMED[word[0]], word if len(word) > 1 else word + "0", pos))
        elif word[0] == "#":
            if len(word) == 1:
                raise FormulaSyntaxError("empty constant after '#'", pos)
            tokens.append(("const", word[1:], pos))
        elif word in _OPERATORS:
            tokens.append((word, word, pos))
        else:
            raise FormulaSyntaxError(f"unexpected character {word!r}", pos)
        pos += len(word) + len(parts[k + 1])
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
    """A starred action, body*, with its star at pos."""
    body: object
    pos: int


@dataclass(frozen=True)
class _Inner:
    """An action with a star below its top, the first in pre-order at pos."""
    pos: int


_STARS = (_Star, _Inner)    # the actions that hold a star: never built as nodes
_PREFIX = ("!", "[]", "[*]", "<>", "<*>")   # the stack forms awaiting one operand
_CLOSER = {"(": ")", "[": "]", "<": ">"}


def _constant(A: FLAlgebra, name: str, pos: int) -> int:
    if name.isascii() and name.isdigit():
        idx = _index(name, pos)
        if idx >= A.size:
            raise UnknownConstant(f"#{name} is no element of a {A.size}-element algebra", pos)
        return idx
    named = {"bot": A.bottom, "top": A.top, "one": A.one, "zero": A.zero}
    if name in named:
        return named[name]
    if A.names is not None and name in A.names:
        return A.names.index(name)
    raise UnknownConstant(f"#{name} names no element of the ambient algebra", pos)


def _parse(text: str, algebra: FLAlgebra | None, tier: str) -> tuple[object, bool]:
    """The tree of text in tier, and whether some box or diamond index was starred.

    The stack holds the forms still open, innermost last, as (form, position,
    node, height): a bracket "("; a box or diamond "[" or "<" whose index is
    being read; a prefix form "!", "[]", "[*]", "<>" or "<*>" awaiting its
    operand, with its index, starred or not; or an infix operator awaiting
    its right operand, with its left. An operand, once whole, closes the
    prefix forms it completes, and the next token reduces the operators
    that bind at least as tightly as it does: the trees, error positions and
    order of errors are those of precedence climbing.
    """
    tokens = _tokenize(text)
    ops = INFIX[tier]
    stack = []
    i = opened = 0      # the next token; the nested parses in progress
    starred = False
    while True:
        if opened > MAX_NESTING:    # the form pushed last opened one parse too many
            raise _too_deep(stack[-1][1])
        # an operand, after any brackets and prefix forms before it
        kind, word, pos = tokens[i]
        i += 1
        if kind == "(" or kind == "!" and tier == "formula":
            opened += 1
            stack.append((kind, pos, None, 0))
            continue
        if tier == "action":
            if kind != "atom":
                raise FormulaSyntaxError(f"expected an action, found {word or 'end of input'!r}", pos)
            node = Atom(_index(word[1:], pos))
        elif kind == "var":
            node = Var(_index(word[1:], pos))
        elif kind == "const":
            node = Const(_constant(algebra, word, pos))
        elif kind == "[" or kind == "<":
            stack.append((kind, pos, None, 0))
            tier, ops = "action", INFIX["action"]
            continue
        else:
            raise FormulaSyntaxError(f"expected a formula, found {word or 'end of input'!r}", pos)
        height = 0
        while True:     # node is a whole operand of height `height`
            if tier == "action":    # postfix + and *
                while tokens[i][0] in ("+", "*"):
                    kind, _, pos = tokens[i]
                    i += 1
                    height += 1
                    if height > MAX_NESTING:
                        raise _too_deep(pos)
                    if kind == "*":
                        node = _Star(node, pos)
                    else:
                        node = _Inner(node.pos) if type(node) in _STARS else Plus(node)
            else:   # the prefix forms node completes
                while stack and stack[-1][0] in _PREFIX:
                    form, start, action, below = stack.pop()
                    opened -= 1
                    if form == "!":
                        node, height = neg(node, algebra), height + 1
                    else:   # [A*]f is [A+]f & f, <A>f is !([A]!f)
                        star, diamond = form[1] == "*", form[0] == "<"
                        body = neg(node, algebra) if diamond else node
                        node = star_box(action, body) if star else Box(action, body)
                        node = neg(node, algebra) if diamond else node
                        height = max(below + star, height + diamond) + 1 + star + diamond
                    if height > MAX_NESTING:
                        raise _too_deep(start)
            kind, word, pos = tokens[i]
            op = ops.get(kind)
            level = op[1] if op else -1
            while stack and (top := ops.get(stack[-1][0])) and (
                    top[1] > level or top[1] == level and not top[2]):
                build, _, right = top
                _, start, left, below = stack.pop()
                opened -= right
                if type(left) in _STARS or type(node) in _STARS:
                    node = _Inner(left.pos if type(left) in _STARS else node.pos)
                else:
                    node = build(left, node)
                height = max(below, height) + (2 if build is iff else 1)
                if height > MAX_NESTING:
                    raise _too_deep(start)
            if op:
                i += 1
                opened += op[2]     # a right-grouping operator's right operand nests
                stack.append((kind, pos, node, height))
                break
            # the next token ends a bracket, a box or diamond index, or the text
            if not stack:
                if kind != "end":
                    raise FormulaSyntaxError(f"unexpected trailing {word!r}", pos)
                return node, starred
            form, start, _, _ = stack.pop()
            i += 1
            closer = _CLOSER[form]
            if kind != closer:
                raise FormulaSyntaxError(f"expected {closer!r}", pos)
            if form == "(":
                opened -= 1
                continue    # the bracketed text is a whole operand
            if type(node) is _Star:
                node, height, starred, form = node.body, height - 1, True, form + "*"
            if type(node) in _STARS:
                raise FormulaSyntaxError("Kleene star is only allowed as the outermost action operator",
                                         node.pos)
            opened += 1
            stack.append((form + closer, start, node, height))
            tier, ops = "formula", INFIX["formula"]
            break


def parse_formula(text: str, algebra: FLAlgebra) -> Formula:
    """Parse surface syntax to a core formula over the given algebra."""
    formula, starred = _parse(text, algebra, "formula")
    if starred and not is_integral(algebra):
        warnings.warn("starred boxes decompose as [A+]f & f, which reads as "
                      "reflexive-transitive closure only over integral algebras", stacklevel=2)
    return formula


def parse_action(text: str) -> ActionExp:
    """Parse a standalone action expression; the star is not allowed here."""
    # actions hold no constants, so no algebra is needed
    action, _ = _parse(text, None, "action")
    if type(action) is _Star:
        raise FormulaSyntaxError("Kleene star is only allowed inside a box", action.pos)
    if type(action) is _Inner:
        raise FormulaSyntaxError("Kleene star is only allowed as the outermost action operator",
                                 action.pos)
    return action
