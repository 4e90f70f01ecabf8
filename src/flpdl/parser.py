"""Concrete syntax for formulas and actions.

Formulas:  variables p0, p1, ...; constants #k (element index) and the
named aliases #bot, #top, #one, #zero (plus algebra element names);
operators !, [A], <A> (tightest), then infix * (fusion), then the
right-associative tier \\, ->, <->, then &, then | (loosest).

Actions: atoms a0, a1, ...; postfix + and * bind tighter than ;, which
binds tighter than u (choice). The Kleene star is surface syntax allowed
only as the outermost operator of a box or diamond index, where [A*]f
becomes [A+]f & f; anywhere deeper it is rejected.

Parsing requires the ambient algebra: constants are resolved and
range-checked against it, and negation desugars to -> #bot.

Nesting, both of the parse and of the syntax tree it builds, is capped at
MAX_NESTING levels, which keeps every recursive walk over a tree well
inside Python's recursion limit; past it parsing stops with a
FormulaSyntaxError at the token that crosses the cap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .algebra import FLAlgebra, is_integral
from .errors import FormulaSyntaxError, UnknownConstant
from .syntax import (ActionExp, And, Atom, Box, Choice, Const, Formula, Fuse,
                     LDiv, Or, Plus, RDiv, Seq, Var, iff, neg, star_box, walk)

_SINGLE_OPS = set("&|*\\!;+[]<>()")
MAX_NESTING = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # var | atom | const | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ("a", "p"):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            # bare "a" and "p" abbreviate a0 and p0
            word = text[i:j] if j > i + 1 else ch + "0"
            out.append(_Token("atom" if ch == "a" else "var", word, i))
            i = j
            continue
        if ch == "u":
            out.append(_Token("op", "u", i))
            i += 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise FormulaSyntaxError("empty constant after '#'", i)
            out.append(_Token("const", text[i + 1:j], i))
            i = j
            continue
        if text.startswith("<->", i):
            out.append(_Token("op", "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            out.append(_Token("op", "->", i))
            i += 2
            continue
        if ch in _SINGLE_OPS:
            out.append(_Token("op", ch, i))
            i += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


@dataclass(frozen=True)
class _Star:
    body: object
    pos: int


def _reject_inner_star(raw) -> None:
    for node in walk(raw, into=(Choice, Seq, Plus)):
        if isinstance(node, _Star):
            raise FormulaSyntaxError("Kleene star is only allowed as the outermost action operator", node.pos)


class _Parser:
    def __init__(self, text: str, algebra: FLAlgebra):
        self.text = text
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0   # nested parses in progress
        self.depth = 0  # syntax-tree depth of what the last parse step returned

    # -- token helpers --

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *texts: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in texts:
            return self.take()
        return None

    def expect_op(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}", tok.pos)
        return tok

    # -- nesting --

    def descend(self, tok: _Token, parse):
        """Run one nested parse, refusing to pass MAX_NESTING at tok."""
        self.open += 1
        if self.open > MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        out = parse()
        self.open -= 1
        return out

    def deeper(self, tok: _Token, node, *depths: int):
        """The node built at tok over subtrees this deep, refused past MAX_NESTING."""
        self.depth = 1 + max(depths)
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        return node

    def joined(self, tok: _Token, left, build, operand):
        """build(left, operand()) for the binary operator at tok."""
        depth = self.depth
        return self.deeper(tok, build(left, operand()), depth, self.depth)

    # -- formulas --

    def formula(self) -> Formula:
        f = self._or()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
        return f

    def _or(self) -> Formula:
        f = self._and()
        while tok := self.accept_op("|"):
            f = self.joined(tok, f, Or, self._and)
        return f

    def _and(self) -> Formula:
        f = self._imp()
        while tok := self.accept_op("&"):
            f = self.joined(tok, f, And, self._imp)
        return f

    def _imp(self) -> Formula:
        f = self._fuse()
        tok = self.accept_op("->", "\\", "<->")
        if tok is None:
            return f
        left = self.depth
        rest = self.descend(tok, self._imp)
        if tok.text == "<->":
            return self.deeper(tok, iff(f, rest), left + 1, self.depth + 1)
        return self.deeper(tok, (RDiv if tok.text == "->" else LDiv)(f, rest), left, self.depth)

    def _fuse(self) -> Formula:
        f = self._unary()
        while tok := self.accept_op("*"):
            f = self.joined(tok, f, Fuse, self._unary)
        return f

    def _unary(self) -> Formula:
        # depths as desugared: !f is f -> #bot, [A*]f is [A+]f & f, <A>f is !([A]!f)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "!":
            self.take()
            return self.deeper(tok, neg(self.descend(tok, self._unary), self.algebra), self.depth)
        if tok.kind == "op" and tok.text == "[":
            self.take()
            action, starred = self._box_action("]")
            over = self.depth
            body = self.descend(tok, self._unary)
            return self.deeper(tok, star_box(action, body) if starred else Box(action, body),
                               over + starred, self.depth + starred)
        if tok.kind == "op" and tok.text == "<":
            self.take()
            action, starred = self._box_action(">")
            over = self.depth
            body = neg(self.descend(tok, self._unary), self.algebra)
            inner = star_box(action, body) if starred else Box(action, body)
            return self.deeper(tok, neg(inner, self.algebra), over + starred + 1, self.depth + starred + 2)
        return self._primary()

    def _primary(self) -> Formula:
        tok = self.take()
        self.depth = 0
        if tok.kind == "var":
            return Var(int(tok.text[1:]))
        if tok.kind == "const":
            return Const(self._resolve_const(tok))
        if tok.kind == "op" and tok.text == "(":
            f = self.descend(tok, self._or)
            self.expect_op(")")
            return f
        raise FormulaSyntaxError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)

    def _resolve_const(self, tok: _Token) -> int:
        name = tok.text
        A = self.algebra
        if name.isdigit():
            idx = int(name)
            if idx >= A.size:
                raise UnknownConstant(f"#{name} is no element of a {A.size}-element algebra")
            return idx
        named = {"bot": A.bottom, "top": A.top, "one": A.one, "zero": A.zero}
        if name in named:
            return named[name]
        if A.names is not None and name in A.names:
            return A.names.index(name)
        raise UnknownConstant(f"#{name} names no element of the ambient algebra")

    # -- actions --

    def _box_action(self, closer: str) -> tuple[ActionExp, bool]:
        raw = self._action_choice()
        self.expect_op(closer)
        starred = False
        if isinstance(raw, _Star):
            raw = raw.body
            starred = True
            if not is_integral(self.algebra):
                warnings.warn(
                    "starred boxes decompose as [A+]f & f, which reads as "
                    "reflexive-transitive closure only over integral algebras",
                    stacklevel=4)
        _reject_inner_star(raw)
        return raw, starred

    def _action_choice(self):
        a = self._action_seq()
        while tok := self.accept_op("u"):
            a = self.joined(tok, a, Choice, self._action_seq)
        return a

    def _action_seq(self):
        a = self._action_post()
        while tok := self.accept_op(";"):
            a = self.joined(tok, a, Seq, self._action_post)
        return a

    def _action_post(self):
        a = self._action_prim()
        while tok := self.accept_op("+", "*"):
            a = self.deeper(tok, Plus(a) if tok.text == "+" else _Star(a, tok.pos), self.depth)
        return a

    def _action_prim(self):
        tok = self.take()
        self.depth = 0
        if tok.kind == "atom":
            return Atom(int(tok.text[1:]))
        if tok.kind == "op" and tok.text == "(":
            a = self.descend(tok, self._action_choice)
            self.expect_op(")")
            return a
        raise FormulaSyntaxError(f"expected an action, found {tok.text or 'end of input'!r}", tok.pos)


def parse_formula(text: str, algebra: FLAlgebra) -> Formula:
    """Parse surface syntax to a core formula over the given algebra."""
    return _Parser(text, algebra).formula()


def parse_action(text: str) -> ActionExp:
    """Parse a standalone action expression; the star is not allowed here."""
    # constants never occur in actions, so any algebra-free parse is fine
    from .algebra import bool2
    p = _Parser(text, bool2())
    raw = p._action_choice()
    tok = p.peek()
    if tok.kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing {tok.text!r}", tok.pos)
    if isinstance(raw, _Star):
        raise FormulaSyntaxError("Kleene star is only allowed inside a box", raw.pos)
    _reject_inner_star(raw)
    return raw
