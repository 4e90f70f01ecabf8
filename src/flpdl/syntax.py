"""Formula and action syntax trees, printing, and closure computation.

Core formula constructors: variables, element constants, meet, join,
fusion, the two divisions, and box. Everything else (negation, diamond,
iff, starred boxes) is surface syntax the parser desugars:

    !f         f -> #bot
    <A>f       !([A]!f)
    f <-> g    (f -> g) & (g -> f)
    [A*]f      [A+]f & f

RDiv(f, g) is the formula written f -> g, whose value is g / f.

A node's direct subterms are defined once, by `children`; traversals go
through the iterative `walk`. The binding levels of the infix operators
are defined once, by `INFIX`, which the parser and the printer both read.
Printing, hashing and equality still recurse, hence the parser's nesting
cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .algebra import FLAlgebra

# -- action expressions ----------------------------------------------------


@dataclass(frozen=True)
class Atom:
    index: int


@dataclass(frozen=True)
class Choice:
    left: "ActionExp"
    right: "ActionExp"


@dataclass(frozen=True)
class Seq:
    left: "ActionExp"
    right: "ActionExp"


@dataclass(frozen=True)
class Plus:
    body: "ActionExp"


ActionExp = Union[Atom, Choice, Seq, Plus]


# -- formulas ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    index: int


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Fuse:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class LDiv:
    # written left \ right
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class RDiv:
    # written left -> right; value is right / left
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    action: ActionExp
    body: "Formula"


Formula = Union[Var, Const, And, Or, Fuse, LDiv, RDiv, Box]
Node = Union[Formula, ActionExp]

_BINARY = (And, Or, Fuse, LDiv, RDiv)
_ACTIONS = (Atom, Choice, Seq, Plus)

# each node type's direct subterms, in field order
_KIDS = {**dict.fromkeys((Var, Const, Atom), lambda n: ()),
         Plus: lambda n: (n.body,), Box: lambda n: (n.action, n.body),
         **dict.fromkeys((Choice, Seq) + _BINARY, lambda n: (n.left, n.right))}


def children(node: Node) -> tuple[Node, ...]:
    """The direct subterms of a formula or action node, left to right."""
    kids = _KIDS.get(type(node))
    if kids is None:
        raise TypeError(f"not a formula or action: {node!r}")
    return kids(node)


def walk(root: Node, into: tuple[type, ...] | None = None) -> list[Node]:
    """Every node object reachable from root, once, in first-visit pre-order.

    Depth-first and left to right, without recursion. Only nodes of the
    types in `into` (default: all) are entered, their children visited.
    A shared object is entered once; equal subtrees that are distinct
    objects are each visited, and nothing is hashed, since hashing a node
    hashes its whole subtree.
    """
    seen: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if into is None or isinstance(node, into):
            stack += children(node)[::-1]
    return list(seen.values())


def neg(f: Formula, algebra: FLAlgebra) -> Formula:
    """!f, i.e. f -> bottom."""
    return RDiv(f, Const(algebra.bottom))


def diamond(action: ActionExp, f: Formula, algebra: FLAlgebra) -> Formula:
    return neg(Box(action, neg(f, algebra)), algebra)


def iff(f: Formula, g: Formula) -> Formula:
    """f <-> g, i.e. (f -> g) & (g -> f)."""
    return And(RDiv(f, g), RDiv(g, f))


def star_box(action: ActionExp, f: Formula) -> Formula:
    """[A*]f as [A+]f & f."""
    return And(Box(Plus(action), f), f)


# -- operators and printing -------------------------------------------------

# The only statement of precedence, read by the parser and by the printer:
# for each tier, symbol -> (builder, binding level, 1 if the operator groups
# to the right). Prefix ! [A] <A> and postfix + and * bind tighter than any
# level; <-> is sugar and is never printed.
INFIX = {
    "formula": {"|": (Or, 0, 0), "&": (And, 1, 0), "->": (RDiv, 2, 1), "\\": (LDiv, 2, 1),
                "<->": (iff, 2, 1), "*": (Fuse, 3, 0)},
    "action": {"u": (Choice, 0, 0), ";": (Seq, 1, 0)},
}
_TIGHT = 4  # a level above every INFIX level: operands of prefix and postfix forms

_PRINTED = {build: (symbol, level, right) for tier in INFIX.values()
            for symbol, (build, level, right) in tier.items() if isinstance(build, type)}
_LEAVES = {Var: "p", Const: "#", Atom: "a"}


def format_formula(f: Formula) -> str:
    """Render core syntax with minimal parentheses; parses back to f."""
    return _fmt(f, 0)


def format_action(a: ActionExp) -> str:
    """Render an action with minimal parentheses; parses back to a."""
    return _fmt(a, 0)


def _fmt(node: Node, level: int) -> str:
    kind = type(node)
    if kind in _LEAVES:
        return f"{_LEAVES[kind]}{node.index}"
    if kind is Box:
        return f"[{_fmt(node.action, 0)}]{_fmt(node.body, _TIGHT)}"
    if kind is Plus:
        return f"{_fmt(node.body, _TIGHT)}+"
    if kind not in _PRINTED:
        raise TypeError(f"not a formula or action: {node!r}")
    symbol, own, right = _PRINTED[kind]
    text = f"{_fmt(node.left, own + right)} {symbol} {_fmt(node.right, own + 1 - right)}"
    return f"({text})" if level > own else text


# -- structural walks --------------------------------------------------------


def subformulas(f: Formula) -> list[Formula]:
    """f and all formulas below it, in first-visit order, no duplicates."""
    return list(dict.fromkeys(g for g in walk(f) if not isinstance(g, _ACTIONS)))


def action_atoms(f: Formula | ActionExp) -> list[int]:
    """Sorted indices of action atoms occurring anywhere in a formula or action."""
    return sorted({g.index for g in walk(f) if isinstance(g, Atom)})


def variables(f: Formula) -> list[int]:
    """Sorted indices of propositional variables occurring in f."""
    return sorted({g.index for g in walk(f) if isinstance(g, Var)})


def closure_of(formulas: Iterable[Formula]) -> list[Formula]:
    """Least closed set containing the seeds, in deterministic order.

    Closed means: closed under subformulas, and every boxed formula
    unfolds its action one step -- [A u B]f adds [A]f and [B]f;
    [A ; B]f adds [A][B]f; [A+]f adds [A][A+]f and [A]f.
    """
    out: dict[Formula, None] = {}
    work = list(formulas)
    while work:
        f = work.pop()
        if f in out:
            continue
        out[f] = None
        if isinstance(f, _BINARY):
            work.append(f.left)
            work.append(f.right)
        elif isinstance(f, Box):
            work.append(f.body)
            a = f.action
            if isinstance(a, Choice):
                work.append(Box(a.left, f.body))
                work.append(Box(a.right, f.body))
            elif isinstance(a, Seq):
                work.append(Box(a.left, Box(a.right, f.body)))
            elif isinstance(a, Plus):
                work.append(Box(a.body, f))
                work.append(Box(a.body, f.body))
    return list(out)


def is_closed(formulas: Iterable[Formula]) -> bool:
    """Independent check of the closure conditions on a formula list."""
    have = set(formulas)
    for f in have:
        if isinstance(f, _BINARY):
            if f.left not in have or f.right not in have:
                return False
        elif isinstance(f, Box):
            if f.body not in have:
                return False
            a = f.action
            if isinstance(a, Choice):
                if Box(a.left, f.body) not in have or Box(a.right, f.body) not in have:
                    return False
            elif isinstance(a, Seq):
                if Box(a.left, Box(a.right, f.body)) not in have:
                    return False
            elif isinstance(a, Plus):
                if Box(a.body, f) not in have or Box(a.body, f.body) not in have:
                    return False
    return True
