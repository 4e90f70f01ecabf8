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

Nodes are hash-consed (Filliatre & Conchon 2006, "Type-safe modular
hash-consing"): a constructor returns the one live node of its type with
those fields, so equality is identity and hashing is `object`'s. The
table holds nodes weakly and no node's death runs Python code: dead
entries go in purges. Hashing, equality, printing and `repr` do not
recurse.
"""

from __future__ import annotations

import gc
import operator
import threading
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .algebra import FLAlgebra

# -- interning ----------------------------------------------------------------

# (type, *fields) -> weak reference to the one node with those fields; a field
# is an interned node or an int, so a lookup hashes and compares no subtree.
# The references carry no callback: a node dies without running Python code,
# and its entry stays until a purge.
_NODES: dict[tuple, weakref.ref] = {}
# held to make a node or to purge; reentrant, since a collection that a
# thread sets off while making a node purges in that thread
_MAKING = threading.RLock()
_PURGE_FLOOR = 4096     # a table this small grows without a purge
_purge_at = _PURGE_FLOOR
_purging = False


def _intern(key: tuple):
    """The one live node for key = (type, *fields), made and registered on a miss."""
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        with _MAKING:   # two threads making one node must make one object
            ref = _NODES.get(key)
            node = ref and ref()
            if node is None:
                node = object.__new__(key[0])
                node.__dict__.update(zip(key[0]._fields, key[1:]))
                # only once whole: lookups take no lock
                _NODES[key] = weakref.ref(node)
                if len(_NODES) > _purge_at:
                    _purge()
    return node


def _purge() -> None:
    """Drop the entries of dead nodes; purge next when the table has doubled.

    A key holds its fields, so a dead parent's entry keeps its children
    alive until it goes. Parents are registered after their children, so
    one pass from the newest entry to the oldest drops every node that dies,
    those its own deletions kill included. A purge that a collection sets
    off during a purge, or while another thread makes a node, does nothing.
    """
    global _purge_at, _purging
    if _purging or not _MAKING.acquire(blocking=False):
        return
    _purging = True
    try:
        keys = list(_NODES)
        while keys:
            key = keys.pop()    # the last reference to a dead parent's key goes here
            if _NODES[key]() is None:
                del _NODES[key]
        _purge_at = max(2 * len(_NODES), _PURGE_FLOOR)
    finally:
        _purging = False
        _MAKING.release()


def _collected(phase: str, info: dict) -> None:
    """After a full collection, which frees nodes held in reference cycles, purge."""
    if phase == "stop" and info["generation"] == 2:
        _purge()


gc.callbacks.append(_collected)


class _Interned:
    """Base of every node type: one object per (type, fields), made once.

    Subclasses are frozen, identity-compared dataclasses without an
    `__init__`: `__new__`, which names the fields, returns the live node or
    makes and registers a new one, so a call never writes to a node that
    exists. Keyword calls, as `dataclasses.replace` makes, and `pickle` and
    `copy` return it too.
    """

    _fields = ()    # the field names, in order, set per subclass

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        """The dataclass repr, `And(left=Var(index=0), right=...)`, without recursion."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            out.append(f"{type(item).__qualname__}(")
            stack.append(")")
            for i, name in reversed(list(enumerate(item._fields))):
                value = getattr(item, name)
                stack += [value if isinstance(value, _Interned) else repr(value),
                          f"{', ' if i else ''}{name}="]
        return "".join(out)


class _Leaf(_Interned):
    """A node with one integer index, normalised by `operator.index`."""

    def __new__(cls, index):
        return _intern((cls, operator.index(index)))


class _Pair(_Interned):
    """A node with two subterms, left and right."""

    def __new__(cls, left, right):
        return _intern((cls, left, right))


_node = dataclass(frozen=True, eq=False, init=False, repr=False)

# -- action expressions ----------------------------------------------------


@_node
class Atom(_Leaf):
    index: int


@_node
class Choice(_Pair):
    left: "ActionExp"
    right: "ActionExp"


@_node
class Seq(_Pair):
    left: "ActionExp"
    right: "ActionExp"


@_node
class Plus(_Interned):
    body: "ActionExp"

    def __new__(cls, body):
        return _intern((cls, body))


ActionExp = Union[Atom, Choice, Seq, Plus]


# -- formulas ---------------------------------------------------------------


@_node
class Var(_Leaf):
    index: int


@_node
class Const(_Leaf):
    index: int


@_node
class And(_Pair):
    left: "Formula"
    right: "Formula"


@_node
class Or(_Pair):
    left: "Formula"
    right: "Formula"


@_node
class Fuse(_Pair):
    left: "Formula"
    right: "Formula"


@_node
class LDiv(_Pair):
    # written left \ right
    left: "Formula"
    right: "Formula"


@_node
class RDiv(_Pair):
    # written left -> right; value is right / left
    left: "Formula"
    right: "Formula"


@_node
class Box(_Interned):
    action: ActionExp
    body: "Formula"

    def __new__(cls, action, body):
        return _intern((cls, action, body))


Formula = Union[Var, Const, And, Or, Fuse, LDiv, RDiv, Box]
Node = Union[Formula, ActionExp]

_BINARY = (And, Or, Fuse, LDiv, RDiv)
ACTIONS = (Atom, Choice, Seq, Plus)

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


def require_formula(*nodes) -> None:
    """TypeError naming the first of the nodes that is no formula."""
    for node in nodes:
        if type(node) in ACTIONS or type(node) not in _KIDS:
            raise TypeError(f"not a formula: {node!r}")


def walk(root: Node) -> list[Node]:
    """Every node reachable from root, once, in first-visit pre-order.

    Depth-first and left to right, without recursion. Nodes are
    interned, so equal subtrees are one node, entered once.
    """
    seen: dict[Node, None] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen[node] = None
        stack += children(node)[::-1]
    return list(seen)


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
    return _fmt(f)


def format_action(a: ActionExp) -> str:
    """Render an action with minimal parentheses; parses back to a."""
    return _fmt(a)


def _fmt(root: Node) -> str:
    """The text of root, left to right from a stack of pieces: literal text,
    and (node, level) for a node printed where operators below level bind."""
    out, stack = [], [(root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        kind = type(node)
        if kind in _LEAVES:
            out.append(f"{_LEAVES[kind]}{node.index}")
        elif kind is Box:
            out.append("[")
            stack += [(node.body, _TIGHT), "]", (node.action, 0)]
        elif kind is Plus:
            stack += ["+", (node.body, _TIGHT)]
        elif kind in _PRINTED:
            symbol, own, right = _PRINTED[kind]
            if level > own:
                out.append("(")
                stack.append(")")
            stack += [(node.right, own + 1 - right), f" {symbol} ", (node.left, own + right)]
        else:
            raise TypeError(f"not a formula or action: {node!r}")
    return "".join(out)


# -- structural walks --------------------------------------------------------


def subformulas(f: Formula) -> list[Formula]:
    """f and all formulas below it, in first-visit order, no duplicates."""
    return [g for g in walk(f) if not isinstance(g, ACTIONS)]


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
    return list(iter_closure(formulas))


def iter_closure(formulas: Iterable[Formula]) -> Iterator[Formula]:
    """`closure_of`'s formulas in its order, each made only when the one before is taken.

    The closure of k nested `+` has 2 ** (k + 1) formulas, so a caller that
    needs only a few of them stops early.
    """
    seen: set[Formula] = set()
    work = list(formulas)
    while work:
        f = work.pop()
        if f in seen:
            continue
        seen.add(f)
        yield f
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
