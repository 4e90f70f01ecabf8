"""The one evaluator: formula values over a batch of models on n states.

Values have shape (batch, n) and relations (batch, n, n), both of element
indices, and every operation of the semantics is a table lookup. Subterms,
as `syntax.children` lists them, are walked iteratively in post-order.
Leaves come from two memos the caller seeds, `memo` for formulas and
`relations` for actions; a seeded node is never looked into, so whole boxes
can be seeded as opaque atoms. Unseeded variables are zero, unseeded atoms
the bottom relation, and every subterm computed is added to its memo for
reuse across formulas.

Models that share a frame can share its relations: given `frame_of`, an
index array mapping each batch member to a row of the relations, relations
hold one row per frame while values hold one row per batch member, and a
box gathers column t of its action as `rel[frame_of, :, t]`. No relation is
copied per batch member. Actions then keep the frames' batch through
composition and closure, so every atom they mention must be seeded.
"""

from __future__ import annotations

import numpy as np

from .algebra import FLAlgebra
from .errors import DimensionMismatch
from .syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus, RDiv,
                     Seq, Var, children)


def compose(arrs, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(r;q)(s,t) = join over x of r(s,x) * q(x,t), per batch member."""
    out = None
    for x in range(r.shape[1]):
        term = arrs.fuse[r[:, :, x][:, :, None], q[:, x, :][:, None, :]]
        out = term if out is None else arrs.join[out, term]
    return out


def closure(algebra: FLAlgebra, r: np.ndarray) -> np.ndarray:
    """Least transitive relation above r, by repeated squaring T <- T u T;T from r.

    Fusion distributes over finite joins, so `;` is associative and
    distributes over `u`; after round i, T is the join of r^k over
    1 <= k <= 2^i, every walk of at most 2^i steps. A fixpoint has
    T;T <= T and T >= r and never exceeds the join of all r^k, so it is the
    least transitive relation above r, reached in about log2(n) rounds on
    relations whose walks stop improving past n steps.
    """
    arrs = algebra.arrays
    t = r
    # T only climbs, and each of the n^2 entries can strictly climb at most |X|-1 times
    for _ in range(r.shape[1] ** 2 * algebra.size + 1):
        nxt = arrs.join[t, compose(arrs, t, t)]
        if np.array_equal(nxt, t):
            return t
        t = nxt
    raise AssertionError("transitive closure failed to stabilize")


def digits(indices: np.ndarray, size: int, count: int) -> np.ndarray:
    """(len(indices), count) digits of each index in base `size`, most significant first."""
    out = np.empty((count, len(indices)), dtype=np.int64)
    for d in range(count - 1, -1, -1):
        indices, out[d] = np.divmod(indices, size)
    return out.T


def decode(indices: np.ndarray, size: int, n: int, vars_) -> dict:
    """Formula seeds {leaf: (block, n)} for a block of valuation indices.

    Digits in base `size`, most significant first, fill the row of each
    of `vars_` in turn: variables, or any subterms seeded as opaque leaves.
    """
    d = digits(indices, size, len(vars_) * n)
    return {p: d[:, i * n:(i + 1) * n] for i, p in enumerate(vars_)}


_TABLES = {And: "meet", Or: "join", Fuse: "fuse", LDiv: "ldiv", RDiv: "imp", Choice: "join"}


def evaluate(root, algebra: FLAlgebra, memo: dict, relations: dict,
             batch: int, n: int, frame_of: np.ndarray | None = None) -> np.ndarray:
    """Value of a formula, or relation of an action, over the whole batch.

    `frame_of`, if given, maps batch members to rows of the relations.
    """
    arrs = algebra.arrays
    # post-order: a node is expanded, then applied to its children's results on `done`
    stack, done = [(root, False)], []
    while stack:
        node, expanded = stack.pop()
        kind = type(node)
        table = relations if kind in (Atom, Choice, Seq, Plus) else memo
        if not expanded:
            hit = table.get(node)
            if hit is not None:
                done.append(hit)
                continue
            kids = children(node)
            if kids:
                stack.append((node, True))
                stack.extend([(k, False) for k in reversed(kids)])
                continue
        if kind is Var:
            out = np.full((batch, n), algebra.zero, dtype=np.int64)
        elif kind is Const:
            if not (0 <= node.index < algebra.size):
                raise DimensionMismatch(f"constant #{node.index} is no element index")
            out = np.full((batch, n), node.index, dtype=np.int64)
        elif kind is Atom:
            out = np.full((batch, n, n), algebra.bottom, dtype=np.int64)
        elif kind is Plus:
            out = closure(algebra, done.pop())
        elif kind is Seq:
            right, left = done.pop(), done.pop()
            out = compose(arrs, left, right)
        elif kind is Box:
            body, rel = done.pop(), done.pop()
            out = np.full((batch, n), algebra.top, dtype=np.int64)
            for t in range(n):
                col = rel[:, :, t] if frame_of is None else np.take(rel[:, :, t], frame_of, axis=0)
                out = arrs.meet[out, arrs.imp[col, body[:, t, None]]]
        else:
            right, left = done.pop(), done.pop()
            out = getattr(arrs, _TABLES[kind])[left, right]
        table[node] = out
        done.append(out)
    return done.pop()
