"""The one evaluator: formula values over a batch of models on n states.

Values have shape (batch, n) and relations (batch, n, n), both of element
indices, and every operation of the semantics is one flat gather: `lookup`
reads `table[a, b]` as entry a * size + b of the flattened table, and
`compose` gathers its fusion terms for a block of middle states at once and
joins them pairwise. Subterms, as `syntax.children` lists them, are walked
iteratively in post-order. Leaves come from two memos the caller seeds,
`memo` for formulas and `relations` for actions; a seeded node is never
looked into, so whole boxes can be seeded as opaque atoms. Unseeded
variables are zero, unseeded atoms the bottom relation, and every subterm
computed is added to its memo for reuse across formulas.

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


_BLOCK = 2 ** 14  # fusion terms per compose gather, and at least one middle state


def lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b], broadcast, by one gather from the flattened square table."""
    return table.ravel().take(a * len(table) + b)


def compose(arrs, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(r;q)(s,t) = join over x of r(s,x) * q(x,t), per batch member.

    The middle states x go in blocks of at most _BLOCK terms r(s,x) * q(x,t)
    in all; each block is joined pairwise, about log2(width) lookups with an
    odd last term folded into the first, and then into the result.
    """
    batch, n = r.shape[:2]
    step = max(1, _BLOCK // (batch * n * n))
    out = None
    for x in range(0, n, step):
        terms = lookup(arrs.fuse, r[:, :, x:x + step, None], q[:, None, x:x + step, :])
        while terms.shape[2] > 1:
            half, odd = divmod(terms.shape[2], 2)
            joined = lookup(arrs.join, terms[:, :, :half], terms[:, :, half:2 * half])
            if odd:
                joined[:, :, 0] = lookup(arrs.join, joined[:, :, 0], terms[:, :, -1])
            terms = joined
        out = terms[:, :, 0] if out is None else lookup(arrs.join, out, terms[:, :, 0])
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
        nxt = lookup(arrs.join, t, compose(arrs, t, t))
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
                out = lookup(arrs.meet, out, lookup(arrs.imp, col, body[:, t, None]))
        else:
            right, left = done.pop(), done.pop()
            out = lookup(getattr(arrs, _TABLES[kind]), left, right)
        table[node] = out
        done.append(out)
    return done.pop()
