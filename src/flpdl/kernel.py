"""The one evaluator: formula values over a batch of models on n states.

Values have shape (batch, n) and relations (batch, n, n), both of element
indices, and every operation of the semantics is a table lookup. Subterms,
as `syntax.children` lists them, are walked iteratively in post-order.
Leaves come from two memos the caller seeds, `memo` for formulas and
`relations` for actions; a seeded node is never looked into, so whole boxes
can be seeded as opaque atoms. Unseeded variables are zero, unseeded atoms
the bottom relation, and every subterm computed is added to its memo for
reuse across formulas.
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


def decode(indices: np.ndarray, size: int, n: int, atoms, vars_):
    """Seeds for a block of candidate indices: ({atom: (block, n, n)}, {var: (block, n)}).

    Digits in base `size`, most significant first, fill each atom's matrix
    row by row, then each variable's row.
    """
    block = len(indices)
    digits = np.empty((len(atoms) * n * n + len(vars_) * n, block), dtype=np.int64)
    for d in range(len(digits) - 1, -1, -1):
        indices, digits[d] = np.divmod(indices, size)
    rels = {a: digits[i * n * n:(i + 1) * n * n].T.reshape(block, n, n)
            for i, a in enumerate(atoms)}
    digits = digits[len(atoms) * n * n:]
    return rels, {p: digits[i * n:(i + 1) * n].T for i, p in enumerate(vars_)}


_TABLES = {And: "meet", Or: "join", Fuse: "fuse", LDiv: "ldiv", RDiv: "imp", Choice: "join"}


def evaluate(root, algebra: FLAlgebra, memo: dict, relations: dict,
             batch: int, n: int) -> np.ndarray:
    """Value of a formula, or relation of an action, over the whole batch."""
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
                out = arrs.meet[out, arrs.imp[rel[:, :, t], body[:, t, None]]]
        else:
            right, left = done.pop(), done.pop()
            out = getattr(arrs, _TABLES[kind])[left, right]
        table[node] = out
        done.append(out)
    return done.pop()
