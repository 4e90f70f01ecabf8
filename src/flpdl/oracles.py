"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the main evaluation path, `kernel`. Both
checkers run on one post-order walk, `_post_order`, which evaluates each
distinct subterm once, at any depth: the reference evaluator applies the
definitions one scalar lookup at a time, the classical checker works on
sets. The closure oracles work by brute-force candidate enumeration and by
cheapest walks with plain capped addition. Slow on purpose; correctness
over speed.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .algebra import FLAlgebra
from .relations import XRelation
from .semantics import Model
from .syntax import (ActionExp, And, Atom, Box, Choice, Const, Formula, Fuse,
                     LDiv, Or, Plus, RDiv, Seq, Var)


# -- one post-order walk for both checkers ----------------------------------------

def _parts(node, action: bool) -> tuple:
    """The subterms a node's meaning reads, each with whether it is an action."""
    if action:
        if isinstance(node, Atom):
            return ()
        if isinstance(node, (Choice, Seq)):
            return (node.left, True), (node.right, True)
        if isinstance(node, Plus):
            return ((node.body, True),)
        raise TypeError(f"not an action expression: {node!r}")
    if isinstance(node, (Var, Const)):
        return ()
    if isinstance(node, Box):
        return (node.action, True), (node.body, False)
    if isinstance(node, (And, Or, Fuse, LDiv, RDiv)):
        return (node.left, False), (node.right, False)
    raise TypeError(f"not a formula: {node!r}")


def _post_order(root: tuple, meaning):
    """meaning(node, meanings of its parts) for root, a (node, is action) pair:
    each distinct subterm once, in post-order on an explicit stack."""
    done: dict = {}     # (node, is action) -> its meaning
    stack = [root]
    while stack:
        key = stack[-1]
        needed = _parts(*key)
        missing = [part for part in needed if part not in done]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        if key not in done:     # a subterm can wait on the stack twice
            done[key] = meaning(key[0], [done[part] for part in needed])
    return done[root]


# -- the definitional evaluator --------------------------------------------------

def reference_values(model: Model, formula: Formula) -> tuple[int, ...]:
    """Value of the formula at every state, read off the definitions.

    Scalar operations state by state; [A]f at s is the meet over t of
    R_A(s,t) => f(t); u joins, ; composes (join over x of R(s,x) * Q(x,t)),
    and + iterates T <- R u T;R to its fixpoint. Unmapped atoms are bottom.
    """
    A = model.algebra
    states = range(model.frame.size)
    ops = {And: A.meet, Or: A.join, Fuse: A.fuse, LDiv: A.ldiv, RDiv: A.imp}

    def union(r, q):
        return tuple(tuple(A.join(a, b) for a, b in zip(rs, qs)) for rs, qs in zip(r, q))

    def compose(r, q):
        return tuple(tuple(reduce(A.join, (A.fuse(r[s][x], q[x][t]) for x in states), A.bottom)
                           for t in states) for s in states)

    def meaning(node, got):
        """A node's relation or value row, from those of its parts."""
        if isinstance(node, Atom):
            rel = model.frame.atomic.get(node.index)
            return rel.values if rel is not None else ((A.bottom,) * len(states),) * len(states)
        if isinstance(node, Choice):
            return union(*got)
        if isinstance(node, Seq):
            return compose(*got)
        if isinstance(node, Plus):
            r = t = got[0]
            while (nxt := union(r, compose(t, r))) != t:
                t = nxt
            return t
        if isinstance(node, Var):
            return model.var_row(node.index)
        if isinstance(node, Const):
            return (node.index,) * len(states)
        if isinstance(node, Box):
            rel, body = got
            return tuple(reduce(A.meet, (A.imp(rel[s][t], body[t]) for t in states), A.top)
                         for s in states)
        return tuple(map(ops[type(node)], *got))

    return _post_order((formula, False), meaning)


# -- two-valued reference checker ---------------------------------------------

class ClassicalModel:
    """Set-based Kripke model: relations are sets of pairs, valuation sets of states."""

    def __init__(self, size: int, relations: dict[int, set[tuple[int, int]]],
                 valuation: dict[int, set[int]]):
        self.size = size
        self.relations = relations
        self.valuation = valuation

    @classmethod
    def from_model(cls, model: Model) -> "ClassicalModel":
        if model.algebra.size != 2:
            raise ValueError("classical reading needs the two-element algebra")
        rels = {idx: {(s, t) for s in range(rel.size) for t in range(rel.size)
                      if rel.get(s, t) == 1}
                for idx, rel in model.frame.atomic.items()}
        vals = {p: {s for s, v in enumerate(row) if v == 1}
                for p, row in model.valuation.items()}
        return cls(model.frame.size, rels, vals)


def _classical(m: ClassicalModel, root: tuple) -> set:
    """The states where a formula holds, or the pairs of an action's relation."""
    everything = set(range(m.size))

    def meaning(node, got):
        if isinstance(node, Atom):
            return m.relations.get(node.index, set())
        if isinstance(node, (Choice, Or)):
            return got[0] | got[1]
        if isinstance(node, Seq):
            return {(s, u) for (s, t) in got[0] for (t2, u) in got[1] if t == t2}
        if isinstance(node, Plus):
            rel = set(got[0])
            while not (step := {(s, u) for (s, t) in rel for (t2, u) in rel if t == t2}) <= rel:
                rel |= step
            return rel
        if isinstance(node, Var):
            return set(m.valuation.get(node.index, set()))
        if isinstance(node, Const):
            return everything if node.index == 1 else set()
        if isinstance(node, (And, Fuse)):
            return got[0] & got[1]
        if isinstance(node, (LDiv, RDiv)):
            return (everything - got[0]) | got[1]
        return everything - {s for (s, t) in got[0] if t not in got[1]}     # a Box

    return _post_order(root, meaning)


def classical_states(m: ClassicalModel, formula: Formula) -> set[int]:
    """States where the formula is classically true."""
    return _classical(m, (formula, False))


def classical_reachable(m: ClassicalModel, action: ActionExp, start: int) -> set[int]:
    """Start state plus everything reachable through the action's relation."""
    rel = _classical(m, (action, True))
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for (s2, t) in rel:
            if s2 == s and t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


# -- brute-force closure oracles ------------------------------------------------

def all_relation_tables(size: int, states: int) -> np.ndarray:
    """Every states x states table over element indices, in lexicographic order."""
    count = size ** (states * states)
    indices = np.arange(count, dtype=np.int64)
    digits = np.empty((states * states, count), dtype=np.int64)
    rem = indices
    for d in range(states * states - 1, -1, -1):
        rem, digits[d] = np.divmod(rem, size)
    return digits.T.reshape(count, states, states)


def transitive_mask(algebra: FLAlgebra, tables: np.ndarray) -> np.ndarray:
    """Which candidate tables satisfy fuse(Q(s,t), Q(t,u)) below Q(s,u) everywhere."""
    arrs = algebra.arrays
    two_step = arrs.fuse[tables[:, :, :, None], tables[:, None, :, :]]
    return arrs.leq[two_step, tables[:, :, None, :]].all(axis=(1, 2, 3))


def least_transitive_extension(algebra: FLAlgebra, rel: XRelation,
                               transitive_tables: np.ndarray) -> np.ndarray | None:
    """The unique transitive extension below all others, or None if absent.

    transitive_tables must be the full candidate set already filtered by
    transitive_mask for this state count.
    """
    arrs = algebra.arrays
    r = rel.matrix
    ext = transitive_tables[arrs.leq[r[None], transitive_tables].all(axis=(1, 2))]
    if len(ext) == 0:
        return None
    for i in range(len(ext)):
        cand = ext[i]
        if arrs.leq[cand[None], ext].all():
            return cand
    return None


def cost_walk_join_fast(rel: XRelation, cap: int) -> np.ndarray:
    """Transitive closure of a cost-chain relation as cheapest walks.

    Works with plain numbers only: edge weights add (capped), a walk's
    value is its total, and the best value per state pair is the minimum
    over every walk with at most states * (cap + 1) steps. Walks are
    extended one step per round, so round L holds the cheapest walk of at
    most L steps; a round that changes nothing changes nothing after it.
    The main code path's join and fusion tables are never consulted.
    """
    n = rel.size
    weights = rel.matrix
    best = np.minimum(weights, cap)
    for _ in range(n * (cap + 1) - 1):
        longer = (best[:, :, None] + weights[None, :, :]).min(axis=1)
        nxt = np.minimum(best, np.minimum(longer, cap))
        if np.array_equal(nxt, best):
            break
        best = nxt
    return best
