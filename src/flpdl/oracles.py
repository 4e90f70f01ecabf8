"""Independent reference implementations used only to cross-check results.

Nothing here shares code with the main evaluation path, `kernel`: the
reference evaluator applies the definitions one scalar lookup at a time,
the classical checker works on sets, the closure oracles work by
brute-force candidate enumeration and by cheapest walks with plain capped
addition. Slow on purpose; correctness over speed.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .algebra import FLAlgebra
from .relations import XRelation
from .semantics import Model
from .syntax import (ActionExp, And, Atom, Box, Choice, Const, Formula, Fuse,
                     LDiv, Or, Plus, RDiv, Seq, Var)


# -- the definitional evaluator --------------------------------------------------

def reference_values(model: Model, formula: Formula) -> tuple[int, ...]:
    """Value of the formula at every state, read off the definitions.

    Scalar operations state by state; [A]f at s is the meet over t of
    R_A(s,t) => f(t); u joins, ; composes (join over x of R(s,x) * Q(x,t)),
    and + iterates T <- R u T;R to its fixpoint. Unmapped atoms are bottom.
    Subterms are visited in post-order on an explicit stack, so any depth
    evaluates.
    """
    A = model.algebra
    states = range(model.frame.size)
    ops = {And: A.meet, Or: A.join, Fuse: A.fuse, LDiv: A.ldiv, RDiv: A.imp}

    def union(r, q):
        return tuple(tuple(A.join(a, b) for a, b in zip(rs, qs)) for rs, qs in zip(r, q))

    def compose(r, q):
        return tuple(tuple(reduce(A.join, (A.fuse(r[s][x], q[x][t]) for x in states), A.bottom)
                           for t in states) for s in states)

    def parts(node, action):
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
        if type(node) in ops:
            return (node.left, False), (node.right, False)
        raise TypeError(f"not a formula: {node!r}")

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

    done: dict = {}     # (node, is action) -> its relation or value row
    stack = [(formula, False)]
    while stack:
        key = stack[-1]
        if key in done:
            stack.pop()
            continue
        needed = parts(*key)
        missing = [part for part in needed if part not in done]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        done[key] = meaning(key[0], [done[part] for part in needed])
    return done[(formula, False)]


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


def _classical_relation(m: ClassicalModel, action: ActionExp) -> set[tuple[int, int]]:
    if isinstance(action, Atom):
        return m.relations.get(action.index, set())
    if isinstance(action, Choice):
        return _classical_relation(m, action.left) | _classical_relation(m, action.right)
    if isinstance(action, Seq):
        left = _classical_relation(m, action.left)
        right = _classical_relation(m, action.right)
        return {(s, u) for (s, t) in left for (t2, u) in right if t == t2}
    if isinstance(action, Plus):
        rel = set(_classical_relation(m, action.body))
        while True:
            step = {(s, u) for (s, t) in rel for (t2, u) in rel if t == t2}
            if step <= rel:
                return rel
            rel |= step
    raise TypeError(f"not an action expression: {action!r}")


def classical_states(m: ClassicalModel, formula: Formula) -> set[int]:
    """States where the formula is classically true."""
    everything = set(range(m.size))
    if isinstance(formula, Var):
        return set(m.valuation.get(formula.index, set()))
    if isinstance(formula, Const):
        return everything if formula.index == 1 else set()
    if isinstance(formula, (And, Fuse)):
        return classical_states(m, formula.left) & classical_states(m, formula.right)
    if isinstance(formula, Or):
        return classical_states(m, formula.left) | classical_states(m, formula.right)
    if isinstance(formula, (LDiv, RDiv)):
        left = classical_states(m, formula.left)
        right = classical_states(m, formula.right)
        return (everything - left) | right
    if isinstance(formula, Box):
        rel = _classical_relation(m, formula.action)
        body = classical_states(m, formula.body)
        return {s for s in everything
                if all(t in body for (s2, t) in rel if s2 == s)}
    raise TypeError(f"not a formula: {formula!r}")


def classical_reachable(m: ClassicalModel, action: ActionExp, start: int) -> set[int]:
    """Start state plus everything reachable through the action's relation."""
    rel = _classical_relation(m, action)
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
