"""Algebra-valued relations over a finite state set, with the three
closure-flavoured operations the box semantics needs: union, composition
and transitive closure.

A relation holds its matrix once, as a read-only (n, n) int64 `matrix`
that every operation hands to `kernel` as a batch of one; `values` is
derived from it. Relations compare by identity. All operations require
both arguments to share the same algebra object and state count;
DimensionMismatch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import FLAlgebra, element_indices
from .errors import DimensionMismatch
from .kernel import closure, compose, lookup


@dataclass(frozen=True, eq=False)
class XRelation:
    """An n x n matrix of algebra elements, copied on construction and read-only.

    DimensionMismatch unless the matrix is square, and, given an algebra,
    unless every entry is an element index 0..size-1.
    """

    algebra: FLAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.int64)
        if matrix.shape == (0,):    # no rows: the relation on no states
            matrix = matrix.reshape(0, 0)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"relation matrix must be square, not of shape {matrix.shape}")
        if self.algebra is not None and matrix.size and not (
                0 <= matrix.min() and matrix.max() < self.algebra.size):
            raise DimensionMismatch(f"relation entries must lie in 0..{self.algebra.size - 1}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """The matrix as nested tuples of Python ints."""
        return tuple(map(tuple, self.matrix.tolist()))

    def get(self, s: int, t: int) -> int:
        return self.values[s][t]

    @classmethod
    def from_rows(cls, algebra: FLAlgebra, rows: Sequence[Sequence[int]]) -> "XRelation":
        if not isinstance(rows, (list, tuple)):
            raise DimensionMismatch("relation matrix must be a list of rows")
        n = len(rows)
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise DimensionMismatch("relation matrix must be square")
        return cls(algebra, [element_indices(row, algebra.size, "relation entry",
                                             DimensionMismatch) for row in rows])


def bottom_relation(algebra: FLAlgebra, n: int) -> XRelation:
    return XRelation(algebra, np.full((n, n), algebra.bottom))


def identity_relation(algebra: FLAlgebra, n: int) -> XRelation:
    """one on the diagonal, bottom elsewhere."""
    return XRelation(algebra, np.where(np.eye(n, dtype=bool), algebra.one, algebra.bottom))


def _check_compatible(r: XRelation, q: XRelation) -> None:
    if r.algebra is not q.algebra and not r.algebra.same_tables(q.algebra):
        raise DimensionMismatch("relations live over different algebras")
    if r.size != q.size:
        raise DimensionMismatch(f"relation sizes differ: {r.size} vs {q.size}")


def rel_union(r: XRelation, q: XRelation) -> XRelation:
    """Pointwise join."""
    _check_compatible(r, q)
    return XRelation(r.algebra, lookup(r.algebra.arrays.join, r.matrix, q.matrix))


def rel_compose(r: XRelation, q: XRelation) -> XRelation:
    """(r;q)(s,t) = join over x of r(s,x)*q(x,t)."""
    _check_compatible(r, q)
    return XRelation(r.algebra, compose(r.algebra, r.matrix[None], q.matrix[None])[0])


def transitive_closure(r: XRelation) -> XRelation:
    """Least transitive relation extending r.

    Computed by `kernel.closure`: repeated squaring T |-> T union (T;T)
    from r, whose fixpoint is the join of r^k over every k >= 1; entries
    only climb in the finite lattice, so the iteration stabilizes.
    """
    return XRelation(r.algebra, closure(r.algebra, r.matrix[None])[0])


def refl_trans_closure(r: XRelation) -> XRelation:
    """r*(s,t) is one when s = t and the transitive-closure value otherwise."""
    plus = closure(r.algebra, r.matrix[None])[0]
    return XRelation(r.algebra, np.where(np.eye(r.size, dtype=bool), r.algebra.one, plus))


def path_value(r: XRelation, s: int, path: Sequence[int], t: int) -> int:
    """Fused value of one walk s -> path[0] -> ... -> path[-1] -> t.

    The empty path is the single step from s to t. Kept as a primitive so
    closures can be checked against explicit walk enumeration.
    """
    A = r.algebra
    if not path:
        return r.values[s][t]
    acc = r.values[s][path[0]]
    for u, v in zip(path, path[1:]):
        acc = A.fuse(acc, r.values[u][v])
    return A.fuse(acc, r.values[path[-1]][t])
